#include "algos/parallel_tail.hpp"

#include <algorithm>

#include "algos/mergesort.hpp"
#include "sim/buffer.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace hpu::algos {

namespace {

/// One data-parallel merge level: n work-items, each placing its element
/// into the merged run via binary search in the sibling run (the Fig. 9
/// kernel, reused here for the tail).
sim::Ticks parallel_merge_level(sim::Device& dev, const std::int32_t* src, std::int32_t* dst,
                                std::uint64_t n, std::uint64_t run_len, bool functional) {
    const double ops = 2.0 + 1.0 + static_cast<double>(util::ilog2(run_len) + 1);
    if (!functional) return dev.params().launch_time(n, ops);
    return dev
        .launch(n,
                [&](sim::WorkItem& wi) {
                    const std::uint64_t t = wi.global_id();
                    const std::uint64_t run = t / run_len;
                    const std::uint64_t pair = run / 2;
                    const std::uint64_t idx = t % run_len;
                    const bool left = (run % 2) == 0;
                    const std::int32_t v = src[t];
                    const std::int32_t* sib = src + (left ? run + 1 : run - 1) * run_len;
                    const std::uint64_t rank = static_cast<std::uint64_t>(
                        (left ? std::lower_bound(sib, sib + run_len, v)
                              : std::upper_bound(sib, sib + run_len, v)) -
                        sib);
                    dst[pair * 2 * run_len + idx + rank] = v;
                    wi.charge_compute(1 + util::ilog2(run_len) + 1);
                    wi.charge_mem(2, sim::Pattern::kCoalesced);
                })
        .time;
}

}  // namespace

ParallelTailReport mergesort_gpu_parallel_tail(sim::Hpu& hpu, std::span<std::int32_t> data,
                                               std::uint64_t switch_level,
                                               const core::ExecOptions& opts) {
    const std::uint64_t n = data.size();
    HPU_CHECK(util::is_pow2(n) && n >= 2, "parallel-tail mergesort needs a power-of-two size");
    const std::uint64_t L = util::ilog2(n);
    sim::Device& dev = hpu.gpu();
    if (switch_level > L) {
        // Auto: per-task kernels saturate while tasks >= g; switch when the
        // level's task count (2^i) falls below that.
        switch_level = std::min<std::uint64_t>(L, util::ceil_log2(dev.params().g));
    }
    ParallelTailReport rep;
    rep.switch_level = switch_level;
    rep.transfer = 2.0 * hpu.transfer_time(n);

    MergesortCoalesced<std::int32_t> deep;
    deep.prepare(n);

    std::optional<sim::DeviceBuffer<std::int32_t>> buf;
    std::vector<std::int32_t> scratch;
    std::span<std::int32_t> dspan = data;
    if (opts.functional) {
        buf.emplace(std::vector<std::int32_t>(data.begin(), data.end()));
        buf->copy_to_device();
        dspan = buf->device();
        scratch.resize(n);
    }

    // --- Deep phase: generic per-task kernels, levels L-1 .. switch_level.
    if (opts.functional) {
        sim::OpCounter pre;
        deep.before_gpu_levels(dspan, n / 2, pre);
    }
    for (std::uint64_t i = L; i-- > switch_level;) {
        const std::uint64_t tasks = util::ipow(2, static_cast<std::uint32_t>(i));
        if (opts.functional) {
            rep.deep_kernels +=
                dev.launch(tasks,
                           [&](sim::WorkItem& wi) {
                               deep.run_device_task(dspan, tasks, wi.global_id(), wi.ops());
                           })
                    .time;
            sim::OpCounter flip;
            deep.after_gpu_level(dspan, tasks, flip);
        } else {
            const double ops = deep.recurrence().task_cost(static_cast<double>(n),
                                                           static_cast<double>(i)) *
                               deep.device_ops_multiplier(dev.params());
            rep.deep_kernels += dev.params().launch_time(tasks, ops);
        }
    }
    if (opts.functional) {
        sim::OpCounter post;
        deep.after_gpu_levels(dspan, util::ipow(2, static_cast<std::uint32_t>(switch_level)),
                              post);
        rep.deep_kernels += post.gpu_ops(dev.params().strided_penalty) / dev.params().gamma /
                            static_cast<double>(dev.params().g);
    } else {
        rep.deep_kernels += deep.analytic_gpu_hook_ops(n).gpu_ops(dev.params().strided_penalty) /
                            dev.params().gamma / static_cast<double>(dev.params().g);
    }

    // --- Tail phase: data-parallel merges for levels switch_level-1 .. 0.
    std::int32_t* cur = opts.functional ? dspan.data() : nullptr;
    std::int32_t* nxt = opts.functional ? scratch.data() : nullptr;
    for (std::uint64_t i = switch_level; i-- > 0;) {
        const std::uint64_t run_len = n >> (i + 1);  // merging runs of this length
        rep.tail_kernels += parallel_merge_level(dev, cur, nxt, n, run_len, opts.functional);
        std::swap(cur, nxt);
    }
    if (opts.functional) {
        if (cur != dspan.data()) std::copy(scratch.begin(), scratch.end(), dspan.begin());
        buf->copy_to_host();
        std::copy(buf->host_view().begin(), buf->host_view().end(), data.begin());
    }
    rep.total = rep.deep_kernels + rep.tail_kernels + rep.transfer;
    return rep;
}

}  // namespace hpu::algos
