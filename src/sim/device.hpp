// The simulated GPU device: executes kernels functionally on the host while
// charging virtual time according to the HPU cost model (see params.hpp).
//
// Execution model (mirrors §3.1/§4.2 of the paper): a kernel launch of N
// work-items runs in ceil(N / g) waves of up to g lanes. All items execute
// the same kernel body; each identifies its subproblem from its global id
// (Alg. 3). A wave lasts as long as its slowest item; waves execute back to
// back. Items charge their work through WorkItem::ops().
//
// Functional execution is optionally *host-parallel*: constructed with a
// util::ThreadPool, the device runs each wave's items across the pool (the
// items of one launch are independent by the framework's contract — the
// hpu::analysis race detector enforces it). Virtual time, LaunchResult,
// and WaveTrace stay bit-identical to the serial path: per-item charges
// land in a per-wave arena and are folded into the wave max/sum in index
// order after the parallel section (enforced by test).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/op_counter.hpp"
#include "sim/params.hpp"
#include "trace/counters.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace hpu::sim {

/// Handle given to each kernel invocation: identity + charge interface.
class WorkItem {
public:
    WorkItem(std::uint64_t global_id, std::uint64_t global_size, OpCounter& ops) noexcept
        : global_id_(global_id), global_size_(global_size), ops_(&ops) {}

    /// OpenCL get_global_id(0).
    std::uint64_t global_id() const noexcept { return global_id_; }
    /// OpenCL get_global_size(0): total items in the launch.
    std::uint64_t global_size() const noexcept { return global_size_; }

    OpCounter& ops() noexcept { return *ops_; }

    void charge_compute(std::uint64_t n) noexcept { ops_->charge_compute(n); }
    void charge_mem(std::uint64_t words, Pattern p) noexcept { ops_->charge_mem(words, p); }

private:
    std::uint64_t global_id_;
    std::uint64_t global_size_;
    OpCounter* ops_;
};

/// Result of one kernel launch.
struct LaunchResult {
    Ticks time = 0.0;          ///< virtual duration of the launch
    std::uint64_t items = 0;   ///< work-items executed
    std::uint64_t waves = 0;   ///< ceil(items / g)
    OpCounter total_ops;       ///< sum of all item charges
    double max_item_ops = 0;   ///< largest per-item GPU op count observed
};

/// Cumulative device statistics.
struct DeviceStats {
    std::uint64_t launches = 0;
    std::uint64_t items = 0;
    Ticks busy_time = 0.0;
    OpCounter total_ops;
};

/// One SIMT wave of a launch, recorded into an optional external sink (see
/// Device::set_wave_trace) for the hpu::trace span tracer. Purely
/// observational: attaching a sink never changes launch timing.
struct WaveTrace {
    std::uint64_t first_item = 0;  ///< global id of the wave's first item
    std::uint64_t items = 0;       ///< busy lanes in this wave (<= g)
    Ticks duration = 0.0;          ///< wave time: max item ops / gamma
    double max_item_ops = 0.0;     ///< the critical item's GPU op count
    OpCounter ops;                 ///< summed charges of the wave's items
};

class Device {
public:
    /// `pool` may be null: items then run inline on the caller (the
    /// virtual clock is unaffected either way — the pool only accelerates
    /// functional execution on multi-core hosts).
    explicit Device(DeviceParams params, util::ThreadPool* pool = nullptr)
        : params_(params), pool_(pool) {
        params_.validate();
    }

    const DeviceParams& params() const noexcept { return params_; }
    const DeviceStats& stats() const noexcept { return stats_; }
    void reset_stats() noexcept { stats_ = DeviceStats{}; }

    util::ThreadPool* pool() const noexcept { return pool_; }

    /// Attach (or detach, with nullptr) a per-wave sink for the next
    /// launches. The device does not own the sink; it must outlive its use.
    void set_wave_trace(std::vector<WaveTrace>* sink) noexcept { wave_trace_ = sink; }

    /// Launches `n_items` invocations of `kernel` (callable taking
    /// WorkItem&). Items run functionally on the host; virtual time follows
    /// the wave model. Exceptions from kernel bodies propagate to the
    /// caller after no further items are run.
    ///
    /// `items_use_pool` declares that the kernel bodies can split their own
    /// work across the host pool (LevelAlgorithm::intra_task_parallel): a
    /// wave narrower than the pool then runs inline so the workers serve
    /// the merges *inside* the few items. Wall-clock only — the serial
    /// fold is bit-identical to the pooled one.
    template <typename Kernel>
    LaunchResult launch(std::uint64_t n_items, Kernel&& kernel, bool items_use_pool = false) {
        HPU_CHECK(n_items >= 1, "kernel launch needs at least one work-item");
        LaunchResult r;
        r.items = n_items;
        r.waves = util::ceil_div(n_items, params_.g);
        const bool pooled = pool_ != nullptr && pool_->worker_count() > 0;
        Ticks total = params_.launch_overhead;
        std::uint64_t id = 0;
        for (std::uint64_t w = 0; w < r.waves; ++w) {
            const std::uint64_t wave_begin = id;
            const std::uint64_t wave_end = std::min(n_items, (w + 1) * params_.g);
            double wave_max_ops = 0.0;
            OpCounter wave_ops;
            if (pooled && wave_end - wave_begin > 1 &&
                !(items_use_pool && wave_end - wave_begin <= pool_->worker_count())) {
                // Host-parallel wave: every item charges into its own arena
                // slot, then the slots are folded in index order — the same
                // max/sum sequence the serial loop below produces, so the
                // two paths are bit-identical.
                const std::size_t items = wave_end - wave_begin;
                item_ops_.assign(items, OpCounter{});  // reused arena, reset
                item_cost_.resize(items);
                pool_->parallel_for(items, [&](std::size_t j) {
                    WorkItem wi(wave_begin + j, n_items, item_ops_[j]);
                    kernel(wi);
                    item_cost_[j] = item_ops_[j].gpu_ops(params_.strided_penalty);
                });
                for (std::size_t j = 0; j < items; ++j) {
                    wave_max_ops = std::max(wave_max_ops, item_cost_[j]);
                    r.max_item_ops = std::max(r.max_item_ops, item_cost_[j]);
                    r.total_ops += item_ops_[j];
                    if (wave_trace_ != nullptr) wave_ops += item_ops_[j];
                }
                id = wave_end;
            } else {
                for (; id < wave_end; ++id) {
                    OpCounter ops;
                    WorkItem wi(id, n_items, ops);
                    kernel(wi);
                    const double item_ops = ops.gpu_ops(params_.strided_penalty);
                    wave_max_ops = std::max(wave_max_ops, item_ops);
                    r.max_item_ops = std::max(r.max_item_ops, item_ops);
                    r.total_ops += ops;
                    if (wave_trace_ != nullptr) wave_ops += ops;
                }
            }
            total += wave_max_ops / params_.gamma;
            if (wave_trace_ != nullptr) {
                wave_trace_->push_back({wave_begin, wave_end - wave_begin,
                                        wave_max_ops / params_.gamma, wave_max_ops,
                                        wave_ops});
            }
        }
        r.time = total;
        stats_.launches += 1;
        stats_.items += n_items;
        stats_.busy_time += r.time;
        stats_.total_ops += r.total_ops;
        auto& ctr = trace::counters();
        trace::count(ctr.kernel_launches);
        trace::count(ctr.waves_launched, r.waves);
        trace::count(ctr.work_items, n_items);
        trace::count(ctr.coalesced_transactions,
                     util::ceil_div(r.total_ops.mem_coalesced, params_.coalesce_width));
        trace::count(ctr.strided_transactions, r.total_ops.mem_strided);
        return r;
    }

private:
    DeviceParams params_;
    DeviceStats stats_;
    std::vector<WaveTrace>* wave_trace_ = nullptr;
    util::ThreadPool* pool_ = nullptr;
    // Per-wave scratch, reused across waves and launches so pooled
    // execution allocates nothing steady-state (capacity is bounded by g).
    std::vector<OpCounter> item_ops_;
    std::vector<double> item_cost_;
};

}  // namespace hpu::sim
