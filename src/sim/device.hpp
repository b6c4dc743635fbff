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
// util::ThreadPool, the device runs a launch's items across the pool (the
// items of one launch are independent by the framework's contract — the
// hpu::analysis race detector enforces it). Items run in tiles of adjacent
// items (launch_tiled), so a kernel can share memory work between
// neighbours. Virtual time, LaunchResult, and WaveTrace stay bit-identical
// to a one-item-at-a-time run: per-item charges are folded into per-claim
// max/sum slots, and the slots into the wave max/sum in index order after
// the parallel section (enforced by test).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
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
    /// launch of no more items than the pool has workers then runs inline
    /// so the workers serve the merges *inside* the few items. Wall-clock
    /// only — the inline fold is bit-identical to the pooled one.
    template <typename Kernel>
    LaunchResult launch(std::uint64_t n_items, Kernel&& kernel, bool items_use_pool = false) {
        return launch_tiled(
            n_items,
            [&](std::uint64_t first, std::span<OpCounter> ops) {
                for (std::uint64_t i = 0; i < ops.size(); ++i) {
                    WorkItem wi(first + i, n_items, ops[i]);
                    kernel(wi);
                }
            },
            items_use_pool);
    }

    /// launch() for kernels that run a *tile* of adjacent work-items
    /// together: `kernel(first, ops)` executes items [first, first +
    /// ops.size()) of one wave and charges item first + i to ops[i]. Tiles
    /// never cross a wave and hold at most kTileItems items, so a body can
    /// lay out memory work across neighbouring items — the coalesced
    /// mergesort reads whole rows of its interleaved layout.
    ///
    /// The whole launch is one pool batch: each claim is a run of at most
    /// g items, cut at the wave boundary into at most two pieces. A piece
    /// runs its tiles in index order and folds their per-item charges into
    /// its own max/sum slot; the slots are then folded in index order into
    /// the waves. Charges are integers and the fold takes maxima, so the
    /// result does not depend on how the items were grouped: LaunchResult
    /// and WaveTrace match a one-item-at-a-time run bit for bit.
    template <typename TileKernel>
    LaunchResult launch_tiled(std::uint64_t n_items, TileKernel&& kernel,
                              bool items_use_pool = false) {
        HPU_CHECK(n_items >= 1, "kernel launch needs at least one work-item");
        LaunchResult r;
        r.items = n_items;
        r.waves = util::ceil_div(n_items, params_.g);
        const std::size_t workers = pool_ != nullptr ? pool_->worker_count() : 0;
        const bool pooled = workers > 0 && n_items > 1 && !(items_use_pool && n_items <= workers);
        const std::uint64_t grain =
            pooled ? std::clamp<std::uint64_t>(n_items / ((workers + 1) * kClaimsPerParticipant),
                                               1, params_.g)
                   : params_.g;
        const std::uint64_t claims = util::ceil_div(n_items, grain);
        pieces_.assign(2 * claims, Piece{});
        auto run_piece = [&](std::uint64_t begin, std::uint64_t end, Piece& p) {
            p.wave = begin / params_.g;
            std::array<OpCounter, kTileItems> ops;
            for (std::uint64_t first = begin; first < end; first += kTileItems) {
                const std::size_t k = std::min<std::uint64_t>(kTileItems, end - first);
                std::fill_n(ops.begin(), k, OpCounter{});
                kernel(first, std::span<OpCounter>(ops.data(), k));
                for (std::size_t i = 0; i < k; ++i) {
                    p.max_ops = std::max(p.max_ops, ops[i].gpu_ops(params_.strided_penalty));
                    p.ops += ops[i];
                }
            }
        };
        auto run_claims = [&](std::size_t c0, std::size_t c1) {
            for (std::size_t c = c0; c < c1; ++c) {
                const std::uint64_t begin = c * grain;
                const std::uint64_t end = std::min(n_items, begin + grain);
                const std::uint64_t cut = std::min(end, (begin / params_.g + 1) * params_.g);
                run_piece(begin, cut, pieces_[2 * c]);
                if (cut < end) run_piece(cut, end, pieces_[2 * c + 1]);
            }
        };
        if (pooled) {
            pool_->parallel_ranges(claims, run_claims, /*grain=*/1);
        } else {
            run_claims(0, claims);
        }
        Ticks total = params_.launch_overhead;
        std::uint64_t w = 0;
        double wave_max_ops = 0.0;
        OpCounter wave_ops;
        auto close_wave = [&] {
            total += wave_max_ops / params_.gamma;
            r.max_item_ops = std::max(r.max_item_ops, wave_max_ops);
            r.total_ops += wave_ops;
            if (wave_trace_ != nullptr) {
                const std::uint64_t first = w * params_.g;
                wave_trace_->push_back({first, std::min(n_items - first, params_.g),
                                        wave_max_ops / params_.gamma, wave_max_ops, wave_ops});
            }
            wave_max_ops = 0.0;
            wave_ops = OpCounter{};
        };
        for (const Piece& p : pieces_) {
            if (p.wave == kNoWave) continue;  // claim that ended at its wave boundary
            if (p.wave != w) {
                close_wave();
                w = p.wave;
            }
            wave_max_ops = std::max(wave_max_ops, p.max_ops);
            wave_ops += p.ops;
        }
        close_wave();
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
    /// Upper bound on the items one kernel call of a tiled launch runs.
    static constexpr std::size_t kTileItems = 64;
    /// Target claims per pool participant (late or slow participants still
    /// balance, as with ThreadPool's own automatic grain).
    static constexpr std::size_t kClaimsPerParticipant = 8;
    static constexpr std::uint64_t kNoWave = ~std::uint64_t{0};

    /// Folded charges of one claim's items inside one wave.
    struct Piece {
        std::uint64_t wave = kNoWave;
        double max_ops = 0.0;  ///< largest per-item GPU op count
        OpCounter ops;         ///< summed per-item charges
    };
    // Piece arena, reused across launches so execution allocates nothing
    // steady-state.
    std::vector<Piece> pieces_;
};

}  // namespace hpu::sim
