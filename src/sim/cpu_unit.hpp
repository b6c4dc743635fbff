// The multi-core CPU side of the HPU: runs a level of independent tasks on
// p virtual cores. Tasks execute functionally (optionally on a real thread
// pool); virtual time is the list-scheduling makespan of the measured
// per-task op counts, matching the §5 cost (a^i / p) · f(n / b^i) for
// uniform levels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/op_counter.hpp"
#include "sim/params.hpp"
#include "trace/counters.hpp"
#include "util/makespan.hpp"
#include "util/thread_pool.hpp"

namespace hpu::sim {

/// Result of running one level of tasks.
struct LevelResult {
    Ticks time = 0.0;             ///< virtual makespan (incl. contention penalty)
    std::uint64_t tasks = 0;
    OpCounter total_ops;
    std::uint64_t max_task_ops = 0;
};

class CpuUnit {
public:
    /// `pool` may be null: tasks then run inline on the caller (the virtual
    /// clock is unaffected — the pool only accelerates functional
    /// execution on multi-core hosts).
    explicit CpuUnit(CpuParams params, util::ThreadPool* pool = nullptr)
        : params_(params), pool_(pool) {
        params_.validate();
    }

    const CpuParams& params() const noexcept { return params_; }

    util::ThreadPool* pool() const noexcept { return pool_; }

    /// Runs `n_tasks` invocations of `task` (callable taking (index,
    /// OpCounter&)) on p virtual cores. `working_set_bytes` feeds the
    /// optional LLC contention penalty (0 = unknown/none).
    ///
    /// `tasks_use_pool` declares that the task bodies can split their own
    /// work across the pool (LevelAlgorithm::intra_task_parallel). A level
    /// narrower than the pool then runs inline so the workers serve the
    /// merges *inside* the few tasks instead of idling — near the tree
    /// root that is the only parallelism available. Wall-clock only: the
    /// inline fold below is bit-identical to the pooled one.
    template <typename Task>
    LevelResult run_level(std::uint64_t n_tasks, Task&& task, std::uint64_t working_set_bytes = 0,
                          util::ListOrder order = util::ListOrder::kArrival,
                          bool tasks_use_pool = false) {
        LevelResult r;
        r.tasks = n_tasks;
        if (n_tasks == 0) return r;
        trace::count(trace::counters().cpu_levels);
        costs_.resize(n_tasks);  // reusable arena: no per-level allocation
        const bool pooled = pool_ != nullptr && pool_->worker_count() > 0 &&
                            !(tasks_use_pool && n_tasks <= pool_->worker_count());
        if (pooled) {
            // Every task charges into its own arena slot; the full
            // OpCounters are folded in index order after the parallel
            // section, so the per-category split (compute / coalesced /
            // strided) in LevelResult is bit-identical to the inline path.
            task_ops_.assign(n_tasks, OpCounter{});
            pool_->parallel_for(n_tasks, [&](std::size_t i) {
                task(static_cast<std::uint64_t>(i), task_ops_[i]);
                costs_[i] = task_ops_[i].cpu_ops();
            });
            for (std::uint64_t i = 0; i < n_tasks; ++i) {
                r.total_ops += task_ops_[i];
                r.max_task_ops = std::max(r.max_task_ops, costs_[i]);
            }
        } else {
            for (std::uint64_t i = 0; i < n_tasks; ++i) {
                OpCounter ops;
                task(i, ops);
                costs_[i] = ops.cpu_ops();
                r.total_ops += ops;
                r.max_task_ops = std::max(r.max_task_ops, costs_[i]);
            }
        }
        r.time = static_cast<Ticks>(
            util::makespan(std::span(costs_.data(), n_tasks), params_.p, order));
        r.time *= params_.contention_factor(n_tasks, working_set_bytes);
        return r;
    }

private:
    CpuParams params_;
    util::ThreadPool* pool_;
    // Per-level scratch, reused across levels so functional execution
    // allocates nothing steady-state (task_ops_ is only touched pooled).
    std::vector<std::uint64_t> costs_;
    std::vector<OpCounter> task_ops_;
};

}  // namespace hpu::sim
