// The pipelined hybrid scheduler (DESIGN.md §9): the advanced schedule of
// §5.2 with its two bulk transfers split into K chunks that overlap wave
// execution on the link's FIFO queue. core::plan_pipelined writes the
// schedule down (chunk plan, merge level d, the never-worse guard) and the
// shared interpreter runs it.
//
// A priori guard: the planner prices both the pipelined and the
// unpipelined (K = 1) GPU thread with the same analytic pricing the
// interpreter uses and falls back to K = 1 unless pipelining strictly wins
// — so the pipelined makespan is never worse than the advanced one
// (exactly, in analytic mode; for uniform-cost algorithms the functional
// clock matches). At K = 1 the schedule degenerates to the advanced
// hybrid's exact event sequence, reproducing its makespan bit for bit.
//
// Like the other schedulers, pipelined runs inherit host-parallel
// functional execution from the Hpu's thread pool; the virtual pipeline
// schedule is bit-identical with or without it (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <span>

#include "core/hybrid.hpp"

namespace hpu::core {

/// Knobs of the pipelined scheduler beyond (α, y).
struct PipelinedOptions {
    /// Requested transfer chunks K. Clamped to the transfer-level task
    /// count of the GPU slice; the no-win guard may reduce it to 1.
    std::uint64_t chunks = 4;
    /// Split-level task count, as AdvancedOptions::split_tasks.
    std::uint64_t split_tasks = 0;
    ExecOptions exec;
};

/// Pipelined hybrid scheduler at explicit (α, transfer level y, K chunks).
/// Same contract as run_advanced_hybrid; ExecReport::chunks reports the K
/// the guard settled on.
template <typename T>
ExecReport run_pipelined_hybrid(sim::Hpu& hpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                                double alpha, std::uint64_t y,
                                const PipelinedOptions& pip = {}) {
    // As in run_advanced_hybrid, a dynamic tree ignores the caller's (α, y)
    // plan; pip.chunks still bounds the per-level transfer chunking.
    if (const auto* irr = alg.as_irregular()) {
        HPU_CHECK(pip.chunks >= 1, "need at least one chunk");
        return run_irregular(hpu.cpu(), &hpu.gpu(), hpu.params(), *irr, data,
                             IrregularMode::kPipelined, pip.exec, pip.chunks,
                             /*include_transfers=*/true, "pipelined-hybrid");
    }
    return run_plan(plan_pipelined(alg, data.size(), hpu.params(), hpu.gpu(), alpha, y,
                                   pip.chunks, pip.split_tasks),
                    hpu.cpu(), &hpu.gpu(), alg, data, pip.exec);
}

}  // namespace hpu::core
