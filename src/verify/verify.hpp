// hpu::verify — the static analysis pass that runs BEFORE a simulation
// (DESIGN.md §12). Two layers:
//
//   1. prove_algorithm: proves every phase of a LevelAlgorithm's declared
//      footprint pairwise disjoint for all admissible shapes (or finds a
//      concrete counterexample the runtime detector must reproduce);
//   2. check_plan (verify/schedule.hpp): checks the schedule invariants
//      (capacity, serialization, transfer precedence, chunk safety,
//      never-worse) on the priced steps of the core::Plan the executor is
//      about to run (core::detail::verify_plan).
//
// The resulting VerifyReport is the certificate executors attach to their
// ExecReport; a proven phase lets the runtime validation layer skip word
// concretization (verify/conformance.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "core/level_algorithm.hpp"
#include "verify/conformance.hpp"
#include "verify/footprint.hpp"
#include "verify/prover.hpp"
#include "verify/report.hpp"
#include "verify/schedule.hpp"

namespace hpu::verify {

/// Proves (or refutes) intra-level race-freedom of every phase of `alg`,
/// quantifying over all admissible levels and input sizes at once.
template <typename T>
VerifyReport prove_algorithm(const core::LevelAlgorithm<T>& alg) {
    VerifyReport rep;
    rep.attempted = true;
    rep.algorithm = alg.name();
    const std::uint64_t b = alg.b();
    const ProofContext task_ctx{b, alg.base_size() * b, /*sz_fixed=*/false};
    const ProofContext leaf_ctx{b, alg.base_size(), /*sz_fixed=*/true};
    rep.proofs.push_back(
        prove_phase(Phase::kCpuTask, alg.footprint(FootprintQuery{Phase::kCpuTask}), task_ctx));
    rep.proofs.push_back(prove_phase(
        Phase::kDeviceTask, alg.footprint(FootprintQuery{Phase::kDeviceTask}), task_ctx));
    rep.proofs.push_back(
        prove_phase(Phase::kLeaf, alg.footprint(FootprintQuery{Phase::kLeaf}), leaf_ctx));
    for (const PhaseProof& pp : rep.proofs) {
        if (pp.status == ProofStatus::kCounterexample) {
            rep.findings.push_back(
                VerifyFinding{VerifyFinding::Kind::kRaceCounterexample,
                              std::string(to_string(pp.phase)) + ": " +
                                  pp.counterexample->describe()});
        } else if (pp.rules == "malformed") {
            rep.findings.push_back(VerifyFinding{
                VerifyFinding::Kind::kMalformedFootprint,
                std::string(to_string(pp.phase)) + ": declared footprint is not well-formed"});
        }
    }
    return rep;
}

/// Downgrade certificate for an irregular (data-dependent) run: the task
/// lists exist only at run time, so there is nothing the symbolic prover
/// can quantify over — every phase is recorded kUnknown and an explicit
/// kDynamicFootprint finding documents the proven→checked downgrade.
/// Consequences, by construction of the runtime: VerifyReport::proven() is
/// false for every phase, so under ExecOptions::validate the irregular
/// engine keeps the *exact* passes on — declared-extent disjointness
/// (analysis::detect_extent_overlaps) plus word-level race concretization
/// over the dynamic access sets — instead of the cheaper conformance check
/// proven regular phases earn. certified() is false: an irregular run is
/// checked, never certified.
inline VerifyReport verify_irregular_run(const std::string& algorithm,
                                         const std::string& executor, std::uint64_t n) {
    VerifyReport rep;
    rep.attempted = true;
    rep.algorithm = algorithm;
    rep.executor = executor;
    rep.n = n;
    for (const Phase ph : {Phase::kCpuTask, Phase::kDeviceTask, Phase::kLeaf}) {
        PhaseProof pp;
        pp.phase = ph;
        pp.status = ProofStatus::kUnknown;
        rep.proofs.push_back(pp);
    }
    rep.findings.push_back(VerifyFinding{
        VerifyFinding::Kind::kDynamicFootprint,
        "task lists are data-dependent; static race-freedom proofs downgraded to runtime "
        "checks (extent disjointness + exact race detection per dynamic level)"});
    return rep;
}

}  // namespace hpu::verify
