// Parameter sets for the Hybrid Processing Unit (HPU) model of §3 of the
// paper, plus the knobs of our simulated device (see DESIGN.md §2).
//
// Cost semantics (the "virtual clock"):
//   * one CPU core executes 1 op per tick (γ_c = 1, the paper's
//     normalization);
//   * one GPU lane executes γ ops per tick (γ = γ_g < 1), so an item
//     costing c ops occupies its lane for c / γ ticks;
//   * a kernel launch of N work-items runs in waves of `g` lanes; a wave's
//     duration is the maximum item time in the wave; wave times add;
//   * transferring w words over the CPU↔GPU link takes λ + δ·w ticks;
//   * memory ops: a coalesced word costs 1 op on the device, a strided
//     (non-coalesced) word costs `strided_penalty` ops — this models SIMT
//     memory transactions and makes the §6.3 permutation optimization
//     measurable. The CPU charges every word 1 op (sequential access in a
//     task is cache-friendly).
//
// The price of a uniform step on each unit is written once, as the pure
// member functions below (level_time, host_pass_time, launch_time,
// hook_time, transfer_time). The analytic interpreter, the verifier, the
// drift report and the what-if replay all price through them.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

#include "util/check.hpp"
#include "util/math.hpp"

namespace hpu::sim {

/// Virtual time, in "ticks" == ops of one CPU core.
using Ticks = double;

/// GPU device parameters.
struct DeviceParams {
    /// Effective number of parallel lanes ("gpu cores", paper's g). Not the
    /// physical PE count: the empirical saturation point (§6.4, Fig. 5).
    std::uint64_t g = 1024;
    /// Per-lane speed relative to a CPU core (paper's γ < 1).
    double gamma = 1.0 / 100.0;
    /// Words per memory transaction; a fully coalesced wave touches
    /// `coalesce_width` useful words per transaction.
    std::uint64_t coalesce_width = 16;
    /// Op cost multiplier for a strided (uncoalesced) word on the device.
    double strided_penalty = 16.0;
    /// Fixed per-kernel-launch overhead, in ticks. The paper found
    /// scheduling overhead negligible (§3.2); kept as a knob, default 0.
    Ticks launch_overhead = 0.0;

    void validate() const {
        HPU_CHECK(g >= 1, "device needs at least one lane");
        HPU_CHECK(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        HPU_CHECK(coalesce_width >= 1, "coalesce width must be >= 1");
        HPU_CHECK(strided_penalty >= 1.0, "strided penalty must be >= 1");
        HPU_CHECK(launch_overhead >= 0.0, "launch overhead must be >= 0");
    }

    /// A launch of `items` uniform items of `each` device ops:
    /// overhead + ceil(items / g) · each / γ.
    Ticks launch_time(std::uint64_t items, double each) const noexcept {
        const auto waves = static_cast<double>(util::ceil_div(items, g));
        return launch_overhead + waves * each / gamma;
    }

    /// A device hook (permutation, ping-pong flip) of `ops` device ops,
    /// charged as perfectly parallel work over all g lanes: ops / γ / g.
    Ticks hook_time(double ops) const noexcept {
        return ops / gamma / static_cast<double>(g);
    }
};

/// Multi-core CPU parameters.
struct CpuParams {
    /// Cores available for task processing (paper's p).
    std::size_t p = 4;
    /// Last-level cache capacity in bytes. Used by the optional cache
    /// contention penalty that models the measured-vs-predicted gap of
    /// Fig. 8 (paper §6.4: cores competing for LLC at large n).
    std::uint64_t llc_bytes = 8ull << 20;
    /// Strength of the contention penalty: the makespan of a level whose
    /// working set is ws > llc_bytes is multiplied by
    /// 1 + contention · log2(ws / llc_bytes) when more than one core is
    /// active. 0 disables the penalty (the pure §5 model).
    double contention = 0.0;

    void validate() const {
        HPU_CHECK(p >= 1, "need at least one CPU core");
        HPU_CHECK(llc_bytes >= 1, "LLC capacity must be positive");
        HPU_CHECK(contention >= 0.0, "contention must be >= 0");
    }

    /// Multiplier modeling LLC competition between cores (Fig. 8 gap):
    /// 1 + contention · log2(ws / llc) when more than one core is active
    /// and the working set exceeds the cache. 1 otherwise.
    double contention_factor(std::uint64_t tasks, std::uint64_t working_set_bytes) const noexcept {
        if (contention <= 0.0 || tasks <= 1 || p <= 1) return 1.0;
        if (working_set_bytes <= llc_bytes) return 1.0;
        const double ratio =
            static_cast<double>(working_set_bytes) / static_cast<double>(llc_bytes);
        return 1.0 + contention * std::log2(ratio);
    }

    /// A level of `tasks` uniform tasks of `each` ops:
    /// ceil(tasks / p) · each, times the contention factor (0 = no
    /// working set, no contention).
    Ticks level_time(std::uint64_t tasks, double each,
                     std::uint64_t working_set_bytes = 0) const noexcept {
        const auto rounds = static_cast<double>(util::ceil_div(tasks, p));
        return rounds * each * contention_factor(tasks, working_set_bytes);
    }

    /// A host pass (pre-pass, root pass, finalize) of `ops` ops, charged
    /// as p-way parallel work: ops / p.
    Ticks host_pass_time(double ops) const noexcept { return ops / static_cast<double>(p); }
};

/// CPU↔GPU link: transferring w words takes λ + δ·w ticks (§3.2).
struct LinkParams {
    Ticks lambda = 0.0;  ///< fixed latency per transfer
    double delta = 0.0;  ///< ticks per word

    void validate() const {
        HPU_CHECK(lambda >= 0.0 && delta >= 0.0, "link costs must be >= 0");
    }

    Ticks transfer_time(std::uint64_t words) const noexcept {
        return lambda + delta * static_cast<double>(words);
    }
};

/// A full Hybrid Processing Unit: one multi-core CPU + one GPU + link.
struct HpuParams {
    std::string name = "hpu";
    CpuParams cpu;
    DeviceParams gpu;
    LinkParams link;

    void validate() const {
        cpu.validate();
        gpu.validate();
        link.validate();
        // The paper assumes γ·g > p (raw GPU power exceeds CPU power);
        // schedulers handle the degenerate case, but flag obviously
        // inconsistent setups where the GPU could never win a level.
        HPU_CHECK(gpu.gamma * static_cast<double>(gpu.g) > 0, "invalid GPU power");
    }

    /// Raw GPU compute power relative to one CPU core: γ·g.
    double gpu_power() const noexcept { return gpu.gamma * static_cast<double>(gpu.g); }
};

}  // namespace hpu::sim
