// Utilization and model-drift analysis derived from a TraceSession span
// tree — the per-level observability the paper's evaluation reasons with:
// busy/idle per unit (is the CPU ever idle under the advanced scheduler?),
// GPU lane occupancy (busy lanes / g per wave, the §6.4 saturation view),
// link utilization and effective bandwidth, and a per-level drift column
// that prices each executed level through the hpu::model cost model and
// reports observed / predicted — the Fig. 8/10 measured-vs-predicted gap,
// visible per level instead of end-to-end.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "model/recurrence.hpp"
#include "sim/params.hpp"
#include "trace/span.hpp"

namespace hpu::trace {

/// Busy/idle accounting for one unit over the traced interval.
struct UnitUtilization {
    Unit unit = Unit::kCpu;
    sim::Ticks busy = 0.0;      ///< summed work-span durations on this unit
    sim::Ticks idle = 0.0;      ///< traced interval minus busy
    double utilization = 0.0;   ///< busy / traced interval, in [0, 1]
    double work = 0.0;          ///< CPU-normalized ops completed on this unit
};

/// Observed-vs-predicted drift of one recursion-tree level (possibly
/// aggregated over several spans: CPU slice + GPU slice + finish phase).
struct LevelDrift {
    std::uint64_t level = SpanAttrs::kNoLevel;  ///< kNoLevel = the leaf sweep
    bool on_cpu = false;         ///< some span of this level ran on the CPU
    bool on_gpu = false;         ///< some span of this level ran on the GPU
    std::uint64_t tasks = 0;     ///< tasks executed (summed over spans)
    sim::Ticks observed = 0.0;   ///< summed span durations
    sim::Ticks predicted = 0.0;  ///< summed hpu::model prices
    double drift = 0.0;          ///< observed / predicted (1 = model-exact)
};

/// The derived report. All quantities come from span data alone (plus the
/// machine parameters and recurrence needed to price the model side). Over
/// a session of several runs, each of which starts at virtual 0, every
/// figure is an explicit aggregate: sums over all runs, divided by the
/// summed run-root durations.
struct UtilizationReport {
    sim::Ticks interval = 0.0;        ///< traced interval: summed run-root durations
    std::vector<UnitUtilization> units;  ///< cpu, gpu, link (in that order)
    double gpu_lane_occupancy = 0.0;  ///< time-weighted busy lanes / g
    double link_utilization = 0.0;    ///< link busy / interval
    double effective_bandwidth = 0.0; ///< words per tick while transferring
    double peak_bandwidth = 0.0;      ///< 1 / delta (0 when the link is free)
    double gpu_work_share = 0.0;      ///< GPU work / total work (paper's W_g share)
    std::uint64_t transfers = 0;      ///< transfer spans seen
    std::vector<LevelDrift> levels;   ///< execution order: leaves, then deepest level first

    /// Aligned tables (units + per-level drift) and the headline scalars.
    void print(std::ostream& os) const;
    std::string summary() const;
};

/// Derives the report. `rec` and `device_ops_multiplier` must describe the
/// algorithm that produced the trace (LevelAlgorithm::recurrence() /
/// ::device_ops_multiplier()); `hw` the machine it ran on. Each level span
/// is priced against its own run: the input size n is the run root's
/// `items` attribute, and the CPU core count the root's `cores` (see
/// trace::run_machine).
UtilizationReport derive_utilization(const TraceSession& session, const sim::HpuParams& hw,
                                     const model::Recurrence& rec,
                                     double device_ops_multiplier = 1.0);

}  // namespace hpu::trace
