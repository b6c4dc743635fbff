// Causal "what-if" profiler of hpu::obs (DESIGN.md §16): virtual-speedup
// experiments in the spirit of Coz, on the virtual clock.
//
// A critical-path report (obs/critpath.hpp) says which resource the
// makespan stands on; the what-if engine says what changing that resource
// would actually buy. One platform parameter at a time (g, γ, λ, δ or the
// worker count p) is scaled by a sweep of factors and the recorded span
// tree is replayed under the perturbed machine. Each work span (level,
// leaves, transfer, hook) scales by price(perturbed) / price(configured),
// both computed by the unit cost functions of sim/params.hpp from the
// span's recorded tasks, max_ops, items and ops; grouping spans (run,
// phases) re-place their children by the precedence the recorded schedule
// encodes — a child waits for every sibling that finished at or before its
// recorded start. Idle gaps the trace does not explain are preserved as
// recorded. The configured machine is the caller's, with the CPU core
// count the run root recorded (SpanAttrs::cores; older trace files without
// one keep the caller's).
//
// The replay reads the span tree, not a core::Plan: a trace loaded from
// disk (bench/traces/*.json) carries no Plan.
//
// Each curve reports predicted makespan vs scale factor; the ranked "top
// bottleneck" is the parameter whose improvement direction (faster GPU /
// more workers = up, cheaper link = down) buys the largest predicted gain.
// Replays of the unperturbed machine short-circuit to the recorded
// makespan, so a factor-1.0 point is bit-identical to the baseline.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/params.hpp"
#include "trace/span.hpp"

namespace hpu::obs {

/// The platform parameter a what-if experiment perturbs.
enum class WhatIfParam : std::uint8_t {
    kG,        ///< GPU lane count g
    kGamma,    ///< per-lane speed γ (clamped to ≤ 1 when scaled up)
    kLambda,   ///< link latency λ
    kDelta,    ///< link per-word cost δ
    kWorkers,  ///< CPU cores p
};

const char* to_string(WhatIfParam p) noexcept;

/// Parses "g" / "gamma" / "lambda" / "delta" / "p" / "workers"
/// (case-sensitive). Returns false on anything else.
bool parse_param(std::string_view name, WhatIfParam& out) noexcept;

/// True when improving this parameter means scaling it UP (more lanes,
/// faster lanes, more workers); false for the link costs.
bool improves_up(WhatIfParam p) noexcept;

/// The machine with one parameter scaled by `factor` (g and p round to at
/// least 1; γ clamps to 1).
sim::HpuParams perturb(const sim::HpuParams& hw, WhatIfParam p, double factor);

/// One point on a sensitivity curve.
struct WhatIfPoint {
    double factor = 1.0;
    sim::Ticks predicted = 0.0;
    double speedup = 1.0;  ///< baseline / predicted
};

/// Sensitivity of the makespan to one parameter.
struct WhatIfCurve {
    WhatIfParam param = WhatIfParam::kGamma;
    double configured = 0.0;      ///< the parameter's configured value
    double improve_factor = 2.0;  ///< the factor the gain is ranked at
    sim::Ticks improved = 0.0;    ///< predicted makespan at improve_factor
    double gain = 1.0;            ///< baseline / improved
    std::vector<WhatIfPoint> points;
};

struct WhatIfReport {
    bool attempted = false;
    sim::Ticks baseline = 0.0;  ///< recorded makespan
    std::vector<WhatIfCurve> curves;

    /// The ranked top bottleneck: the curve with the largest gain.
    /// nullptr when the report is empty.
    const WhatIfCurve* top() const noexcept;

    /// Sensitivity table plus the top-bottleneck line.
    void print(std::ostream& os) const;
    /// GitHub-markdown sensitivity matrix (params × factors, relative
    /// makespan) plus the top-bottleneck line.
    void print_markdown(std::ostream& os) const;
};

struct WhatIfOptions {
    std::vector<double> factors{0.25, 0.5, 1.0, 2.0, 4.0};
    std::vector<WhatIfParam> params{WhatIfParam::kG, WhatIfParam::kGamma,
                                    WhatIfParam::kLambda, WhatIfParam::kDelta,
                                    WhatIfParam::kWorkers};
};

/// Replays the run containing span `run_root` (kNoSpan = the first run) as
/// if the machine had been `perturbed` instead of `configured`; returns the
/// replayed makespan. Bit-identical to the recorded makespan when the two
/// parameter sets are equal on every priced field.
sim::Ticks reprice_run(const trace::TraceSession& session, trace::SpanId run_root,
                       const sim::HpuParams& configured, const sim::HpuParams& perturbed);

/// What-if over the run containing span `run_root` (kNoSpan = the first
/// run). Each curve perturbs `hw` with the run's recorded core count.
WhatIfReport what_if(const trace::TraceSession& session, trace::SpanId run_root,
                     const sim::HpuParams& hw, const WhatIfOptions& opts = {});

}  // namespace hpu::obs
