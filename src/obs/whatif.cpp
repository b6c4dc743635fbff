#include "obs/whatif.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <ostream>
#include <utility>

#include "util/table.hpp"

namespace hpu::obs {
namespace {

using trace::Span;
using trace::SpanId;
using trace::SpanKind;
using trace::TraceSession;

/// Every field the replay prices. Bitwise equality here lets a factor-1.0
/// replay short-circuit to the recorded makespan instead of re-deriving it
/// through non-associative float sums.
bool priced_equal(const sim::HpuParams& a, const sim::HpuParams& b) noexcept {
    return a.cpu.p == b.cpu.p && a.gpu.g == b.gpu.g && a.gpu.gamma == b.gpu.gamma &&
           a.link.lambda == b.link.lambda && a.link.delta == b.link.delta &&
           a.gpu.launch_overhead == b.gpu.launch_overhead;
}

/// What one work span costs on `hw`: the unit cost functions of
/// sim/params.hpp applied to the span's recorded shape. CPU levels carry no
/// working set, so cache contention is not re-priced.
sim::Ticks price_span(const Span& s, const sim::HpuParams& hw) {
    const bool gpu = s.unit == trace::Unit::kGpu;
    switch (s.kind) {
        case SpanKind::kTransfer: return hw.link.transfer_time(s.attrs.items);
        case SpanKind::kHook:
            return gpu ? hw.gpu.hook_time(s.attrs.ops) : hw.cpu.host_pass_time(s.attrs.ops);
        case SpanKind::kLevel:
        case SpanKind::kLeaves:
            return gpu ? hw.gpu.launch_time(s.attrs.tasks, s.attrs.max_ops)
                       : hw.cpu.level_time(s.attrs.tasks, s.attrs.max_ops);
        default: return 0.0;
    }
}

/// Precedence-preserving replay: re-prices work leaves and re-places every
/// grouping span's children, treating "sibling finished at or before my
/// recorded start" as a dependency. Slightly conservative for the eager
/// pipelined input stream (a chunk that merely happened to arrive early
/// becomes a dependency), exact for the serial and fork-join schedules.
struct Repricer {
    const TraceSession& session;
    const std::vector<std::vector<SpanId>>& ch;
    const sim::HpuParams& base;
    const sim::HpuParams& pert;
    sim::Ticks tol;

    sim::Ticks new_duration(SpanId id) const {
        const Span& sp = session.span(id);
        if (trace::is_work(sp)) {
            // Parameters a span does not touch scale it by exactly 1.0.
            const sim::Ticks b = price_span(sp, base);
            return b > 0.0 ? sp.duration() * (price_span(sp, pert) / b) : sp.duration();
        }
        std::vector<SpanId> kids;
        for (SpanId c : ch[id]) {
            if (session.span(c).kind != SpanKind::kWave) kids.push_back(c);
        }
        if (kids.empty()) return sp.duration();
        std::sort(kids.begin(), kids.end(), [&](SpanId a, SpanId b) {
            const Span& sa = session.span(a);
            const Span& sb = session.span(b);
            if (sa.start != sb.start) return sa.start < sb.start;
            return a < b;
        });
        // New child times are relative to the parent's new start (= 0).
        std::vector<sim::Ticks> new_end(kids.size(), 0.0);
        sim::Ticks max_new_end = 0.0;
        sim::Ticks max_orig_end = sp.start;
        for (std::size_t i = 0; i < kids.size(); ++i) {
            const Span& b = session.span(kids[i]);
            sim::Ticks pred_orig_end = sp.start;  // parent start bounds everyone
            sim::Ticks pred_new_end = 0.0;
            for (std::size_t j = 0; j < i; ++j) {
                const Span& a = session.span(kids[j]);
                if (a.end > b.start + tol) continue;  // overlapped: not a dependency
                pred_orig_end = std::max(pred_orig_end, a.end);
                pred_new_end = std::max(pred_new_end, new_end[j]);
            }
            sim::Ticks gap = b.start - pred_orig_end;
            if (gap < tol) gap = 0.0;  // also clamps tiny negatives
            new_end[i] = pred_new_end + gap + new_duration(kids[i]);
            max_new_end = std::max(max_new_end, new_end[i]);
            max_orig_end = std::max(max_orig_end, b.end);
        }
        sim::Ticks tail = sp.end - max_orig_end;
        if (tail < tol) tail = 0.0;
        return max_new_end + tail;
    }
};

double configured_value(const sim::HpuParams& hw, WhatIfParam p) noexcept {
    switch (p) {
        case WhatIfParam::kG: return static_cast<double>(hw.gpu.g);
        case WhatIfParam::kGamma: return hw.gpu.gamma;
        case WhatIfParam::kLambda: return hw.link.lambda;
        case WhatIfParam::kDelta: return hw.link.delta;
        case WhatIfParam::kWorkers: return static_cast<double>(hw.cpu.p);
    }
    return 0.0;
}

/// Fills improve_factor / improved / gain from the curve's points: the
/// point at the parameter's improvement factor when the sweep has it,
/// otherwise the best (minimum-makespan) point.
void rank_curve(WhatIfCurve& curve, sim::Ticks baseline) {
    if (curve.points.empty() || baseline <= 0.0) return;
    const double want = improves_up(curve.param) ? 2.0 : 0.5;
    const WhatIfPoint* at = nullptr;
    for (const WhatIfPoint& pt : curve.points) {
        if (std::abs(pt.factor - want) < 1e-12) at = &pt;
    }
    if (at == nullptr) {
        at = &*std::min_element(curve.points.begin(), curve.points.end(),
                                [](const WhatIfPoint& a, const WhatIfPoint& b) {
                                    return a.predicted < b.predicted;
                                });
    }
    curve.improve_factor = at->factor;
    curve.improved = at->predicted;
    curve.gain = at->predicted > 0.0 ? baseline / at->predicted : 1.0;
}

}  // namespace

const char* to_string(WhatIfParam p) noexcept {
    switch (p) {
        case WhatIfParam::kG: return "g";
        case WhatIfParam::kGamma: return "gamma";
        case WhatIfParam::kLambda: return "lambda";
        case WhatIfParam::kDelta: return "delta";
        case WhatIfParam::kWorkers: return "workers";
    }
    return "?";
}

bool parse_param(std::string_view name, WhatIfParam& out) noexcept {
    if (name == "g") out = WhatIfParam::kG;
    else if (name == "gamma") out = WhatIfParam::kGamma;
    else if (name == "lambda") out = WhatIfParam::kLambda;
    else if (name == "delta") out = WhatIfParam::kDelta;
    else if (name == "p" || name == "workers") out = WhatIfParam::kWorkers;
    else return false;
    return true;
}

bool improves_up(WhatIfParam p) noexcept {
    switch (p) {
        case WhatIfParam::kG:
        case WhatIfParam::kGamma:
        case WhatIfParam::kWorkers:
            return true;
        case WhatIfParam::kLambda:
        case WhatIfParam::kDelta:
            return false;
    }
    return true;
}

sim::HpuParams perturb(const sim::HpuParams& hw, WhatIfParam p, double factor) {
    sim::HpuParams out = hw;
    switch (p) {
        case WhatIfParam::kG:
            out.gpu.g = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       std::llround(static_cast<double>(hw.gpu.g) * factor)));
            break;
        case WhatIfParam::kGamma:
            out.gpu.gamma = std::min(1.0, hw.gpu.gamma * factor);
            break;
        case WhatIfParam::kLambda:
            out.link.lambda = hw.link.lambda * factor;
            break;
        case WhatIfParam::kDelta:
            out.link.delta = hw.link.delta * factor;
            break;
        case WhatIfParam::kWorkers:
            out.cpu.p = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::llround(static_cast<double>(hw.cpu.p) * factor)));
            break;
    }
    return out;
}

const WhatIfCurve* WhatIfReport::top() const noexcept {
    const WhatIfCurve* best = nullptr;
    for (const WhatIfCurve& c : curves) {
        if (best == nullptr || c.gain > best->gain) best = &c;
    }
    return best;
}

void WhatIfReport::print(std::ostream& os) const {
    if (!attempted) {
        os << "what-if: not attempted\n";
        return;
    }
    os << "what-if sensitivity (baseline " << baseline << " ticks):\n";
    util::Table t({"param", "configured", "factor", "predicted", "vs baseline"}, 4);
    for (const WhatIfCurve& c : curves) {
        for (const WhatIfPoint& pt : c.points) {
            t.add_row({std::string(to_string(c.param)), c.configured, pt.factor,
                       pt.predicted, baseline > 0.0 ? pt.predicted / baseline : 0.0});
        }
    }
    t.print(os);
    if (const WhatIfCurve* best = top()) {
        os << "top bottleneck: " << to_string(best->param) << " — x"
           << best->improve_factor << " buys " << best->gain << "x\n";
    }
}

void WhatIfReport::print_markdown(std::ostream& os) const {
    if (!attempted) {
        os << "**what-if**: not attempted\n";
        return;
    }
    os << "**what-if sensitivity** (predicted makespan relative to baseline "
       << baseline << " ticks):\n\n";
    // All curves share the sweep, so the matrix is params x factors.
    std::vector<double> factors;
    for (const WhatIfCurve& c : curves) {
        for (const WhatIfPoint& pt : c.points) {
            bool known = false;
            for (double f : factors) {
                if (std::abs(f - pt.factor) < 1e-12) known = true;
            }
            if (!known) factors.push_back(pt.factor);
        }
    }
    std::sort(factors.begin(), factors.end());
    os << "| param |";
    for (double f : factors) os << " x" << f << " |";
    os << " gain |\n|---|";
    for (std::size_t i = 0; i < factors.size(); ++i) os << "---|";
    os << "---|\n";
    for (const WhatIfCurve& c : curves) {
        os << "| " << to_string(c.param) << " |";
        for (double f : factors) {
            const WhatIfPoint* at = nullptr;
            for (const WhatIfPoint& pt : c.points) {
                if (std::abs(pt.factor - f) < 1e-12) at = &pt;
            }
            if (at == nullptr) {
                os << " - |";
            } else {
                os << " " << (baseline > 0.0 ? at->predicted / baseline : 0.0) << " |";
            }
        }
        os << " " << c.gain << "x |\n";
    }
    if (const WhatIfCurve* best = top()) {
        os << "\n**top bottleneck**: " << to_string(best->param) << " — x"
           << best->improve_factor << " buys " << best->gain << "x\n";
    }
}

sim::Ticks reprice_run(const trace::TraceSession& session, trace::SpanId run_root,
                       const sim::HpuParams& configured,
                       const sim::HpuParams& perturbed) {
    const SpanId root = trace::run_root(session, run_root);
    if (root == trace::kNoSpan) return 0.0;
    const Span& run = session.span(root);
    if (priced_equal(configured, perturbed)) return run.duration();
    const auto ch = trace::child_index(session);
    const sim::Ticks tol = 1e-9 * std::max(1.0, run.duration());
    return Repricer{session, ch, configured, perturbed, tol}.new_duration(root);
}

WhatIfReport what_if(const trace::TraceSession& session, trace::SpanId run_root,
                     const sim::HpuParams& hw, const WhatIfOptions& opts) {
    WhatIfReport rep;
    const SpanId root = trace::run_root(session, run_root);
    if (root == trace::kNoSpan) return rep;
    rep.attempted = true;
    rep.baseline = session.span(root).duration();
    const sim::HpuParams base = trace::run_machine(session.span(root), hw);
    for (WhatIfParam p : opts.params) {
        WhatIfCurve curve;
        curve.param = p;
        curve.configured = configured_value(base, p);
        for (double f : opts.factors) {
            WhatIfPoint pt;
            pt.factor = f;
            pt.predicted = reprice_run(session, root, base, perturb(base, p, f));
            pt.speedup = pt.predicted > 0.0 ? rep.baseline / pt.predicted : 1.0;
            curve.points.push_back(pt);
        }
        rank_curve(curve, rep.baseline);
        rep.curves.push_back(std::move(curve));
    }
    return rep;
}

}  // namespace hpu::obs
