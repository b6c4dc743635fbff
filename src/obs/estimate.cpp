#include "obs/estimate.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "util/math.hpp"
#include "util/table.hpp"

namespace hpu::obs {
namespace {

using trace::Span;
using trace::SpanId;
using trace::SpanKind;
using trace::TraceSession;
using trace::Unit;

/// Membership mask of `root`'s subtree (everything when root == kNoSpan).
/// Parents always precede children in a session, so one forward pass
/// resolves the chains.
std::vector<char> scope_mask(const TraceSession& session, SpanId root) {
    std::vector<char> in(session.spans().size() + 1, root == trace::kNoSpan ? 1 : 0);
    if (root != trace::kNoSpan) {
        for (const Span& s : session.spans()) {
            if (s.id == root || (s.parent != trace::kNoSpan && in[s.parent] != 0)) {
                in[s.id] = 1;
            }
        }
    }
    return in;
}

ParamEstimate make(const char* name, double configured) {
    ParamEstimate e;
    e.name = name;
    e.configured = configured;
    return e;
}

void settle(ParamEstimate& e) {
    if (!e.identifiable) {
        // Echo the configured value so downstream consumers always see a
        // usable number; drift stays 0 (== "no statement").
        e.estimated = e.configured;
        e.drift = 0.0;
        return;
    }
    e.drift = drift_ratio(e.estimated, e.configured);
}

}  // namespace

double ParamFit::worst_drift() const noexcept {
    double w = 0.0;
    for (const ParamEstimate* e : {&g, &gamma, &lambda, &delta}) {
        if (e->identifiable) w = std::max(w, std::abs(e->drift - 1.0));
    }
    return w;
}

void ParamFit::print(std::ostream& os) const {
    util::Table t({"param", "configured", "estimated", "drift", "samples", "identifiable"}, 6);
    for (const ParamEstimate* e : {&g, &gamma, &lambda, &delta}) {
        t.add_row({e->name, e->configured, e->estimated, e->drift,
                   static_cast<std::int64_t>(e->samples),
                   std::string(e->identifiable ? "yes" : "no")});
    }
    t.print(os);
}

ParamFit estimate_params(const TraceSession& session, const sim::HpuParams& configured,
                         SpanId root) {
    ParamFit fit;
    fit.g = make("g", static_cast<double>(configured.gpu.g));
    fit.gamma = make("gamma", configured.gpu.gamma);
    fit.lambda = make("lambda", configured.link.lambda);
    fit.delta = make("delta", configured.link.delta);

    const std::vector<char> in = scope_mask(session, root);

    // Sample pools. Wave spans are the high-resolution source (functional
    // runs); gpu level spans are the coarse fallback (analytic runs).
    std::uint64_t wave_max_items = 0;
    std::size_t wave_count = 0;
    double gamma_num = 0.0, gamma_den = 0.0;  // through-origin LS accumulators
    std::uint64_t level_g_bound = 0;
    std::size_t level_count = 0;
    bool gpu_saturated = false;  ///< some level needed more than one wave
    struct LevelPoint {
        double x = 0.0;  ///< waves · max_ops
        double t = 0.0;
    };
    std::vector<LevelPoint> level_points;
    struct TransferPoint {
        double w = 0.0;  ///< words
        double t = 0.0;
    };
    std::vector<TransferPoint> transfers;

    for (const Span& s : session.spans()) {
        if (in[s.id] == 0) continue;
        if (s.kind == SpanKind::kWave && s.unit == Unit::kGpu) {
            wave_max_items = std::max(wave_max_items, s.attrs.items);
            if (s.duration() > 0.0 && s.attrs.max_ops > 0.0) {
                gamma_num += s.duration() * s.attrs.max_ops;
                gamma_den += s.duration() * s.duration();
                ++wave_count;
            }
            continue;
        }
        if ((s.kind == SpanKind::kLevel || s.kind == SpanKind::kLeaves) &&
            s.unit == Unit::kGpu && s.attrs.waves > 0 && s.attrs.items > 0) {
            level_g_bound =
                std::max(level_g_bound, util::ceil_div(s.attrs.items, s.attrs.waves));
            ++level_count;
            gpu_saturated |= s.attrs.waves >= 2;
            if (s.attrs.max_ops > 0.0) {
                level_points.push_back(
                    {static_cast<double>(s.attrs.waves) * s.attrs.max_ops, s.duration()});
            }
            continue;
        }
        if (s.kind == SpanKind::kTransfer && s.attrs.items > 0) {
            transfers.push_back({static_cast<double>(s.attrs.items), s.duration()});
        }
    }

    // --- g: the largest wave is g once the device saturated; the level
    // fallback ceil(items/waves) is a lower bound (tight for even splits).
    // Saturation is the identifiability gate: with every level fitting in
    // one wave the run only proves g >= max items — echoing that as an
    // estimate would flag "drift" on any run too small to fill the lanes.
    if (gpu_saturated && wave_max_items > 0) {
        fit.g.estimated = static_cast<double>(wave_max_items);
        fit.g.samples = wave_count > 0 ? wave_count : 1;
        fit.g.identifiable = true;
    } else if (gpu_saturated && level_g_bound > 0) {
        fit.g.estimated = static_cast<double>(level_g_bound);
        fit.g.samples = level_count;
        fit.g.identifiable = true;
    }
    settle(fit.g);

    // --- γ: wave duration = max_ops / γ exactly, so fit max_ops = γ·d
    // through the origin. Fallback: level spans fit t = a + x/γ with
    // x = waves·max_ops and a free intercept absorbing launch overhead.
    if (wave_count > 0 && gamma_den > 0.0) {
        fit.gamma.estimated = gamma_num / gamma_den;
        fit.gamma.samples = wave_count;
        fit.gamma.identifiable = true;
    } else if (!level_points.empty()) {
        const auto n = static_cast<double>(level_points.size());
        double sx = 0.0, st = 0.0, sxx = 0.0, sxt = 0.0;
        for (const LevelPoint& p : level_points) {
            sx += p.x;
            st += p.t;
            sxx += p.x * p.x;
            sxt += p.x * p.t;
        }
        const double det = n * sxx - sx * sx;
        if (det > 0.0) {
            const double slope = (n * sxt - sx * st) / det;
            if (slope > 0.0) {
                fit.gamma.estimated = 1.0 / slope;
                fit.gamma.samples = level_points.size();
                fit.gamma.identifiable = true;
            }
        } else {
            // One distinct abscissa: subtract the configured launch
            // overhead instead of fitting it.
            const double t = st / n - configured.gpu.launch_overhead;
            if (t > 0.0) {
                fit.gamma.estimated = (sx / n) / t;
                fit.gamma.samples = level_points.size();
                fit.gamma.identifiable = true;
            }
        }
    }
    settle(fit.gamma);

    // --- λ, δ: ordinary least squares over (words, duration). Two distinct
    // transfer sizes separate intercept from slope; with one size the
    // residual goes to λ and both parameters are flagged non-identifiable.
    if (!transfers.empty()) {
        const auto n = static_cast<double>(transfers.size());
        double sw = 0.0, st = 0.0, sww = 0.0, swt = 0.0;
        for (const TransferPoint& p : transfers) {
            sw += p.w;
            st += p.t;
            sww += p.w * p.w;
            swt += p.w * p.t;
        }
        const double det = n * sww - sw * sw;
        if (det > 0.0) {
            const double slope = (n * swt - sw * st) / det;
            fit.delta.estimated = slope;
            fit.lambda.estimated = (st - slope * sw) / n;
            fit.delta.identifiable = true;
            fit.lambda.identifiable = true;
        } else {
            fit.delta.estimated = configured.link.delta;
            fit.lambda.estimated = st / n - configured.link.delta * (sw / n);
        }
        fit.lambda.samples = transfers.size();
        fit.delta.samples = transfers.size();
    }
    settle(fit.lambda);
    settle(fit.delta);
    return fit;
}

}  // namespace hpu::obs
