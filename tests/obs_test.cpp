// hpu::obs tests: self-diff exactness across every algorithm × executor,
// trace-diff attribution of the basic-vs-advanced gain to the gpu-phase
// spans, structural (one-sided) handling, online (g, γ, λ, δ) re-fit —
// including the mis-calibrated scenario where a run simulated on a
// perturbed HPU1 is estimated against configured HPU2 and recovers the true
// parameters within 5% — watchdog findings, zero-perturbation of observe
// mode, Chrome-trace re-import round-trips, and the hpu_obs_* gauges.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "algos/binary_reduce.hpp"
#include "algos/mergesort.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "model/advanced.hpp"
#include "obs/diff.hpp"
#include "obs/estimate.hpp"
#include "obs/trace_io.hpp"
#include "obs/watchdog.hpp"
#include "obs/whatif.hpp"
#include "platforms/platforms.hpp"
#include "trace/export.hpp"
#include "util/rng.hpp"

namespace hpu::core {
namespace {

std::vector<std::int32_t> random_input(std::uint64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
}

/// Runs one executor twice (fresh machines, same data) and returns the two
/// traces' diff — deterministic executors must produce an exactly empty one.
template <typename Go>
obs::TraceDiff rerun_diff(bool functional, Go&& go) {
    const std::uint64_t n = 1 << 10;
    trace::TraceSession a, b;
    for (trace::TraceSession* s : {&a, &b}) {
        ExecOptions opts;
        opts.functional = functional;
        opts.trace = s;
        auto data = random_input(n, 33);
        go(std::span(data), opts);
    }
    return obs::diff_traces(a, b);
}

template <typename Alg>
void expect_self_diff_empty(const Alg& alg, bool functional) {
    const std::string tag =
        alg.name() + (functional ? "/functional" : "/analytic");
    const auto check = [&](const char* executor, auto&& go) {
        const obs::TraceDiff d = rerun_diff(functional, go);
        EXPECT_TRUE(d.identical(0.0)) << tag << "/" << executor;
        EXPECT_EQ(d.delta(), 0.0) << tag << "/" << executor;
        EXPECT_EQ(d.structural, 0u) << tag << "/" << executor;
        EXPECT_TRUE(d.explain(5).empty()) << tag << "/" << executor;
    };
    check("sequential", [](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::CpuUnit cpu(platforms::hpu1().cpu);
        algos::MergesortCoalesced<std::int32_t> a;
        return run_sequential(cpu, a, d, o);
    });
    check("multicore", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::CpuUnit cpu(platforms::hpu1().cpu);
        return run_multicore(cpu, alg, d, o);
    });
    check("gpu", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::Hpu h(platforms::hpu1());
        return run_gpu(h, alg, d, o);
    });
    check("basic-hybrid", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::Hpu h(platforms::hpu1());
        return run_basic_hybrid(h, alg, d, o);
    });
    check("advanced-hybrid", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::Hpu h(platforms::hpu1());
        AdvancedOptions adv;
        adv.exec = o;
        return run_advanced_hybrid(h, alg, d, 0.2, 7, adv);
    });
    check("pipelined-hybrid", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::Hpu h(platforms::hpu1());
        PipelinedOptions pip;
        pip.exec = o;
        return run_pipelined_hybrid(h, alg, d, 0.2, 7, pip);
    });
}

TEST(SelfDiff, EmptyForMergesortPlainAllExecutors) {
    algos::MergesortPlain<std::int32_t> alg;
    expect_self_diff_empty(alg, /*functional=*/true);
    expect_self_diff_empty(alg, /*functional=*/false);
}

TEST(SelfDiff, EmptyForMergesortCoalescedAllExecutors) {
    algos::MergesortCoalesced<std::int32_t> alg;
    expect_self_diff_empty(alg, /*functional=*/true);
}

TEST(SelfDiff, EmptyForSumAllExecutors) {
    const auto alg = algos::make_sum<std::int32_t>();
    expect_self_diff_empty(alg, /*functional=*/true);
}

// ---------------------------------------------------------------------------
// Attribution on a real regression-shaped comparison: the advanced hybrid's
// gain over the basic hybrid at lg n = 24 must be charged to gpu-phase
// spans (smaller transfers + fewer device levels), with the executor shape
// change reported as structural entries, not errors.

TEST(Diff, BasicVsAdvancedAttributesGainToGpuPhase) {
    const std::uint64_t n = 1ull << 24;
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(1);  // analytic mode never touches data

    trace::TraceSession basic, advanced;
    ExecOptions opts;
    opts.functional = false;
    {
        sim::Hpu h(platforms::hpu1());
        opts.trace = &basic;
        std::span<std::int32_t> d(dummy.data(), n);
        run_basic_hybrid(h, alg, d, opts);
    }
    {
        sim::Hpu h(platforms::hpu1());
        model::AdvancedModel m(h.params(), alg.recurrence(), static_cast<double>(n));
        const model::AdvancedPrediction plan = m.optimize();
        const auto L = static_cast<std::uint64_t>(util::ilog2(n));
        const auto y = std::min(
            L, std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(plan.y))));
        opts.trace = &advanced;
        AdvancedOptions adv;
        adv.exec = opts;
        std::span<std::int32_t> d(dummy.data(), n);
        run_advanced_hybrid(h, alg, d, plan.alpha, y, adv);
    }

    const obs::TraceDiff d = obs::diff_traces(basic, advanced);
    EXPECT_LT(d.delta(), 0.0);  // the advanced hybrid is faster
    EXPECT_FALSE(d.identical(0.0));
    // The executors differ in shape (cpu-levels vs cpu-parallel/finish) —
    // reported as structural subtrees.
    EXPECT_GT(d.structural, 0u);
    // The executor shape swap dominates, but the gpu-phase rebalancing
    // (shifted cutoff level, smaller transfers) must rank among the top
    // divergences right behind it.
    const auto top = d.explain(8);
    ASSERT_FALSE(top.empty());
    bool gpu_phase_in_top = false;
    for (const obs::DiffEntry* e : top) {
        if (e->path.find("gpu-phase") != std::string::npos) gpu_phase_in_top = true;
    }
    EXPECT_TRUE(gpu_phase_in_top)
        << "top divergence paths: " << top[0]->path
        << (top.size() > 1 ? ", " + top[1]->path : "");

    // Both renderers accept the diff.
    std::ostringstream human, md;
    d.print(human);
    d.print_markdown(md);
    EXPECT_NE(human.str().find("trace diff"), std::string::npos);
    EXPECT_NE(md.str().find("| span |"), std::string::npos);
}

TEST(Diff, SelfDeltaChargesTheDivergingChildNotTheParent) {
    trace::TraceSession base, cand;
    trace::SpanAttrs a;
    const auto pb = base.record(trace::SpanKind::kRun, trace::Unit::kHost, "r", 0.0, 100.0, a);
    base.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "child", 0.0, 40.0, a, pb);
    const auto pc = cand.record(trace::SpanKind::kRun, trace::Unit::kHost, "r", 0.0, 120.0, a);
    cand.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "child", 0.0, 60.0, a, pc);

    const obs::TraceDiff d = obs::diff_traces(base, cand);
    ASSERT_EQ(d.entries.size(), 2u);
    EXPECT_EQ(d.entries[0].delta, 20.0);
    EXPECT_EQ(d.entries[0].self_delta, 0.0);  // the regression is born below
    EXPECT_EQ(d.entries[1].delta, 20.0);
    EXPECT_EQ(d.entries[1].self_delta, 20.0);
    const auto top = d.explain(5);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0]->label, "child");
}

TEST(Diff, OneSidedSubtreeIsStructuralNotError) {
    trace::TraceSession base, cand;
    trace::SpanAttrs a;
    const auto pb = base.record(trace::SpanKind::kRun, trace::Unit::kHost, "r", 0.0, 100.0, a);
    base.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "only-in-base", 0.0, 30.0, a, pb);
    cand.record(trace::SpanKind::kRun, trace::Unit::kHost, "r", 0.0, 70.0, a);

    const obs::TraceDiff d = obs::diff_traces(base, cand);
    EXPECT_EQ(d.structural, 1u);
    EXPECT_FALSE(d.identical(0.0));
    bool found = false;
    for (const obs::DiffEntry& e : d.entries) {
        if (e.side == obs::DiffSide::kBaseOnly) {
            found = true;
            EXPECT_EQ(e.delta, -30.0);  // removed subtree charged as a signed delta
            EXPECT_EQ(e.self_delta, -30.0);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Diff, SplitSiblingGroupsAggregateByKey) {
    // One side records a level as one span, the other as two with the same
    // canonical label: counts differ, ticks agree, no structural entry.
    trace::TraceSession base, cand;
    trace::SpanAttrs a;
    a.level = 3;
    trace::SpanAttrs root_a;
    const auto pb =
        base.record(trace::SpanKind::kRun, trace::Unit::kHost, "r", 0.0, 50.0, root_a);
    base.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "ms/cpu-level[8 tasks]", 0.0,
                50.0, a, pb);
    const auto pc =
        cand.record(trace::SpanKind::kRun, trace::Unit::kHost, "r", 0.0, 50.0, root_a);
    cand.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "ms/cpu-level[5 tasks]", 0.0,
                30.0, a, pc);
    cand.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "ms/cpu-level[3 tasks]", 30.0,
                20.0, a, pc);

    const obs::TraceDiff d = obs::diff_traces(base, cand);
    EXPECT_EQ(d.structural, 0u);
    ASSERT_EQ(d.entries.size(), 2u);
    EXPECT_EQ(d.entries[1].base_spans, 1u);
    EXPECT_EQ(d.entries[1].cand_spans, 2u);
    EXPECT_EQ(d.entries[1].delta, 0.0);
    // Count change alone breaks identical(), but carries no tick delta.
    EXPECT_FALSE(d.identical(0.0));
}

// ---------------------------------------------------------------------------
// Online parameter estimation.

/// HPU1 with a perturbed link: the "true machine" of the mis-calibration
/// scenario (DESIGN.md §13).
sim::HpuParams perturbed_hpu1() {
    sim::HpuParams hw = platforms::hpu1();
    hw.link.lambda = 2500.0;
    hw.link.delta = 1.7;
    return hw;
}

TEST(Estimate, RecoversTruePlatformFromMisCalibratedConfig) {
    // Simulate on the true machine (perturbed HPU1), estimate against the
    // mis-calibrated HPU2 config; two input sizes give the two distinct
    // transfer sizes λ/δ need.
    const sim::HpuParams truth = perturbed_hpu1();
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(1);
    trace::TraceSession session;
    ExecOptions opts;
    opts.functional = false;
    opts.trace = &session;
    for (const std::uint64_t n : {1ull << 15, 1ull << 14}) {
        sim::Hpu h(truth);
        std::span<std::int32_t> d(dummy.data(), n);
        run_gpu(h, alg, d, opts);
    }

    const obs::ParamFit fit = obs::estimate_params(session, platforms::hpu2());
    for (const obs::ParamEstimate* e : {&fit.g, &fit.gamma, &fit.lambda, &fit.delta}) {
        EXPECT_TRUE(e->identifiable) << e->name;
        EXPECT_GT(e->samples, 0u) << e->name;
    }
    EXPECT_NEAR(fit.g.estimated, static_cast<double>(truth.gpu.g),
                0.05 * static_cast<double>(truth.gpu.g));
    EXPECT_NEAR(fit.gamma.estimated, truth.gpu.gamma, 0.05 * truth.gpu.gamma);
    EXPECT_NEAR(fit.lambda.estimated, truth.link.lambda, 0.05 * truth.link.lambda);
    EXPECT_NEAR(fit.delta.estimated, truth.link.delta, 0.05 * truth.link.delta);
    // And the drift vs HPU2 is large — this IS a mis-calibration.
    EXPECT_GT(fit.worst_drift(), 0.25);

    std::ostringstream os;
    fit.print(os);
    EXPECT_NE(os.str().find("gamma"), std::string::npos);
}

TEST(Estimate, FunctionalWaveSpansPinDownGandGamma) {
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 13, 5);
    trace::TraceSession session;
    ExecOptions opts;
    opts.trace = &session;
    sim::Hpu h(platforms::hpu1());
    run_gpu(h, alg, std::span(data), opts);

    const obs::ParamFit fit = obs::estimate_params(session, platforms::hpu1());
    EXPECT_TRUE(fit.g.identifiable);
    EXPECT_TRUE(fit.gamma.identifiable);
    EXPECT_NEAR(fit.g.drift, 1.0, 1e-9);
    EXPECT_NEAR(fit.gamma.drift, 1.0, 1e-9);
    // One input size = one transfer word count: λ/δ cannot be separated.
    EXPECT_FALSE(fit.lambda.identifiable);
    EXPECT_FALSE(fit.delta.identifiable);
    EXPECT_EQ(fit.lambda.drift, 0.0);
    EXPECT_EQ(fit.delta.drift, 0.0);
}

TEST(Estimate, UnderfilledDeviceLeavesGNonIdentifiable) {
    // A run too small to ever fill the lanes (max items 512 on g = 4096:
    // every level is one wave) only proves g >= 512. The estimator must
    // not present that lower bound as a drifted estimate.
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 10, 11);
    trace::TraceSession session;
    ExecOptions opts;
    opts.trace = &session;
    opts.observe = true;
    opts.watchdog.gpu_occupancy_floor = 0.0;
    sim::Hpu h(platforms::hpu1());
    const ExecReport rep = run_gpu(h, alg, std::span(data), opts);

    const obs::ParamFit fit = obs::estimate_params(session, platforms::hpu1());
    EXPECT_FALSE(fit.g.identifiable);
    EXPECT_EQ(fit.g.estimated, fit.g.configured);
    EXPECT_EQ(fit.g.drift, 0.0);
    // γ is still pinned by the wave durations.
    EXPECT_TRUE(fit.gamma.identifiable);
    EXPECT_NEAR(fit.gamma.drift, 1.0, 1e-9);
    // And the embedded watchdog must not cry param drift on the small run.
    ASSERT_TRUE(rep.obs.attempted);
    for (const obs::ObsFinding& f : rep.obs.findings) {
        EXPECT_NE(f.kind, obs::FindingKind::kParamDrift) << f.message;
    }
}

TEST(Estimate, CpuOnlyTraceLeavesEverythingNonIdentifiable) {
    algos::MergesortPlain<std::int32_t> alg;
    auto data = random_input(1 << 10, 7);
    trace::TraceSession session;
    ExecOptions opts;
    opts.trace = &session;
    sim::CpuUnit cpu(platforms::hpu1().cpu);
    run_multicore(cpu, alg, std::span(data), opts);

    const obs::ParamFit fit = obs::estimate_params(session, platforms::hpu1());
    for (const obs::ParamEstimate* e : {&fit.g, &fit.gamma, &fit.lambda, &fit.delta}) {
        EXPECT_FALSE(e->identifiable) << e->name;
        EXPECT_EQ(e->estimated, e->configured) << e->name;
        EXPECT_EQ(e->drift, 0.0) << e->name;
    }
    EXPECT_EQ(fit.worst_drift(), 0.0);
}

// ---------------------------------------------------------------------------
// Watchdog.

TEST(Watchdog, FiresParamDriftOnMisCalibratedConfig) {
    const sim::HpuParams truth = perturbed_hpu1();
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(1);
    trace::TraceSession session;
    ExecOptions opts;
    opts.functional = false;
    opts.trace = &session;
    for (const std::uint64_t n : {1ull << 15, 1ull << 14}) {
        sim::Hpu h(truth);
        std::span<std::int32_t> d(dummy.data(), n);
        run_gpu(h, alg, d, opts);
    }

    obs::ObserveContext ctx;
    ctx.hw = platforms::hpu2();  // mis-calibrated view of the machine
    ctx.rec = alg.recurrence();
    ctx.device_ops_multiplier = alg.device_ops_multiplier(ctx.hw.gpu);
    const obs::ObsReport rep = obs::observe(session, trace::kNoSpan, ctx);
    ASSERT_TRUE(rep.attempted);
    std::size_t drift_findings = 0;
    for (const obs::ObsFinding& f : rep.findings) {
        if (f.kind == obs::FindingKind::kParamDrift) ++drift_findings;
    }
    EXPECT_GE(drift_findings, 2u);  // at least g and γ are far off HPU2
    EXPECT_FALSE(rep.clean());

    std::ostringstream os;
    rep.print(os);
    EXPECT_NE(os.str().find("param-drift"), std::string::npos);
}

TEST(Watchdog, PipelineFallbackAndPoolFindings) {
    trace::TraceSession session;
    trace::SpanAttrs a;
    session.record(trace::SpanKind::kRun, trace::Unit::kHost, "x/run", 0.0, 10.0, a);

    obs::ObserveContext ctx;
    ctx.hw = platforms::hpu1();
    ctx.requested_chunks = 4;
    ctx.settled_chunks = 1;
    util::PoolTelemetry pool;
    pool.workers = 2;
    pool.window_ns = 1'000'000'000;
    pool.per_worker.resize(3);
    pool.per_worker[0].busy_ns = 1'000'000;  // 0.1% busy: collapse
    util::Log2Histogram lat;
    lat.record(200'000'000);  // one 200ms submit latency
    pool.submit_latency_ns = lat.snapshot();
    ctx.pool = pool;

    const obs::ObsReport rep = obs::observe(session, trace::kNoSpan, ctx);
    ASSERT_TRUE(rep.attempted);
    bool fallback = false, inefficiency = false, latency = false;
    for (const obs::ObsFinding& f : rep.findings) {
        fallback |= f.kind == obs::FindingKind::kPipelineFallback;
        inefficiency |= f.kind == obs::FindingKind::kPoolInefficiency;
        latency |= f.kind == obs::FindingKind::kSubmitLatency;
    }
    EXPECT_TRUE(fallback);
    EXPECT_TRUE(inefficiency);
    EXPECT_TRUE(latency);
}

TEST(Watchdog, GpuOnlyMergesortShowsLaneCollapse) {
    // The gpu-only executor runs the shallow levels (few huge tasks) on
    // thousands of idle lanes — the occupancy finding is the §6.4 argument
    // for the hybrid schedulers, observed automatically.
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(1);
    trace::TraceSession session;
    ExecOptions opts;
    opts.functional = false;
    opts.trace = &session;
    opts.observe = true;
    sim::Hpu h(platforms::hpu1());
    std::span<std::int32_t> d(dummy.data(), std::uint64_t{1} << 15);
    const ExecReport rep = run_gpu(h, alg, d, opts);
    ASSERT_TRUE(rep.obs.attempted);
    bool collapse = false;
    for (const obs::ObsFinding& f : rep.obs.findings) {
        collapse |= f.kind == obs::FindingKind::kGpuCollapse;
    }
    EXPECT_TRUE(collapse);
    // The machine is self-consistent, so no parameter may drift.
    for (const obs::ObsFinding& f : rep.obs.findings) {
        EXPECT_NE(f.kind, obs::FindingKind::kParamDrift) << f.message;
    }
}

// ---------------------------------------------------------------------------
// Zero-perturbation: observe on vs off is bit-identical everywhere else.

TEST(Observe, DoesNotPerturbReportTraceOrData) {
    algos::MergesortCoalesced<std::int32_t> alg;
    const auto base = random_input(1 << 12, 77);

    const auto go = [&](bool observe, trace::TraceSession& session,
                        std::vector<std::int32_t>& data) {
        sim::Hpu h(platforms::hpu1());
        ExecOptions opts;
        opts.trace = &session;
        opts.observe = observe;
        AdvancedOptions adv;
        adv.exec = opts;
        return run_advanced_hybrid(h, alg, std::span(data), 0.2, 8, adv);
    };

    trace::TraceSession s_off, s_on;
    auto d_off = base;
    auto d_on = base;
    const ExecReport off = go(false, s_off, d_off);
    const ExecReport on = go(true, s_on, d_on);

    EXPECT_FALSE(off.obs.attempted);
    EXPECT_TRUE(on.obs.attempted);
    EXPECT_EQ(off.total, on.total);
    EXPECT_EQ(off.cpu_busy, on.cpu_busy);
    EXPECT_EQ(off.gpu_busy, on.gpu_busy);
    EXPECT_EQ(off.transfer, on.transfer);
    EXPECT_EQ(off.finish, on.finish);
    EXPECT_EQ(off.alpha_effective, on.alpha_effective);
    EXPECT_EQ(d_off, d_on);
    // The trace itself is untouched: the two sessions diff empty.
    EXPECT_TRUE(obs::diff_traces(s_off, s_on).identical(0.0));
}

TEST(Observe, RequiresATraceSession) {
    algos::MergesortPlain<std::int32_t> alg;
    auto data = random_input(1 << 10, 3);
    sim::CpuUnit cpu(platforms::hpu1().cpu);
    ExecOptions opts;
    opts.observe = true;  // no trace attached: observe is a no-op
    const ExecReport rep = run_multicore(cpu, alg, std::span(data), opts);
    EXPECT_FALSE(rep.obs.attempted);
}

// ---------------------------------------------------------------------------
// Metrics publication.

TEST(PublishObs, GaugesAppearInSnapshot) {
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(1);
    trace::TraceSession session;
    ExecOptions opts;
    opts.functional = false;
    opts.trace = &session;
    opts.observe = true;
    sim::Hpu h(platforms::hpu1());
    std::span<std::int32_t> d(dummy.data(), std::uint64_t{1} << 14);
    const ExecReport rep = run_gpu(h, alg, d, opts);
    ASSERT_TRUE(rep.obs.attempted);

    metrics::RegistrySnapshot snap;
    obs::publish_obs(snap, rep.obs);
    std::vector<std::string> names;
    names.reserve(snap.gauges.size());
    for (const auto& g : snap.gauges) names.push_back(g.name);
    for (const char* expected :
         {"hpu_obs_attempted", "hpu_obs_findings", "hpu_obs_drift_g", "hpu_obs_drift_gamma",
          "hpu_obs_drift_lambda", "hpu_obs_drift_delta", "hpu_obs_worst_drift",
          "hpu_obs_gpu_lane_occupancy", "hpu_obs_gpu_work_share"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
    }
}

// ---------------------------------------------------------------------------
// Trace re-import and subtree extraction.

TEST(TraceIo, ChromeRoundTripPreservesVirtualAndWall) {
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 12, 13);
    trace::TraceSession session;
    ExecOptions opts;
    opts.trace = &session;
    opts.profile = true;
    sim::Hpu h(platforms::hpu1());
    AdvancedOptions adv;
    adv.exec = opts;
    run_advanced_hybrid(h, alg, std::span(data), 0.2, 8, adv);

    std::ostringstream os;
    trace::export_chrome(session, os);
    std::istringstream is(os.str());
    const obs::LoadedTrace loaded = obs::parse_chrome_trace(is);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    ASSERT_EQ(loaded.session.spans().size(), session.spans().size());

    // Virtual side: exactly identical (the exporter prints max_digits10).
    EXPECT_TRUE(obs::diff_traces(session, loaded.session).identical(0.0));

    // Wall side: durations survive verbatim; starts come back rebased to
    // the session epoch.
    std::uint64_t epoch = ~std::uint64_t{0};
    for (const trace::Span& s : session.spans()) {
        if (s.wall_ns != 0) epoch = std::min(epoch, s.wall_start_ns);
    }
    ASSERT_NE(epoch, ~std::uint64_t{0}) << "profiled run must stamp wall time";
    for (const trace::Span& s : session.spans()) {
        const trace::Span& l = loaded.session.span(s.id);
        EXPECT_EQ(l.wall_ns, s.wall_ns) << s.label;
        if (s.wall_ns != 0) {
            EXPECT_EQ(l.wall_start_ns, s.wall_start_ns - epoch) << s.label;
        }
        EXPECT_EQ(l.attrs.items, s.attrs.items) << s.label;
        EXPECT_EQ(l.attrs.waves, s.attrs.waves) << s.label;
        EXPECT_EQ(l.attrs.max_ops, s.attrs.max_ops) << s.label;
    }
}

TEST(TraceIo, ChromeRoundTripKeepsRunCores) {
    // Each run root records the core count its plan priced with; the
    // re-imported session carries it, so what-if prices both alike.
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(1 << 14);
    const sim::HpuParams hw = platforms::hpu1();
    sim::Hpu h(hw);
    trace::TraceSession session;
    ExecOptions opts;
    opts.functional = false;
    opts.trace = &session;
    run_sequential(h.cpu(), alg, std::span(dummy), opts);
    run_multicore(h.cpu(), alg, std::span(dummy), opts);
    AdvancedOptions adv;
    adv.exec = opts;
    run_advanced_hybrid(h, alg, std::span(dummy), 0.25, 6, adv);
    const std::vector<trace::SpanId> roots = session.children(trace::kNoSpan);
    ASSERT_EQ(roots.size(), 3u);
    EXPECT_EQ(session.span(roots[0]).attrs.cores, 1u);
    EXPECT_EQ(session.span(roots[1]).attrs.cores, hw.cpu.p);
    EXPECT_EQ(session.span(roots[2]).attrs.cores, hw.cpu.p);

    std::ostringstream os;
    trace::export_chrome(session, os);
    std::istringstream is(os.str());
    const obs::LoadedTrace loaded = obs::parse_chrome_trace(is);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    ASSERT_EQ(loaded.session.spans().size(), session.spans().size());
    for (const trace::Span& s : session.spans()) {
        EXPECT_EQ(loaded.session.span(s.id).attrs.cores, s.attrs.cores) << s.label;
    }
    for (trace::SpanId root : roots) {
        const obs::WhatIfReport a = obs::what_if(session, root, hw);
        const obs::WhatIfReport b = obs::what_if(loaded.session, root, hw);
        EXPECT_EQ(b.baseline, a.baseline);
        ASSERT_EQ(b.curves.size(), a.curves.size());
        for (std::size_t i = 0; i < a.curves.size(); ++i) {
            EXPECT_EQ(b.curves[i].configured, a.curves[i].configured);
            ASSERT_EQ(b.curves[i].points.size(), a.curves[i].points.size());
            for (std::size_t j = 0; j < a.curves[i].points.size(); ++j) {
                EXPECT_EQ(b.curves[i].points[j].predicted, a.curves[i].points[j].predicted);
            }
        }
    }
}

TEST(TraceIo, ParseRejectsGarbage) {
    std::istringstream not_json("this is not json");
    EXPECT_FALSE(obs::parse_chrome_trace(not_json).ok());
    std::istringstream no_events("{\"foo\": 1}");
    EXPECT_FALSE(obs::parse_chrome_trace(no_events).ok());
    // A count that is negative, fractional or past 2^64 is a named error.
    for (const char* cores : {"-4", "2.5", "1e30"}) {
        std::istringstream bad_count(
            std::string("{\"traceEvents\": [{\"ph\": \"M\", \"name\": \"thread_name\", "
                        "\"tid\": 0, \"args\": {\"name\": \"host\"}}, {\"ph\": \"X\", "
                        "\"name\": \"run\", \"cat\": \"run\", \"tid\": 0, \"ts\": 0, "
                        "\"dur\": 1, \"args\": {\"span_id\": 1, \"parent\": 0, \"cores\": ") +
            cores + "}}]}");
        const obs::LoadedTrace t = obs::parse_chrome_trace(bad_count);
        EXPECT_FALSE(t.ok()) << cores;
        EXPECT_NE(t.error.find("cores"), std::string::npos) << t.error;
    }
}

TEST(TraceIo, CopySubtreeExtractsOneRunOfMany) {
    algos::MergesortPlain<std::int32_t> alg;
    trace::TraceSession session;
    ExecOptions opts;
    opts.trace = &session;
    auto d1 = random_input(1 << 10, 1);
    auto d2 = random_input(1 << 11, 2);
    sim::CpuUnit cpu(platforms::hpu1().cpu);
    run_multicore(cpu, alg, std::span(d1), opts);
    const std::size_t after_first = session.spans().size();
    run_multicore(cpu, alg, std::span(d2), opts);

    // The second run's root is the first span recorded after the first run.
    const auto root2 = static_cast<trace::SpanId>(after_first + 1);
    ASSERT_EQ(session.span(root2).kind, trace::SpanKind::kRun);
    const trace::TraceSession sub = obs::copy_subtree(session, root2);
    EXPECT_EQ(sub.spans().size(), session.spans().size() - after_first);
    EXPECT_EQ(sub.span(1).parent, trace::kNoSpan);
    EXPECT_EQ(sub.span(1).label, session.span(root2).label);

    // The extracted subtree matches a fresh single-run session exactly.
    trace::TraceSession fresh;
    ExecOptions fopts;
    fopts.trace = &fresh;
    auto d3 = random_input(1 << 11, 2);
    sim::CpuUnit cpu2(platforms::hpu1().cpu);
    run_multicore(cpu2, alg, std::span(d3), fopts);
    EXPECT_TRUE(obs::diff_traces(fresh, sub).identical(0.0));
}

// ---------------------------------------------------------------------------
// Irregular-tree diff regression: extent / imbalance carried through.

TEST(Diff, IrregularQuickhullCarriesExtentAndImbalance) {
    // Two quickhull runs over different point clouds: the dynamic task
    // lists diverge in extent_words and imbalance, and the diff must carry
    // both sides of those attributes through to its entries and the
    // markdown rendering — a flat tick delta alone cannot tell a shrunk
    // extent from a slower level.
    auto points = [](std::uint64_t n, std::uint64_t seed) {
        std::mt19937_64 rng(seed);
        std::vector<algos::Pt> pts(n);
        for (auto& p : pts) {
            p.x = static_cast<std::int64_t>(rng() % 4096);
            p.y = static_cast<std::int64_t>(rng() % 4096);
        }
        return pts;
    };
    algos::Quickhull alg;
    trace::TraceSession base, cand;
    {
        sim::CpuUnit cpu(platforms::hpu1().cpu);
        ExecOptions o;
        o.trace = &base;
        auto d = points(300, 17);
        run_multicore(cpu, alg, std::span(d), o);
    }
    {
        sim::CpuUnit cpu(platforms::hpu1().cpu);
        ExecOptions o;
        o.trace = &cand;
        auto d = points(500, 99);
        run_multicore(cpu, alg, std::span(d), o);
    }

    const obs::TraceDiff d = obs::diff_traces(base, cand);
    bool extent_diverged = false, imbalance_carried = false;
    for (const obs::DiffEntry& e : d.entries) {
        if (e.base_extent_words > 0 && e.cand_extent_words > 0 &&
            e.base_extent_words != e.cand_extent_words) {
            extent_diverged = true;
        }
        if (e.base_imbalance > 0.0 || e.cand_imbalance > 0.0) imbalance_carried = true;
    }
    EXPECT_TRUE(extent_diverged) << "no matched entry carries diverging extents";
    EXPECT_TRUE(imbalance_carried) << "no entry carries an imbalance value";

    std::ostringstream md;
    d.print_markdown(md);
    EXPECT_NE(md.str().find("| span |"), std::string::npos);
    EXPECT_NE(md.str().find("extent"), std::string::npos);
    EXPECT_NE(md.str().find("imbalance"), std::string::npos);
    // At least one row renders the base→cand imbalance transition.
    EXPECT_NE(md.str().find("→"), std::string::npos);
}

}  // namespace
}  // namespace hpu::core
