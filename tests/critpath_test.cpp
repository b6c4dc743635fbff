// hpu::obs critical-path + what-if tests (DESIGN.md §16): chain extraction
// on a hand-built schedule with known blame shares, the concurrent-arm
// exclusion, attachment to ExecReport::obs under observe, the
// hpu_critpath_* gauges, bit-exact unperturbed replay, the 10% accuracy
// contract of observed-path what-if predictions against actually
// perturbed re-runs (γ, λ, workers at lg n = 20 and 24), pricing against
// the run's recorded core count, Chrome round-trips of the decorations,
// and the crit-bottleneck watchdog finding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "metrics/registry.hpp"
#include "model/advanced.hpp"
#include "obs/critpath.hpp"
#include "obs/trace_io.hpp"
#include "obs/watchdog.hpp"
#include "obs/whatif.hpp"
#include "platforms/platforms.hpp"
#include "trace/export.hpp"
#include "util/rng.hpp"

namespace hpu::core {
namespace {

// --------------------------------------------------------- chain extraction

/// A hand-built run with exactly one possible chain: hook 0-10, cpu level
/// 10-45, transfer 45-60, gpu level 60-90, 5 idle ticks, hook 95-100.
/// A concurrent shorter cpu arm (60-80) must stay off the chain.
trace::TraceSession synthetic_session() {
    trace::TraceSession ts;
    trace::SpanAttrs a;
    const auto run = ts.record(trace::SpanKind::kRun, trace::Unit::kHost, "synthetic", 0.0,
                               100.0, a);
    ts.record(trace::SpanKind::kHook, trace::Unit::kCpu, "pre", 0.0, 10.0, a, run);
    const auto phase =
        ts.record(trace::SpanKind::kPhase, trace::Unit::kHost, "main", 10.0, 80.0, a, run);
    trace::SpanAttrs lvl = a;
    lvl.level = 2;
    lvl.tasks = 4;
    ts.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "cpu-level", 10.0, 35.0, lvl,
              phase);
    trace::SpanAttrs xfer = a;
    xfer.items = 256;
    ts.record(trace::SpanKind::kTransfer, trace::Unit::kLink, "xfer-in", 45.0, 15.0, xfer,
              phase);
    trace::SpanAttrs glv = a;
    glv.level = 1;
    glv.tasks = 2;
    ts.record(trace::SpanKind::kLevel, trace::Unit::kGpu, "gpu-level", 60.0, 30.0, glv,
              phase);
    // The concurrent arm in its own overlapping phase: finishes 10 ticks
    // before the fork-join sync at 90, so it cannot carry the chain and
    // reports that much slack.
    const auto side =
        ts.record(trace::SpanKind::kPhase, trace::Unit::kHost, "side", 60.0, 20.0, a, run);
    trace::SpanAttrs arm = a;
    arm.level = 1;
    arm.tasks = 1;
    ts.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "cpu-parallel", 60.0, 20.0, arm,
              side);
    ts.record(trace::SpanKind::kHook, trace::Unit::kCpu, "finalize", 95.0, 5.0, a, run);
    return ts;
}

TEST(CritPath, SyntheticChainBlamesEachResourceExactly) {
    const trace::TraceSession ts = synthetic_session();
    const obs::CritPathReport rep = obs::extract_critical_path(ts);

    ASSERT_TRUE(rep.attempted);
    EXPECT_EQ(rep.run_label, "synthetic");
    EXPECT_EQ(rep.makespan, 100.0);
    ASSERT_EQ(rep.chain.size(), 5u);
    const std::vector<std::string> labels = {"pre", "cpu-level", "xfer-in", "gpu-level",
                                             "finalize"};
    for (std::size_t i = 0; i < labels.size(); ++i) {
        EXPECT_EQ(rep.chain[i].label, labels[i]) << i;
        if (i > 0) {
            EXPECT_GE(rep.chain[i].start, rep.chain[i - 1].end) << i;
        }
    }
    // The shorter concurrent arm stays off the chain.
    for (const obs::CritStep& s : rep.chain) EXPECT_NE(s.label, "cpu-parallel");

    // hook 15, cpu 35, link 15, gpu 30, idle 5: shares are exact tenths.
    EXPECT_DOUBLE_EQ(rep.hook_ticks, 15.0);
    EXPECT_DOUBLE_EQ(rep.cpu_ticks, 35.0);
    EXPECT_DOUBLE_EQ(rep.link_ticks, 15.0);
    EXPECT_DOUBLE_EQ(rep.gpu_ticks, 30.0);
    EXPECT_DOUBLE_EQ(rep.idle_ticks, 5.0);
    EXPECT_DOUBLE_EQ(rep.cpu_share + rep.gpu_share + rep.link_share + rep.hook_share +
                         rep.idle_share,
                     1.0);
    EXPECT_EQ(rep.dominant, obs::CritResource::kCpu);
    EXPECT_DOUBLE_EQ(rep.dominant_share, 0.35);

    // The gap the trace does not explain lands on the step after it.
    EXPECT_DOUBLE_EQ(rep.chain[2].gap_before, 0.0);
    EXPECT_DOUBLE_EQ(rep.chain[4].gap_before, 5.0);

    // Slack: the off-chain arm ends 10 ticks before the gpu level; the
    // on-chain rows carry the makespan and report zero.
    bool arm_row = false;
    for (const obs::LevelSlack& row : rep.slack) {
        if (row.label == "cpu-parallel") {
            arm_row = true;
            EXPECT_DOUBLE_EQ(row.critical, 0.0);
            EXPECT_DOUBLE_EQ(row.slack, 10.0);  // sync at 90, arm ends at 80
        } else if (row.critical > 0.0) {
            EXPECT_DOUBLE_EQ(row.slack, 0.0) << row.label;
        }
    }
    EXPECT_TRUE(arm_row);

    std::ostringstream os;
    rep.print(os);
    EXPECT_NE(os.str().find("critical path"), std::string::npos);
    EXPECT_NE(os.str().find("cpu-level"), std::string::npos);
}

TEST(CritPath, EmptyOrInvalidSessionIsNotAttempted) {
    trace::TraceSession empty;
    EXPECT_FALSE(obs::extract_critical_path(empty).attempted);
    const trace::TraceSession ts = synthetic_session();
    EXPECT_FALSE(obs::extract_critical_path(ts, trace::SpanId{999}).attempted);
}

std::vector<std::int32_t> random_input(std::uint64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
}

TEST(CritPath, AttachedToExecReportUnderObserve) {
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 12, 7);
    trace::TraceSession ts;
    ExecOptions opts;
    opts.trace = &ts;
    opts.observe = true;
    sim::Hpu h(platforms::hpu1());
    AdvancedOptions adv;
    adv.exec = opts;
    const ExecReport rep = run_advanced_hybrid(h, alg, std::span(data), 0.2, 8, adv);

    ASSERT_TRUE(rep.obs.attempted);
    const obs::CritPathReport& cp = rep.obs.critpath;
    ASSERT_TRUE(cp.attempted);
    ASSERT_FALSE(cp.chain.empty());
    EXPECT_DOUBLE_EQ(cp.makespan, rep.total);
    EXPECT_NEAR(cp.cpu_share + cp.gpu_share + cp.link_share + cp.hook_share + cp.idle_share,
                1.0, 1e-12);
    EXPECT_DOUBLE_EQ(cp.dominant_share, cp.share_of(cp.dominant));
    // The chain's span ids must resolve in the original session.
    for (const obs::CritStep& s : cp.chain) {
        ASSERT_GE(s.id, 1u);
        ASSERT_LE(s.id, ts.spans().size());
        EXPECT_EQ(ts.span(s.id).label, s.label);
    }
    // The observatory's human report cites the dominant resource.
    std::ostringstream os;
    rep.obs.print(os);
    EXPECT_NE(os.str().find("critical path: dominant"), std::string::npos);
}

TEST(CritPath, GaugesArePublished) {
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(1);
    trace::TraceSession ts;
    ExecOptions opts;
    opts.functional = false;
    opts.trace = &ts;
    opts.observe = true;
    sim::Hpu h(platforms::hpu1());
    AdvancedOptions adv;
    adv.exec = opts;
    std::span<std::int32_t> d(dummy.data(), std::uint64_t{1} << 16);
    const ExecReport rep = run_advanced_hybrid(h, alg, d, 0.25, 8, adv);
    ASSERT_TRUE(rep.obs.critpath.attempted);

    metrics::RegistrySnapshot snap;
    obs::publish_obs(snap, rep.obs);
    std::vector<std::string> names;
    names.reserve(snap.gauges.size());
    for (const auto& g : snap.gauges) names.push_back(g.name);
    for (const char* expected :
         {"hpu_critpath_attempted", "hpu_critpath_steps", "hpu_critpath_makespan_ticks",
          "hpu_critpath_cpu_share", "hpu_critpath_gpu_share", "hpu_critpath_link_share",
          "hpu_critpath_hook_share", "hpu_critpath_idle_share",
          "hpu_critpath_dominant_share"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
    }
}

// ------------------------------------------------------------------ what-if

/// Records one analytic advanced-hybrid mergesort run at size n on `hw`
/// and returns its report; the session receives exactly one root.
ExecReport record_advanced(trace::TraceSession& ts, const sim::HpuParams& hw,
                           std::uint64_t n, double alpha, std::uint64_t y) {
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(1);
    sim::Hpu h(hw);
    ExecOptions opts;
    opts.functional = false;
    opts.trace = &ts;
    AdvancedOptions adv;
    adv.exec = opts;
    adv.split_tasks = 64;
    std::span<std::int32_t> d(dummy.data(), n);
    return run_advanced_hybrid(h, alg, d, alpha, y, adv);
}

TEST(WhatIf, UnperturbedReplayIsBitExact) {
    trace::TraceSession ts;
    const ExecReport rep = record_advanced(ts, platforms::hpu1(), 1ull << 20, 0.25, 8);
    const sim::HpuParams hw = platforms::hpu1();
    // Same params on both sides: the replay short-circuits to the recorded
    // makespan, bit for bit.
    EXPECT_EQ(obs::reprice_run(ts, trace::kNoSpan, hw, hw), rep.total);

    const obs::WhatIfReport w = obs::what_if(ts, trace::kNoSpan, hw);
    ASSERT_TRUE(w.attempted);
    EXPECT_EQ(w.baseline, rep.total);
    for (const obs::WhatIfCurve& c : w.curves) {
        const auto it = std::find_if(c.points.begin(), c.points.end(),
                                     [](const obs::WhatIfPoint& p) { return p.factor == 1.0; });
        ASSERT_NE(it, c.points.end()) << obs::to_string(c.param);
        EXPECT_EQ(it->predicted, w.baseline) << obs::to_string(c.param);
        EXPECT_EQ(it->speedup, 1.0) << obs::to_string(c.param);
    }
    ASSERT_NE(w.top(), nullptr);

    std::ostringstream os, md;
    w.print(os);
    w.print_markdown(md);
    EXPECT_NE(os.str().find("top bottleneck"), std::string::npos);
    EXPECT_NE(md.str().find("| param |"), std::string::npos);
}

/// The accuracy contract (ISSUE acceptance): an observed-path what-if
/// prediction for a perturbed machine must land within 10% of actually
/// re-running the executor on that machine at the same operating point.
void expect_whatif_accurate(std::uint64_t n, std::uint64_t y) {
    const sim::HpuParams hw = platforms::hpu1();
    trace::TraceSession base;
    const ExecReport rb = record_advanced(base, hw, n, 0.25, y);
    ASSERT_GT(rb.total, 0.0);

    const struct {
        obs::WhatIfParam param;
        double factor;
    } cases[] = {
        {obs::WhatIfParam::kGamma, 2.0},
        {obs::WhatIfParam::kLambda, 4.0},
        {obs::WhatIfParam::kWorkers, 2.0},
    };
    for (const auto& c : cases) {
        const sim::HpuParams pert = obs::perturb(hw, c.param, c.factor);
        const sim::Ticks predicted = obs::reprice_run(base, trace::kNoSpan, hw, pert);
        trace::TraceSession rerun;
        const ExecReport ra = record_advanced(rerun, pert, n, 0.25, y);
        ASSERT_GT(ra.total, 0.0);
        const double err = std::abs(predicted - ra.total) / ra.total;
        EXPECT_LE(err, 0.10) << obs::to_string(c.param) << " x" << c.factor << " at n=" << n
                             << ": predicted " << predicted << " vs actual " << ra.total;
    }
}

TEST(WhatIf, PredictionsWithinTenPercentOfPerturbedRerunsLg20) {
    expect_whatif_accurate(1ull << 20, 8);
}

TEST(WhatIf, PredictionsWithinTenPercentOfPerturbedRerunsLg24) {
    expect_whatif_accurate(1ull << 24, 10);
}

TEST(WhatIf, PricesARunAgainstItsRecordedCores) {
    // A multicore run on a 1-core unit, analysed with the caller's 4-core
    // machine: the replay starts from the one core the run recorded, so
    // workers x2 is an analytic re-run on 2 cores.
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(1 << 16);
    const sim::HpuParams hw = platforms::hpu1();
    ASSERT_EQ(hw.cpu.p, 4u);
    auto record = [&](std::size_t cores, trace::TraceSession& ts) {
        sim::CpuParams cpu = hw.cpu;
        cpu.p = cores;
        sim::CpuUnit unit(cpu);
        ExecOptions opts;
        opts.functional = false;
        opts.trace = &ts;
        return run_multicore(unit, alg, std::span(dummy), opts);
    };
    trace::TraceSession one, two;
    record(1, one);
    const ExecReport rerun = record(2, two);

    obs::WhatIfOptions opts;
    opts.params = {obs::WhatIfParam::kWorkers};
    opts.factors = {2.0};
    const obs::WhatIfReport w = obs::what_if(one, trace::kNoSpan, hw, opts);
    ASSERT_EQ(w.curves.size(), 1u);
    EXPECT_EQ(w.curves[0].configured, 1.0);
    ASSERT_EQ(w.curves[0].points.size(), 1u);
    EXPECT_NEAR(w.curves[0].points[0].predicted, rerun.total, 1e-9 * rerun.total);
}

// ------------------------------------------------- decorations round-trip

TEST(CritPathIo, AnnotationsRoundTripBitFaithfully) {
    trace::TraceSession ts;
    record_advanced(ts, platforms::hpu1(), 1ull << 20, 0.25, 8);
    const obs::CritPathReport rep = obs::extract_critical_path(ts);
    ASSERT_TRUE(rep.attempted);
    ASSERT_FALSE(rep.chain.empty());

    std::ostringstream os;
    trace::export_chrome(ts, os, obs::chrome_extras(rep));
    std::istringstream is(os.str());
    const obs::LoadedTrace loaded = obs::parse_chrome_trace(is);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    // Decorations (crit args, flow events) are ignored by the importer:
    // the session itself survives bit-exactly.
    ASSERT_EQ(loaded.session.spans().size(), ts.spans().size());

    // Re-deriving both reports from the re-imported session reproduces the
    // original bit for bit.
    const obs::CritPathReport rep2 = obs::extract_critical_path(loaded.session);
    ASSERT_TRUE(rep2.attempted);
    ASSERT_EQ(rep2.chain.size(), rep.chain.size());
    for (std::size_t i = 0; i < rep.chain.size(); ++i) {
        EXPECT_EQ(rep2.chain[i].id, rep.chain[i].id);
        EXPECT_EQ(rep2.chain[i].label, rep.chain[i].label);
        EXPECT_EQ(rep2.chain[i].start, rep.chain[i].start);
        EXPECT_EQ(rep2.chain[i].end, rep.chain[i].end);
        EXPECT_EQ(rep2.chain[i].gap_before, rep.chain[i].gap_before);
        EXPECT_EQ(rep2.chain[i].resource, rep.chain[i].resource);
    }
    EXPECT_EQ(rep2.makespan, rep.makespan);
    EXPECT_EQ(rep2.cpu_share, rep.cpu_share);
    EXPECT_EQ(rep2.gpu_share, rep.gpu_share);
    EXPECT_EQ(rep2.link_share, rep.link_share);
    EXPECT_EQ(rep2.hook_share, rep.hook_share);
    EXPECT_EQ(rep2.idle_share, rep.idle_share);
    EXPECT_EQ(rep2.dominant, rep.dominant);

    const sim::HpuParams hw = platforms::hpu1();
    const obs::WhatIfReport wa = obs::what_if(ts, trace::kNoSpan, hw);
    const obs::WhatIfReport wb = obs::what_if(loaded.session, trace::kNoSpan, hw);
    ASSERT_EQ(wa.curves.size(), wb.curves.size());
    EXPECT_EQ(wa.baseline, wb.baseline);
    for (std::size_t i = 0; i < wa.curves.size(); ++i) {
        ASSERT_EQ(wa.curves[i].points.size(), wb.curves[i].points.size());
        EXPECT_EQ(wa.curves[i].gain, wb.curves[i].gain);
        for (std::size_t j = 0; j < wa.curves[i].points.size(); ++j) {
            EXPECT_EQ(wa.curves[i].points[j].predicted, wb.curves[i].points[j].predicted);
        }
    }
}

TEST(CritPath, ExtractionDoesNotPerturbTheReport) {
    // The --critpath surface is strictly post-hoc: running the same
    // schedule with and without the extraction (and decorated export)
    // leaves every ExecReport field and the trace bit-identical.
    auto go = [&](bool extract) {
        trace::TraceSession ts;
        const ExecReport rep = record_advanced(ts, platforms::hpu1(), 1ull << 14, 0.2, 6);
        if (extract) {
            const obs::CritPathReport cp = obs::extract_critical_path(ts);
            std::ostringstream os;
            trace::export_chrome(ts, os, obs::chrome_extras(cp));
        }
        return std::make_pair(rep, ts.span_end());
    };
    const auto [off, t_off] = go(false);
    const auto [on, t_on] = go(true);
    EXPECT_EQ(off.total, on.total);
    EXPECT_EQ(off.cpu_busy, on.cpu_busy);
    EXPECT_EQ(off.gpu_busy, on.gpu_busy);
    EXPECT_EQ(off.transfer, on.transfer);
    EXPECT_EQ(off.alpha_effective, on.alpha_effective);
    EXPECT_EQ(t_off, t_on);
}

// ------------------------------------------------------- watchdog finding

TEST(Watchdog, CritBottleneckCitesTheDominantDriftedResource) {
    // A run whose critical path is almost entirely transfers, simulated on
    // a machine whose λ is far above the configured one: the estimator
    // sees the drift, the chain blames the link, and the combined finding
    // must cite both ("link is N% of the critical path and lambda drifted
    // Kx").
    trace::TraceSession ts;
    trace::SpanAttrs a;
    const auto run =
        ts.record(trace::SpanKind::kRun, trace::Unit::kHost, "xfer-bound", 0.0, 21000.0, a);
    trace::SpanAttrs x1 = a;
    x1.items = 1000;  // λ' + δ·w = 10000 + 1·1000 = 11000 on the true link
    ts.record(trace::SpanKind::kTransfer, trace::Unit::kLink, "xfer-in", 0.0, 11000.0, x1,
              run);
    trace::SpanAttrs lvl = a;
    lvl.level = 0;
    lvl.tasks = 4;
    ts.record(trace::SpanKind::kLevel, trace::Unit::kCpu, "cpu-level", 11000.0, 1000.0, lvl,
              run);
    trace::SpanAttrs x2 = a;
    x2.items = 2000;  // 10000 + 1·2000: a second width pins down (λ, δ)
    ts.record(trace::SpanKind::kTransfer, trace::Unit::kLink, "xfer-out", 12000.0, 12000.0,
              x2, run);
    ts.close(run, 24000.0);

    obs::ObserveContext octx;
    octx.hw = platforms::hpu1();  // configured λ = 1000: a 10x drift
    octx.thresholds.gpu_occupancy_floor = 0.0;
    const obs::ObsReport rep = obs::observe(ts, trace::kNoSpan, octx);
    ASSERT_TRUE(rep.attempted);
    ASSERT_TRUE(rep.critpath.attempted);
    EXPECT_EQ(rep.critpath.dominant, obs::CritResource::kLink);
    EXPECT_GT(rep.critpath.dominant_share, 0.5);

    const obs::ObsFinding* crit = nullptr;
    for (const obs::ObsFinding& f : rep.findings) {
        if (f.kind == obs::FindingKind::kCritBottleneck) crit = &f;
    }
    ASSERT_NE(crit, nullptr) << "crit-bottleneck finding missing";
    EXPECT_NE(crit->message.find("of the critical path"), std::string::npos)
        << crit->message;
    EXPECT_NE(crit->message.find("lambda"), std::string::npos) << crit->message;
}

}  // namespace
}  // namespace hpu::core
