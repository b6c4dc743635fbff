// hpu::trace tests: zero-perturbation (attaching a tracer never changes an
// ExecReport tick, swept over every algorithm × executor), span-tree shape
// for all executors, the shared label scheme joining analysis findings and
// trace spans, phase-span overlap under the advanced hybrid's concurrent
// phases, the counters registry, the exporters' Chrome trace-event / CSV
// shapes, and the utilization + model-drift report — including the §5.2.2
// worked example (α* ≈ 0.16, y* ≈ 10, GPU ≈ 52% of the work at n = 2²⁴ on
// HPU1) reproduced from span data alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "algos/binary_reduce.hpp"
#include "algos/fft.hpp"
#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "model/advanced.hpp"
#include "platforms/platforms.hpp"
#include "trace/counters.hpp"
#include "trace/export.hpp"
#include "trace/utilization.hpp"
#include "util/rng.hpp"

namespace hpu::core {
namespace {

std::vector<std::int32_t> random_input(std::uint64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
}

// ---------------------------------------------------------------------------
// Phase spans on overlapped hybrid schedules: the advanced hybrid's GPU
// thread and its concurrent CPU phase overlap in virtual time.

TEST(PhaseSpans, AdvancedHybridPhasesOverlapAndStayWithinTotal) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 12, 11);
    trace::TraceSession ts;
    AdvancedOptions adv;
    adv.exec.trace = &ts;
    const auto rep = run_advanced_hybrid(h, alg, std::span(data), 0.2, 8, adv);
    auto phase = [&](const char* name) {
        const auto it = std::find_if(ts.spans().begin(), ts.spans().end(),
                                     [&](const trace::Span& s) {
                                         return s.kind == trace::SpanKind::kPhase &&
                                                s.label == phase_label(alg.name(), name);
                                     });
        EXPECT_NE(it, ts.spans().end()) << name;
        return it != ts.spans().end() ? *it : trace::Span{};
    };
    const trace::Span gpu = phase("gpu-phase");
    const trace::Span cpu = phase("cpu-parallel");
    const trace::Span fin = phase("finish");
    // The concurrent CPU phase overlaps the GPU phase in virtual time.
    EXPECT_EQ(cpu.start, gpu.start);
    EXPECT_LT(cpu.start, gpu.end);
    EXPECT_LT(gpu.start, cpu.end);
    // The finish phase starts at the join and closes the run.
    EXPECT_EQ(fin.start, std::max(gpu.end, cpu.end));
    EXPECT_EQ(fin.end, rep.total);
    EXPECT_LE(ts.span_end(), rep.total + 1e-9);
}

// ---------------------------------------------------------------------------
// Zero-perturbation: tracing on vs off yields bit-identical reports for
// every algorithm × executor × mode.

void expect_identical(const ExecReport& off, const ExecReport& on,
                      const std::string& what) {
    EXPECT_EQ(off.total, on.total) << what;
    EXPECT_EQ(off.cpu_busy, on.cpu_busy) << what;
    EXPECT_EQ(off.gpu_busy, on.gpu_busy) << what;
    EXPECT_EQ(off.transfer, on.transfer) << what;
    EXPECT_EQ(off.finish, on.finish) << what;
    EXPECT_EQ(off.levels_cpu, on.levels_cpu) << what;
    EXPECT_EQ(off.levels_gpu, on.levels_gpu) << what;
    EXPECT_EQ(off.alpha_effective, on.alpha_effective) << what;
}

template <typename Alg>
void sweep_executors(const Alg& alg, bool functional) {
    const std::uint64_t n = 1 << 12;
    const auto base = random_input(n, 21);
    const std::string tag = alg.name() + (functional ? "/functional" : "/analytic");

    const auto run_both = [&](const char* executor, auto&& go) {
        ExecOptions off;
        off.functional = functional;
        trace::TraceSession session;
        ExecOptions on = off;
        on.trace = &session;
        auto d_off = base;
        auto d_on = base;
        const ExecReport r_off = go(std::span(d_off), off);
        const ExecReport r_on = go(std::span(d_on), on);
        expect_identical(r_off, r_on, tag + "/" + executor);
        EXPECT_EQ(d_off, d_on) << tag << "/" << executor;
        EXPECT_FALSE(session.empty()) << tag << "/" << executor;
        EXPECT_EQ(r_on.trace, &session);
        EXPECT_EQ(r_off.trace, nullptr);
        // Every span sits inside the run interval.
        for (const auto& s : session.spans()) {
            EXPECT_GE(s.start, -1e-9);
            EXPECT_LE(s.end, r_on.total + 1e-9) << tag << "/" << executor << " " << s.label;
        }
    };

    run_both("sequential", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::CpuUnit cpu(platforms::hpu1().cpu);
        return run_sequential(cpu, alg, d, o);
    });
    run_both("multicore", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::CpuUnit cpu(platforms::hpu1().cpu);
        return run_multicore(cpu, alg, d, o);
    });
    run_both("gpu", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::Hpu h(platforms::hpu1());
        return run_gpu(h, alg, d, o);
    });
    run_both("basic-hybrid", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::Hpu h(platforms::hpu1());
        return run_basic_hybrid(h, alg, d, o);
    });
    run_both("advanced-hybrid", [&](std::span<std::int32_t> d, const ExecOptions& o) {
        sim::Hpu h(platforms::hpu1());
        AdvancedOptions adv;
        adv.exec = o;
        return run_advanced_hybrid(h, alg, d, 0.2, 7, adv);
    });
}

TEST(ZeroPerturbation, MergesortPlainAllExecutors) {
    algos::MergesortPlain<std::int32_t> alg;
    sweep_executors(alg, /*functional=*/true);
    sweep_executors(alg, /*functional=*/false);
}

TEST(ZeroPerturbation, MergesortCoalescedAllExecutors) {
    algos::MergesortCoalesced<std::int32_t> alg;
    sweep_executors(alg, /*functional=*/true);
    sweep_executors(alg, /*functional=*/false);
}

TEST(ZeroPerturbation, BinaryReduceSumAllExecutors) {
    const auto alg = algos::make_sum<std::int32_t>();
    sweep_executors(alg, /*functional=*/true);
    sweep_executors(alg, /*functional=*/false);
}

// ---------------------------------------------------------------------------
// Span-tree shape.

TEST(SpanTree, AdvancedHybridHasConcurrentPhasesAndTwoTransfers) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 12, 31);
    trace::TraceSession session;
    AdvancedOptions adv;
    adv.exec.trace = &session;
    const auto rep = run_advanced_hybrid(h, alg, std::span(data), 0.2, 8, adv);

    // One run root spanning [0, total).
    ASSERT_EQ(session.count(trace::SpanKind::kRun), 1u);
    const auto roots = session.children(trace::kNoSpan);
    ASSERT_EQ(roots.size(), 1u);
    const auto& root = session.span(roots[0]);
    EXPECT_EQ(root.kind, trace::SpanKind::kRun);
    EXPECT_EQ(root.label, "mergesort-coalesced/advanced-hybrid");
    EXPECT_DOUBLE_EQ(root.start, 0.0);
    EXPECT_DOUBLE_EQ(root.end, rep.total);
    EXPECT_EQ(root.attrs.items, data.size());

    // Exactly two transfer spans (§5.2), both on the link track.
    ASSERT_EQ(session.count(trace::SpanKind::kTransfer), 2u);
    std::vector<const trace::Span*> xfers;
    for (const auto& s : session.spans()) {
        if (s.kind == trace::SpanKind::kTransfer) {
            xfers.push_back(&s);
            EXPECT_EQ(s.unit, trace::Unit::kLink);
            EXPECT_GT(s.attrs.items, 0u);
            EXPECT_EQ(s.attrs.bytes, s.attrs.items * sizeof(std::int32_t));
        }
    }
    EXPECT_EQ(xfers[0]->label, "mergesort-coalesced/xfer-in");
    EXPECT_EQ(xfers[1]->label, "mergesort-coalesced/xfer-out");

    // The cpu-parallel and gpu-phase spans start together and overlap.
    const trace::Span* gpu_phase = nullptr;
    const trace::Span* cpu_phase = nullptr;
    const trace::Span* finish = nullptr;
    for (const auto& s : session.spans()) {
        if (s.kind != trace::SpanKind::kPhase) continue;
        if (s.label == "mergesort-coalesced/gpu-phase") gpu_phase = &s;
        if (s.label == "mergesort-coalesced/cpu-parallel") cpu_phase = &s;
        if (s.label == "mergesort-coalesced/finish") finish = &s;
    }
    ASSERT_NE(gpu_phase, nullptr);
    ASSERT_NE(cpu_phase, nullptr);
    ASSERT_NE(finish, nullptr);
    EXPECT_DOUBLE_EQ(gpu_phase->start, cpu_phase->start);
    EXPECT_LT(cpu_phase->start, gpu_phase->end);
    EXPECT_LT(gpu_phase->start, cpu_phase->end);
    // The finish phase starts at the sync point (the later of the two) and
    // ends at the report total.
    EXPECT_DOUBLE_EQ(finish->start, std::max(gpu_phase->end, cpu_phase->end));
    EXPECT_DOUBLE_EQ(finish->end, rep.total);
    EXPECT_DOUBLE_EQ(finish->duration(), rep.finish);

    // Transfers are children of the GPU phase; levels nest under a phase.
    for (const auto* x : xfers) EXPECT_EQ(x->parent, gpu_phase->id);
    for (const auto& s : session.spans()) {
        if (s.kind == trace::SpanKind::kLevel) {
            const auto& p = session.span(s.parent);
            EXPECT_EQ(p.kind, trace::SpanKind::kPhase) << s.label;
        }
    }
}

TEST(SpanTree, FunctionalGpuRunRecordsWavesUnderLevels) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::uint64_t n = 1 << 14;  // deepest level: 8192 tasks, g = 4096
    auto data = random_input(n, 41);
    trace::TraceSession session;
    ExecOptions opts;
    opts.trace = &session;
    run_gpu(h, alg, std::span(data), opts);

    ASSERT_GT(session.count(trace::SpanKind::kWave), 0u);
    for (const auto& s : session.spans()) {
        if (s.kind != trace::SpanKind::kWave) continue;
        const auto& level = session.span(s.parent);
        EXPECT_TRUE(level.kind == trace::SpanKind::kLevel ||
                    level.kind == trace::SpanKind::kLeaves);
        EXPECT_EQ(level.unit, trace::Unit::kGpu);
        // Waves sit inside their launch's span.
        EXPECT_GE(s.start, level.start - 1e-9);
        EXPECT_LE(s.end, level.end + 1e-9);
        EXPECT_GT(s.attrs.items, 0u);
        EXPECT_LE(s.attrs.items, h.params().gpu.g);
    }
    // Per level: wave count matches the attrs and wave items sum to the
    // launch's item count.
    for (const auto& s : session.spans()) {
        if (s.kind != trace::SpanKind::kLevel || s.unit != trace::Unit::kGpu) continue;
        std::uint64_t waves = 0, items = 0;
        sim::Ticks wave_time = 0.0;
        for (const auto id : session.children(s.id)) {
            const auto& w = session.span(id);
            if (w.kind != trace::SpanKind::kWave) continue;
            ++waves;
            items += w.attrs.items;
            wave_time += w.duration();
        }
        EXPECT_EQ(waves, s.attrs.waves) << s.label;
        EXPECT_EQ(items, s.attrs.items) << s.label;
        EXPECT_NEAR(wave_time + h.params().gpu.launch_overhead, s.duration(), 1e-9)
            << s.label;
    }
}

TEST(SpanTree, SequentialAndMulticoreChainLevelsBackToBack) {
    for (const bool multicore : {false, true}) {
        sim::CpuUnit cpu(platforms::hpu1().cpu);
        algos::MergesortPlain<std::int32_t> alg;
        auto data = random_input(1 << 10, 51);
        trace::TraceSession session;
        ExecOptions opts;
        opts.trace = &session;
        const auto rep = multicore ? run_multicore(cpu, alg, std::span(data), opts)
                                   : run_sequential(cpu, alg, std::span(data), opts);
        const auto roots = session.children(trace::kNoSpan);
        ASSERT_EQ(roots.size(), 1u);
        // Levels tile [leaves_end, total) with no gaps.
        sim::Ticks cursor = 0.0;
        for (const auto id : session.children(roots[0])) {
            const auto& s = session.span(id);
            EXPECT_NEAR(s.start, cursor, 1e-9) << s.label;
            cursor = s.end;
        }
        EXPECT_NEAR(cursor, rep.total, 1e-9);
    }
}

// ---------------------------------------------------------------------------
// The shared label scheme: analysis findings and trace spans produced by
// the same launch carry the same label.

/// Deliberately racy reduction: every task writes word 0.
struct RacyAlg final : LevelAlgorithm<std::int32_t> {
    std::string name() const override { return "racy"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }
    model::Recurrence recurrence() const override { return model::sum_recurrence(2.0); }
    void run_task(std::span<std::int32_t> data, std::uint64_t /*count*/, std::uint64_t j,
                  sim::OpCounter& ops) const override {
        data[0] = static_cast<std::int32_t>(j);
        ops.charge_compute(1);
        ops.charge_mem(1, sim::Pattern::kStrided);
        ops.log_write(0, 1);
    }
};

TEST(Labels, AnalysisFindingsAndSpansJoinOnLabels) {
    // helper format sanity
    EXPECT_EQ(launch_label("racy", "gpu-level", 8), "racy/gpu-level[8 tasks]");
    EXPECT_EQ(phase_label("mergesort", "cpu-parallel"), "mergesort/cpu-parallel");

    // Analysis finding labels match the trace span of the same launch.
    sim::Hpu h(platforms::hpu1());
    RacyAlg racy;
    std::vector<std::int32_t> data(16, 0);
    trace::TraceSession session;
    ExecOptions opts;
    opts.validate = true;
    opts.trace = &session;
    const auto rep = run_gpu(h, racy, std::span(data), opts);
    ASSERT_FALSE(rep.analysis.findings.empty());
    for (const auto& f : rep.analysis.findings) {
        const bool matched =
            std::any_of(session.spans().begin(), session.spans().end(),
                        [&](const trace::Span& s) { return s.label == f.launch; });
        EXPECT_TRUE(matched) << "finding label '" << f.launch << "' has no matching span";
    }

    // Phase spans of the hybrids carry the phase_label scheme.
    sim::Hpu h2(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto input = random_input(1 << 12, 61);
    trace::TraceSession session2;
    AdvancedOptions adv;
    adv.exec.trace = &session2;
    run_advanced_hybrid(h2, alg, std::span(input), 0.2, 8, adv);
    std::vector<std::string> phases;
    for (const auto& s : session2.spans()) {
        if (s.kind == trace::SpanKind::kPhase) phases.push_back(s.label);
    }
    EXPECT_EQ(phases, (std::vector<std::string>{phase_label(alg.name(), "gpu-phase"),
                                                phase_label(alg.name(), "cpu-parallel"),
                                                phase_label(alg.name(), "finish")}));
}

// ---------------------------------------------------------------------------
// Counters registry.

TEST(Counters, FunctionalGpuRunCountsLaunchesWavesAndTransfers) {
    const auto before = trace::counters().snapshot();
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::uint64_t n = 1 << 13;
    auto data = random_input(n, 71);
    // Hermetic against the HPU_VALIDATE env override: this test counts a
    // plain functional run, so pin validation off explicitly.
    ExecOptions opts;
    opts.validate = false;
    run_gpu(h, alg, std::span(data), opts);
    const auto d = trace::counters().snapshot() - before;
    EXPECT_GE(d.kernel_launches, 13u);  // one per internal level
    EXPECT_GE(d.waves_launched, d.kernel_launches);
    EXPECT_GT(d.work_items, 0u);
    EXPECT_EQ(d.transfers, 2u);  // ship in, ship back
    EXPECT_EQ(d.words_transferred, 2 * n);
    EXPECT_GT(d.coalesced_transactions + d.strided_transactions, 0u);
    EXPECT_EQ(d.validation_reexecutions, 0u);
}

TEST(Counters, ValidationReexecutionsAreCounted) {
    const auto before = trace::counters().snapshot();
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 10, 81);
    ExecOptions opts;
    opts.validate = true;
    run_gpu(h, alg, std::span(data), opts);
    const auto d = trace::counters().snapshot() - before;
    EXPECT_GE(d.validation_reexecutions, 10u);  // one per checked launch
    const auto before2 = trace::counters().snapshot();
    run_multicore(h.cpu(), alg, std::span(data));
    const auto d2 = trace::counters().snapshot() - before2;
    EXPECT_GE(d2.cpu_levels, 10u);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(Exporters, ChromeJsonHasTraceEventShape) {
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    auto data = random_input(1 << 12, 91);
    trace::TraceSession session;
    AdvancedOptions adv;
    adv.exec.trace = &session;
    run_advanced_hybrid(h, alg, std::span(data), 0.2, 8, adv);

    std::ostringstream os;
    trace::export_chrome(session, os);
    const std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
    // Four track-name metadata events + one complete event per span.
    std::size_t m_events = 0, x_events = 0, pos = 0;
    while ((pos = json.find("\"ph\":\"M\"", pos)) != std::string::npos) {
        ++m_events;
        pos += 1;
    }
    pos = 0;
    while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
        ++x_events;
        pos += 1;
    }
    EXPECT_EQ(m_events, 4u);
    EXPECT_EQ(x_events, session.spans().size());
    for (const char* track : {"\"host\"", "\"cpu\"", "\"gpu\"", "\"link\""}) {
        EXPECT_NE(json.find(track), std::string::npos) << track;
    }
    // Balanced braces and a closing bracket — cheap well-formedness check
    // (tools/check_trace.py does the full JSON validation in CI).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("]}"), std::string::npos);
}

TEST(Exporters, CsvHasHeaderAndOneRowPerSpan) {
    sim::CpuUnit cpu(platforms::hpu1().cpu);
    algos::MergesortPlain<std::int32_t> alg;
    auto data = random_input(1 << 10, 101);
    trace::TraceSession session;
    ExecOptions opts;
    opts.trace = &session;
    run_multicore(cpu, alg, std::span(data), opts);

    std::ostringstream os;
    trace::export_csv(session, os);
    std::istringstream in(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line,
              "id,parent,kind,unit,label,start,end,duration,level,tasks,items,waves,ops,"
              "max_ops,work,bytes,coalesced_transactions,strided_transactions,"
              "extent_words,imbalance,wall_start_ns,wall_ns");
    std::size_t rows = 0;
    while (std::getline(in, line)) ++rows;
    EXPECT_EQ(rows, session.spans().size());
}

// ---------------------------------------------------------------------------
// Utilization and model drift.

TEST(Utilization, PureModelRunsHaveUnitDrift) {
    // No contention, analytic execution: observed level times ARE the model
    // prices, so every drift row must be exactly 1.
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    const std::uint64_t n = 1 << 16;
    std::vector<std::int32_t> dummy(n);
    trace::TraceSession session;
    AdvancedOptions adv;
    adv.exec.functional = false;
    adv.exec.trace = &session;
    run_advanced_hybrid(h, alg, std::span(dummy), 0.2, 9, adv);
    const auto u = trace::derive_utilization(session, h.params(), alg.recurrence(),
                                             alg.device_ops_multiplier(h.params().gpu));
    ASSERT_FALSE(u.levels.empty());
    for (const auto& d : u.levels) {
        EXPECT_NEAR(d.drift, 1.0, 1e-9) << "level " << d.level;
    }
    EXPECT_EQ(u.transfers, 2u);
    EXPECT_GT(u.gpu_lane_occupancy, 0.0);
    EXPECT_LE(u.gpu_lane_occupancy, 1.0 + 1e-9);
}

TEST(Utilization, ContentionShowsUpAsCpuDriftAboveOne) {
    // The Fig. 8 measured-vs-predicted gap, localized: with the LLC
    // contention model on and a cache-busting working set, CPU levels drift
    // above the pure §5 price while device levels stay model-exact.
    sim::HpuParams hw = platforms::hpu1();
    hw.cpu.contention = 0.08;
    const std::uint64_t n = 1 << 22;  // 2·n·4 B = 32 MB >> 8 MB LLC
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(n);

    sim::CpuUnit cpu(hw.cpu);
    trace::TraceSession cpu_session;
    ExecOptions opts;
    opts.functional = false;
    opts.trace = &cpu_session;
    run_multicore(cpu, alg, std::span(dummy), opts);
    const auto cpu_util = trace::derive_utilization(cpu_session, hw, alg.recurrence(),
                                                    alg.device_ops_multiplier(hw.gpu));
    ASSERT_FALSE(cpu_util.levels.empty());
    bool saw_drift = false;
    for (const auto& d : cpu_util.levels) {
        if (d.level == trace::SpanAttrs::kNoLevel) continue;  // leaf sweep: tiny ws
        if (d.tasks <= 1) continue;  // one active core contends with nobody
        EXPECT_GT(d.drift, 1.0) << "level " << d.level;
        saw_drift = true;
    }
    EXPECT_TRUE(saw_drift);

    sim::Hpu h(hw);
    trace::TraceSession gpu_session;
    opts.trace = &gpu_session;
    run_gpu(h, alg, std::span(dummy), opts);
    const auto gpu_util = trace::derive_utilization(gpu_session, hw, alg.recurrence(),
                                                    alg.device_ops_multiplier(hw.gpu));
    for (const auto& d : gpu_util.levels) {
        EXPECT_NEAR(d.drift, 1.0, 1e-9) << "level " << d.level;
    }
}

TEST(Utilization, BasicHybridShowsIdleCpuAdvancedKeepsBothBusy) {
    const std::uint64_t n = 1 << 18;
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> dummy(n);
    ExecOptions an;
    an.functional = false;

    sim::Hpu h1(platforms::hpu1());
    trace::TraceSession basic;
    an.trace = &basic;
    run_basic_hybrid(h1, alg, std::span(dummy), an);
    const auto bu = trace::derive_utilization(basic, h1.params(), alg.recurrence(),
                                              alg.device_ops_multiplier(h1.params().gpu));

    sim::Hpu h2(platforms::hpu1());
    trace::TraceSession advanced;
    model::AdvancedModel m(h2.params(), alg.recurrence(), static_cast<double>(n));
    const auto opt = m.optimize();
    AdvancedOptions adv;
    adv.exec.functional = false;
    adv.exec.trace = &advanced;
    run_advanced_hybrid(h2, alg, std::span(dummy), opt.alpha,
                        static_cast<std::uint64_t>(std::llround(opt.y)), adv);
    const auto au = trace::derive_utilization(advanced, h2.params(), alg.recurrence(),
                                              alg.device_ops_multiplier(h2.params().gpu));

    // The advanced scheduler exists to remove the basic scheduler's idle
    // time: its CPU utilization must be strictly higher. (The remaining
    // idle is the xfer-out + finish tail plus the sync gap at the barrier.)
    EXPECT_GT(au.units[0].utilization, bu.units[0].utilization);
    EXPECT_GT(au.units[0].utilization, 0.85);
    EXPECT_LT(bu.units[0].utilization, au.units[0].utilization - 0.05);
}

/// The utilization report of one analytic session holding a run of each
/// of the six executors, every run starting at virtual 0.
template <typename T>
trace::UtilizationReport six_executor_session(const LevelAlgorithm<T>& alg, std::uint64_t n,
                                              const sim::HpuParams& hw) {
    std::vector<T> dummy(n);
    const std::span<T> data(dummy);
    sim::Hpu h(hw);
    trace::TraceSession session;
    ExecOptions opts;
    opts.functional = false;
    opts.trace = &session;
    run_sequential(h.cpu(), alg, data, opts);
    run_multicore(h.cpu(), alg, data, opts);
    run_gpu(h, alg, data, opts);
    run_basic_hybrid(h, alg, data, opts);
    AdvancedOptions adv;
    adv.exec = opts;
    run_advanced_hybrid(h, alg, data, 0.25, 8, adv);
    PipelinedOptions pip;
    pip.exec = opts;
    pip.chunks = 4;
    run_pipelined_hybrid(h, alg, data, 0.25, 8, pip);
    EXPECT_EQ(session.children(trace::kNoSpan).size(), 6u);
    return trace::derive_utilization(session, hw, alg.recurrence(),
                                     alg.device_ops_multiplier(hw.gpu));
}

template <typename Fn>
void for_each_six_executor_session(Fn&& check) {
    for (const sim::HpuParams& hw : {platforms::hpu1(), platforms::hpu2()}) {
        SCOPED_TRACE(hw.name);
        ASSERT_EQ(hw.cpu.contention, 0.0);
        check(six_executor_session(algos::MergesortCoalesced<std::int32_t>(), 1 << 16, hw));
        check(six_executor_session(algos::make_sum<std::int32_t>(), 1 << 16, hw));
        check(six_executor_session(algos::DcFft(), 1 << 14, hw));
    }
}

TEST(Utilization, SixExecutorSessionHasUnitDrift) {
    // Each level is priced against its own run's core count, the
    // sequential run's single core included.
    for_each_six_executor_session([](const trace::UtilizationReport& u) {
        ASSERT_FALSE(u.levels.empty());
        for (const auto& d : u.levels) EXPECT_NEAR(d.drift, 1.0, 1e-9) << "level " << d.level;
    });
}

TEST(Utilization, SixExecutorSessionUtilizationIsAShare) {
    // Busy time summed over the runs, over their summed durations.
    for_each_six_executor_session([](const trace::UtilizationReport& u) {
        ASSERT_EQ(u.units.size(), 3u);
        for (const auto& x : u.units) {
            EXPECT_GE(x.utilization, 0.0) << trace::to_string(x.unit);
            EXPECT_LE(x.utilization, 1.0) << trace::to_string(x.unit);
        }
        EXPECT_GT(u.units[0].utilization, 0.0);
        EXPECT_GT(u.units[1].utilization, 0.0);
        EXPECT_GE(u.gpu_lane_occupancy, 0.0);
        EXPECT_LE(u.gpu_lane_occupancy, 1.0);
        EXPECT_EQ(u.link_utilization, u.units[2].utilization);
    });
}

TEST(Utilization, WorkedExample522FromSpanDataAlone) {
    // §5.2.2 / §6.4: mergesort at n = 2²⁴ on HPU1. The model's optimum sits
    // near α* ≈ 0.16, y* ≈ 10 with the GPU doing ≈ 52% of the work; the
    // span-derived report must reproduce that share from the trace alone.
    const std::uint64_t n = 1ull << 24;
    sim::Hpu h(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    model::AdvancedModel m(h.params(), alg.recurrence(), static_cast<double>(n));
    const auto opt = m.optimize();
    EXPECT_NEAR(opt.alpha, 0.16, 0.04);
    EXPECT_NEAR(opt.y, 10.0, 1.5);
    EXPECT_NEAR(opt.gpu_work_share, 0.52, 0.06);

    std::vector<std::int32_t> dummy(n);
    trace::TraceSession session;
    AdvancedOptions adv;
    adv.exec.functional = false;
    adv.exec.trace = &session;
    run_advanced_hybrid(h, alg, std::span(dummy), opt.alpha,
                        static_cast<std::uint64_t>(std::llround(opt.y)), adv);

    const auto u = trace::derive_utilization(session, h.params(), alg.recurrence(),
                                             alg.device_ops_multiplier(h.params().gpu));
    // Exactly two transfers, and concurrent CPU/GPU phase spans.
    EXPECT_EQ(u.transfers, 2u);
    const trace::Span* gpu_phase = nullptr;
    const trace::Span* cpu_phase = nullptr;
    for (const auto& s : session.spans()) {
        if (s.kind != trace::SpanKind::kPhase) continue;
        if (s.label == "mergesort-coalesced/gpu-phase") gpu_phase = &s;
        if (s.label == "mergesort-coalesced/cpu-parallel") cpu_phase = &s;
    }
    ASSERT_NE(gpu_phase, nullptr);
    ASSERT_NE(cpu_phase, nullptr);
    EXPECT_LT(cpu_phase->start, gpu_phase->end);
    EXPECT_LT(gpu_phase->start, cpu_phase->end);
    // The span-derived GPU work share reproduces the model's prediction.
    EXPECT_NEAR(u.gpu_work_share, opt.gpu_work_share, 0.03);
    EXPECT_NEAR(u.gpu_work_share, 0.52, 0.06);
    // Pure model, analytic run: drift 1 everywhere.
    for (const auto& d : u.levels) EXPECT_NEAR(d.drift, 1.0, 1e-9);
}

}  // namespace
}  // namespace hpu::core
