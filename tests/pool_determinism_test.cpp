// Pooled-vs-inline determinism sweep: the tentpole invariant of the
// host-parallel functional engine is that a util::ThreadPool accelerates
// wall-clock only. Every algorithm × executor × mode must produce
// bit-identical ExecReports, trace span trees, output arrays, and analysis
// findings whether the functional bodies ran inline (workers = 0) or
// across a pool (workers = hardware_concurrency). The sweep also pins the
// raw sim layer: Device launches with non-uniform item costs and CpuUnit
// levels keep their LaunchResult / LevelResult — including the
// per-category OpCounter split — exactly equal under pooling.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "algos/binary_reduce.hpp"
#include "algos/closest_pair.hpp"
#include "algos/karatsuba.hpp"
#include "algos/mergesort.hpp"
#include "algos/mergesort_blocked.hpp"
#include "algos/parallel_tail.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "platforms/platforms.hpp"
#include "trace/span.hpp"
#include "util/thread_pool.hpp"

namespace hpu::core {
namespace {

std::size_t pooled_workers() {
    return std::max(2u, std::thread::hardware_concurrency());
}

/// Small machine tuned so deep levels span several waves (g = 64) and the
/// CPU schedules across several virtual cores — both pooled code paths get
/// real multi-chunk work.
sim::HpuParams small_hw() {
    sim::HpuParams hw = platforms::hpu1();
    hw.name = "determinism-sweep";
    hw.cpu.p = 4;
    hw.cpu.contention = 0.0;
    hw.gpu.g = 64;
    return hw;
}

struct AlgoCase {
    std::unique_ptr<LevelAlgorithm<std::int32_t>> alg;
    std::uint64_t base = 1;
};

std::vector<AlgoCase> algo_cases() {
    std::vector<AlgoCase> cases;
    cases.push_back({std::make_unique<algos::MergesortPlain<std::int32_t>>(), 1});
    cases.push_back({std::make_unique<algos::MergesortCoalesced<std::int32_t>>(), 1});
    cases.push_back({std::make_unique<algos::MergesortBlocked<std::int32_t>>(4), 4});
    cases.push_back(
        {std::make_unique<algos::DcSum<std::int32_t>>(algos::make_sum<std::int32_t>()), 1});
    cases.push_back(
        {std::make_unique<algos::DcMax<std::int32_t>>(algos::make_max<std::int32_t>()), 1});
    cases.push_back(
        {std::make_unique<algos::DcMin<std::int32_t>>(algos::make_min<std::int32_t>()), 1});
    return cases;
}

std::vector<std::int32_t> make_input(std::uint64_t n) {
    std::vector<std::int32_t> v(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = static_cast<std::int32_t>(x % 10000);
    }
    return v;
}

/// Everything one run produces that the invariant covers. Templated on the
/// element type so the irregular algorithms (Pt, int64) ride the same sweep.
template <typename T>
struct RunArtifacts {
    ExecReport rep;
    std::vector<trace::Span> spans;
    std::vector<T> out;
    std::vector<std::string> findings;
    std::uint64_t launches_checked = 0;
    std::uint64_t launches_skipped = 0;
    std::uint64_t findings_suppressed = 0;
};

constexpr const char* kExecutors[] = {"sequential", "multicore", "gpu",
                                      "basic",      "advanced",  "pipelined"};

template <typename T>
RunArtifacts<T> run_one(util::ThreadPool* pool, int executor, const LevelAlgorithm<T>& alg,
                        const std::vector<T>& input, bool functional,
                        std::uint64_t g = small_hw().gpu.g) {
    sim::HpuParams hw = small_hw();
    hw.gpu.g = g;
    sim::Hpu h(hw, pool);
    trace::TraceSession ts;
    ExecOptions opts;
    opts.functional = functional;
    opts.validate = functional;  // analysis findings are part of the invariant
    opts.trace = &ts;

    RunArtifacts<T> art;
    art.out = input;
    std::span<T> data(art.out);
    switch (executor) {
        case 0: art.rep = run_sequential(h.cpu(), alg, data, opts); break;
        case 1: art.rep = run_multicore(h.cpu(), alg, data, opts); break;
        case 2: art.rep = run_gpu(h, alg, data, opts); break;
        case 3: art.rep = run_basic_hybrid(h, alg, data, opts); break;
        case 4: {
            AdvancedOptions adv;
            adv.exec = opts;
            art.rep = run_advanced_hybrid(h, alg, data, 0.3, 2, adv);
            break;
        }
        default: {
            PipelinedOptions pip;
            pip.chunks = 4;
            pip.exec = opts;
            art.rep = run_pipelined_hybrid(h, alg, data, 0.3, 2, pip);
            break;
        }
    }
    art.spans = ts.spans();
    for (const auto& f : art.rep.analysis.findings) art.findings.push_back(f.message());
    art.launches_checked = art.rep.analysis.launches_checked;
    art.launches_skipped = art.rep.analysis.launches_skipped;
    art.findings_suppressed = art.rep.analysis.findings_suppressed;
    return art;
}

template <typename T>
void expect_identical(const RunArtifacts<T>& a, const RunArtifacts<T>& b) {
    // ExecReport, field by field, exact (doubles included: the fold order
    // is pinned, so even floating maxima must match bit for bit).
    EXPECT_EQ(a.rep.total, b.rep.total);
    EXPECT_EQ(a.rep.cpu_busy, b.rep.cpu_busy);
    EXPECT_EQ(a.rep.gpu_busy, b.rep.gpu_busy);
    EXPECT_EQ(a.rep.transfer, b.rep.transfer);
    EXPECT_EQ(a.rep.finish, b.rep.finish);
    EXPECT_EQ(a.rep.levels_cpu, b.rep.levels_cpu);
    EXPECT_EQ(a.rep.levels_gpu, b.rep.levels_gpu);
    EXPECT_EQ(a.rep.alpha_effective, b.rep.alpha_effective);
    EXPECT_EQ(a.rep.chunks, b.rep.chunks);
    EXPECT_EQ(a.rep.tasks_spawned, b.rep.tasks_spawned);

    // Functional results.
    EXPECT_EQ(a.out, b.out);

    // Analysis findings.
    EXPECT_EQ(a.findings, b.findings);
    EXPECT_EQ(a.launches_checked, b.launches_checked);
    EXPECT_EQ(a.launches_skipped, b.launches_skipped);
    EXPECT_EQ(a.findings_suppressed, b.findings_suppressed);

    // Trace span trees, field by field.
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        const trace::Span& sa = a.spans[i];
        const trace::Span& sb = b.spans[i];
        SCOPED_TRACE(::testing::Message() << "span " << i << " label=" << sa.label);
        EXPECT_EQ(sa.id, sb.id);
        EXPECT_EQ(sa.parent, sb.parent);
        EXPECT_EQ(sa.kind, sb.kind);
        EXPECT_EQ(sa.unit, sb.unit);
        EXPECT_EQ(sa.label, sb.label);
        EXPECT_EQ(sa.start, sb.start);
        EXPECT_EQ(sa.end, sb.end);
        EXPECT_EQ(sa.attrs.level, sb.attrs.level);
        EXPECT_EQ(sa.attrs.tasks, sb.attrs.tasks);
        EXPECT_EQ(sa.attrs.items, sb.attrs.items);
        EXPECT_EQ(sa.attrs.waves, sb.attrs.waves);
        EXPECT_EQ(sa.attrs.ops, sb.attrs.ops);
        EXPECT_EQ(sa.attrs.work, sb.attrs.work);
        EXPECT_EQ(sa.attrs.bytes, sb.attrs.bytes);
        EXPECT_EQ(sa.attrs.coalesced_transactions, sb.attrs.coalesced_transactions);
        EXPECT_EQ(sa.attrs.strided_transactions, sb.attrs.strided_transactions);
        EXPECT_EQ(sa.attrs.extent_words, sb.attrs.extent_words);
        EXPECT_EQ(sa.attrs.imbalance, sb.attrs.imbalance);
    }
}

TEST(PoolDeterminism, AllAlgorithmsExecutorsAndModes) {
    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(pooled_workers());
    for (const AlgoCase& c : algo_cases()) {
        const std::uint64_t n = c.base << 10;  // 10 levels: several waves at g = 64
        const auto input = make_input(n);
        for (const bool functional : {true, false}) {
            for (int e = 0; e < 6; ++e) {
                SCOPED_TRACE(::testing::Message()
                             << "alg=" << c.alg->name() << " executor=" << kExecutors[e]
                             << " functional=" << functional
                             << " workers=" << pool.worker_count());
                const auto serial = run_one(&inline_pool, e, *c.alg, input, functional);
                const auto pooled = run_one(&pool, e, *c.alg, input, functional);
                expect_identical(serial, pooled);
                // A null pool is the same configuration as a zero-worker one.
                const auto nopool = run_one(nullptr, e, *c.alg, input, functional);
                expect_identical(serial, nopool);
            }
        }
    }
}

/// Full executor × mode sweep for one irregular algorithm: pooled, inline,
/// and null-pool runs must agree on everything RunArtifacts covers — the
/// dynamically produced task lists (and so tasks_spawned, level spans, and
/// the per-level width/imbalance attrs) included.
template <typename T>
void sweep_irregular(const LevelAlgorithm<T>& alg, const std::vector<T>& input,
                     util::ThreadPool& inline_pool, util::ThreadPool& pool) {
    for (const bool functional : {true, false}) {
        for (int e = 0; e < 6; ++e) {
            SCOPED_TRACE(::testing::Message()
                         << "alg=" << alg.name() << " executor=" << kExecutors[e]
                         << " functional=" << functional << " n=" << input.size());
            const auto serial = run_one(&inline_pool, e, alg, input, functional);
            const auto pooled = run_one(&pool, e, alg, input, functional);
            expect_identical(serial, pooled);
            const auto nopool = run_one<T>(nullptr, e, alg, input, functional);
            expect_identical(serial, nopool);
            EXPECT_GT(serial.rep.tasks_spawned, 0u);  // the irregular path ran
        }
    }
}

TEST(PoolDeterminism, IrregularAlgorithmsExecutorsAndModes) {
    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(pooled_workers());

    // Deterministic scattered points, non-power-of-two count.
    std::vector<algos::Pt> pts(300);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& p : pts) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.x = static_cast<std::int64_t>(x % 4001);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.y = static_cast<std::int64_t>(x % 4001);
    }

    algos::Quickhull qh;
    sweep_irregular<algos::Pt>(qh, pts, inline_pool, pool);

    algos::ClosestPair cp;
    sweep_irregular<algos::Pt>(cp, pts, inline_pool, pool);

    // Karatsuba input is two size-160 operands back to back.
    std::vector<std::int64_t> coeffs(2 * 160);
    for (auto& c : coeffs) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c = static_cast<std::int64_t>(x % 201) - 100;
    }
    algos::KaratsubaArray ka;
    sweep_irregular<std::int64_t>(ka, coeffs, inline_pool, pool);
}

// Raw device layer: non-uniform per-item charges across several waves.
// The pooled fold must reproduce the serial max/sum sequence exactly —
// LaunchResult, DeviceStats, and the per-wave trace records all match —
// and a tiled launch must match one-item-at-a-time launches: every item
// runs once and no tile crosses a wave, whatever the wave width (g no
// multiple of the tile width, a partial last wave, a single item).
TEST(PoolDeterminism, DeviceNonUniformWavesMatchSerial) {
    auto charge = [](std::uint64_t id, sim::OpCounter& ops) {
        ops.charge_compute(1 + (id * 2654435761ull) % 97);
        ops.charge_mem(1 + id % 5, sim::Pattern::kCoalesced);
        if (id % 3 == 0) ops.charge_mem(2, sim::Pattern::kStrided);
    };
    auto kernel = [&](sim::WorkItem& wi) { charge(wi.global_id(), wi.ops()); };
    util::ThreadPool pool(pooled_workers());
    struct Run {
        sim::LaunchResult r;
        std::vector<sim::WaveTrace> waves;
        sim::Ticks busy = 0.0;
    };
    for (const std::uint64_t g : {8u, 12u, 100u, 4096u}) {
        for (const std::uint64_t n : {1u, 5u, 1000u, 1001u, 20000u}) {
            sim::DeviceParams dp = small_hw().gpu;
            dp.g = g;
            std::vector<std::uint32_t> runs(n, 0);
            std::atomic<std::uint64_t> crossings{0};  // tiles spanning two waves
            auto tile = [&](std::uint64_t first, std::span<sim::OpCounter> ops) {
                if (first / g != (first + ops.size() - 1) / g) ++crossings;
                for (std::uint64_t i = 0; i < ops.size(); ++i) {
                    ++runs[first + i];  // the items of one launch are distinct
                    charge(first + i, ops[i]);
                }
            };
            auto launch = [&](util::ThreadPool* p, bool tiled) {
                sim::Device dev(dp, p);
                Run run;
                dev.set_wave_trace(&run.waves);
                run.r = tiled ? dev.launch_tiled(n, tile) : dev.launch(n, kernel);
                run.busy = dev.stats().busy_time;
                return run;
            };
            const Run serial = launch(nullptr, false);
            for (const auto& [p, tiled] :
                 {std::pair<util::ThreadPool*, bool>{&pool, false}, {&pool, true},
                  {nullptr, true}}) {
                SCOPED_TRACE(::testing::Message() << "g=" << g << " items=" << n
                                                  << " pooled=" << (p != nullptr)
                                                  << " tiled=" << tiled);
                std::fill(runs.begin(), runs.end(), 0u);
                const Run other = launch(p, tiled);
                if (tiled) {
                    EXPECT_EQ(crossings.load(), 0u);
                    EXPECT_EQ(std::count(runs.begin(), runs.end(), 1u),
                              static_cast<std::ptrdiff_t>(n));
                }
                const sim::LaunchResult& rs = serial.r;
                const sim::LaunchResult& rp = other.r;
                EXPECT_EQ(rs.time, rp.time);
                EXPECT_EQ(rs.items, rp.items);
                EXPECT_EQ(rs.waves, rp.waves);
                EXPECT_EQ(rs.max_item_ops, rp.max_item_ops);
                EXPECT_EQ(rs.total_ops.compute, rp.total_ops.compute);
                EXPECT_EQ(rs.total_ops.mem_coalesced, rp.total_ops.mem_coalesced);
                EXPECT_EQ(rs.total_ops.mem_strided, rp.total_ops.mem_strided);
                EXPECT_EQ(serial.busy, other.busy);

                ASSERT_EQ(serial.waves.size(), other.waves.size());
                for (std::size_t w = 0; w < serial.waves.size(); ++w) {
                    SCOPED_TRACE(::testing::Message() << "wave " << w);
                    const sim::WaveTrace& a = serial.waves[w];
                    const sim::WaveTrace& b = other.waves[w];
                    EXPECT_EQ(a.first_item, b.first_item);
                    EXPECT_EQ(a.items, b.items);
                    EXPECT_EQ(a.duration, b.duration);
                    EXPECT_EQ(a.max_item_ops, b.max_item_ops);
                    EXPECT_EQ(a.ops.compute, b.ops.compute);
                    EXPECT_EQ(a.ops.mem_coalesced, b.ops.mem_coalesced);
                    EXPECT_EQ(a.ops.mem_strided, b.ops.mem_strided);
                }
            }
        }
    }
}

/// The coalesced mergesort with the default tile hook: every work-item
/// runs alone through run_device_task — the single-item reference for the
/// staged tile body.
template <typename T>
class OneItemCoalesced final : public algos::MergesortCoalesced<T> {
public:
    void run_device_tile(std::span<T> data, std::uint64_t count, std::uint64_t first,
                         std::span<sim::OpCounter> ops) const override {
        LevelAlgorithm<T>::run_device_tile(data, count, first, ops);
    }
};

// Tiled device levels of the coalesced mergesort, pooled, must match an
// inline run that launches one item at a time: output bytes, reports, span
// trees, and (validate on) the per-item logs and the schedule-independence
// re-run. n = 2^16 gives pooled claims of many adjacent tasks at every
// staged level; g = 24 cuts them at wave boundaries that are no multiple
// of the tile width, and small task counts leave partial tiles. The
// pipelined executor enters the device mid-tree (before_gpu_levels
// interleaves), and the §7 parallel-tail schedule runs the same tiles.
TEST(PoolDeterminism, TiledCoalescedMatchesOneItemLaunches) {
    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(pooled_workers());
    const std::uint64_t n = std::uint64_t{1} << 16;
    const auto input = make_input(n);
    std::vector<std::int32_t> want(input);
    std::sort(want.begin(), want.end());
    const algos::MergesortCoalesced<std::int32_t> tiled;
    const OneItemCoalesced<std::int32_t> one_item;
    for (const std::uint64_t g : {24u, 64u}) {
        for (const int e : {2, 3, 4, 5}) {
            SCOPED_TRACE(::testing::Message() << "g=" << g << " executor=" << kExecutors[e]);
            const auto reference = run_one(&inline_pool, e, one_item, input, true, g);
            const auto pooled = run_one(&pool, e, tiled, input, true, g);
            expect_identical(reference, pooled);
            EXPECT_EQ(pooled.out, want);
            EXPECT_GT(pooled.launches_checked, 0u);  // validate ran on the levels
        }
    }

    std::vector<algos::ParallelTailReport> reps;
    for (util::ThreadPool* p : {&inline_pool, &pool}) {
        sim::Hpu h(small_hw(), p);
        std::vector<std::int32_t> data(input);
        reps.push_back(algos::mergesort_gpu_parallel_tail(h, std::span(data), 4));
        EXPECT_EQ(data, want);
    }
    EXPECT_EQ(reps[0].total, reps[1].total);
    EXPECT_EQ(reps[0].deep_kernels, reps[1].deep_kernels);
    EXPECT_EQ(reps[0].tail_kernels, reps[1].tail_kernels);
}

// Raw CPU layer: the pooled fold must keep the full per-category OpCounter
// split (compute / coalesced / strided), not just the scalar totals — the
// regression this test pins collapsed everything into `compute`.
TEST(PoolDeterminism, CpuLevelKeepsCategorySplit) {
    sim::CpuParams cp = small_hw().cpu;
    auto task = [](std::uint64_t i, sim::OpCounter& ops) {
        ops.charge_compute(3 + i % 11);
        ops.charge_mem(2 + i % 4, sim::Pattern::kCoalesced);
        if (i % 2 == 0) ops.charge_mem(1 + i % 3, sim::Pattern::kStrided);
    };

    sim::CpuUnit serial(cp);
    const sim::LevelResult rs = serial.run_level(777, task);

    util::ThreadPool pool(pooled_workers());
    sim::CpuUnit pooled(cp, &pool);
    const sim::LevelResult rp = pooled.run_level(777, task);

    EXPECT_EQ(rs.time, rp.time);
    EXPECT_EQ(rs.tasks, rp.tasks);
    EXPECT_EQ(rs.max_task_ops, rp.max_task_ops);
    EXPECT_EQ(rs.total_ops.compute, rp.total_ops.compute);
    EXPECT_EQ(rs.total_ops.mem_coalesced, rp.total_ops.mem_coalesced);
    EXPECT_EQ(rs.total_ops.mem_strided, rp.total_ops.mem_strided);
    EXPECT_GT(rp.total_ops.mem_coalesced, 0u);  // the split actually survived
    EXPECT_GT(rp.total_ops.mem_strided, 0u);
}

}  // namespace
}  // namespace hpu::core
