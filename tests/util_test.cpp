#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <queue>
#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/makespan.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace hpu::util {
namespace {

TEST(Check, ThrowsWithMessage) {
    try {
        HPU_CHECK(1 == 2, "one is not two");
        FAIL() << "expected HpuError";
    } catch (const HpuError& e) {
        EXPECT_NE(std::string(e.what()).find("one is not two"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    }
}

TEST(Check, PassesSilently) { EXPECT_NO_THROW(HPU_CHECK(2 + 2 == 4, "")); }

TEST(Math, IsPow2) {
    EXPECT_FALSE(is_pow2(0));
    EXPECT_TRUE(is_pow2(1));
    EXPECT_TRUE(is_pow2(2));
    EXPECT_FALSE(is_pow2(3));
    EXPECT_TRUE(is_pow2(1ull << 40));
    EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(Math, Ilog2) {
    EXPECT_EQ(ilog2(1), 0u);
    EXPECT_EQ(ilog2(2), 1u);
    EXPECT_EQ(ilog2(3), 1u);
    EXPECT_EQ(ilog2(4), 2u);
    EXPECT_EQ(ilog2(1ull << 33), 33u);
}

TEST(Math, CeilLog2) {
    EXPECT_EQ(ceil_log2(1), 0u);
    EXPECT_EQ(ceil_log2(2), 1u);
    EXPECT_EQ(ceil_log2(3), 2u);
    EXPECT_EQ(ceil_log2(5), 3u);
}

TEST(Math, CeilDiv) {
    EXPECT_EQ(ceil_div(0, 4), 0u);
    EXPECT_EQ(ceil_div(1, 4), 1u);
    EXPECT_EQ(ceil_div(4, 4), 1u);
    EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Math, Ipow) {
    EXPECT_EQ(ipow(2, 0), 1u);
    EXPECT_EQ(ipow(2, 10), 1024u);
    EXPECT_EQ(ipow(8, 3), 512u);
}

TEST(Math, LogbAndRound) {
    EXPECT_DOUBLE_EQ(logb(1024.0, 2.0), 10.0);
    EXPECT_NEAR(logb(8.0, 4.0), 1.5, 1e-12);
    EXPECT_THROW(logb(-1.0, 2.0), HpuError);
    EXPECT_EQ(iround(2.5), 3);
    EXPECT_EQ(iround(-2.5), -3);
    EXPECT_EQ(iround(2.4), 2);
}

TEST(Makespan, UniformMatchesClosedForm) {
    EXPECT_EQ(uniform_makespan(10, 5, 4), 15u);  // ceil(10/4)=3 rounds of 5
    EXPECT_EQ(uniform_makespan(4, 7, 4), 7u);
    EXPECT_EQ(uniform_makespan(1, 9, 8), 9u);
}

TEST(Makespan, UniformCostsViaGeneralPath) {
    std::vector<std::uint64_t> costs(10, 5);
    EXPECT_EQ(makespan(costs, 4), 15u);
}

TEST(Makespan, GreedyVsLpt) {
    // Arrival order {9, 1, 1, 1, 8} on 2 cores: greedy → core0: 9+1=10? no:
    // greedy: 9→c0, 1→c1, 1→c1, 1→c1, 8→c1 → loads {9, 11} → 11.
    // LPT: 9,8,1,1,1 → {9+1, 8+1+1} = {10, 10} → 10.
    std::vector<std::uint64_t> costs = {9, 1, 1, 1, 8};
    EXPECT_EQ(makespan(costs, 2, ListOrder::kArrival), 11u);
    EXPECT_EQ(makespan(costs, 2, ListOrder::kLpt), 10u);
}

TEST(Makespan, LowerBoundIsRespected) {
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::uint64_t> costs;
        std::uint64_t total = 0, cmax = 0;
        for (int i = 0; i < 30; ++i) {
            const auto c = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
            costs.push_back(c);
            total += c;
            cmax = std::max(cmax, c);
        }
        for (std::size_t p : {1u, 2u, 3u, 7u}) {
            const std::uint64_t ms = makespan(costs, p);
            EXPECT_GE(ms, cmax);
            EXPECT_GE(ms * p, total);                   // can't beat perfect balance
            EXPECT_LE(ms, total);                       // no worse than serial
            if (p == 1) {
                EXPECT_EQ(ms, total);
            }
        }
    }
}

TEST(Makespan, AssignmentConsistentWithMakespan) {
    std::vector<std::uint64_t> costs = {5, 3, 8, 2, 7, 1};
    const auto assign = list_assignment(costs, 3);
    ASSERT_EQ(assign.size(), costs.size());
    std::vector<std::uint64_t> loads(3, 0);
    for (std::size_t i = 0; i < costs.size(); ++i) {
        ASSERT_LT(assign[i], 3u);
        loads[assign[i]] += costs[i];
    }
    EXPECT_EQ(*std::max_element(loads.begin(), loads.end()), makespan(costs, 3));
}

TEST(Makespan, EmptyAndErrors) {
    std::vector<std::uint64_t> none;
    EXPECT_EQ(makespan(none, 4), 0u);
    EXPECT_THROW(makespan(none, 0), HpuError);
}

// Reference implementation of list scheduling (min-heap, ties broken on the
// core index) used to pin the uniform-cost fast paths to the general path.
std::vector<std::size_t> reference_assignment(const std::vector<std::uint64_t>& costs,
                                              std::size_t cores, ListOrder order) {
    std::vector<std::size_t> idx(costs.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    if (order == ListOrder::kLpt) {
        std::stable_sort(idx.begin(), idx.end(),
                         [&](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });
    }
    using Slot = std::pair<std::uint64_t, std::size_t>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
    for (std::size_t c = 0; c < cores; ++c) heap.emplace(0, c);
    std::vector<std::size_t> assign(costs.size());
    for (std::size_t i : idx) {
        auto [load, core] = heap.top();
        heap.pop();
        assign[i] = core;
        heap.emplace(load + costs[i], core);
    }
    return assign;
}

TEST(Makespan, UniformAssignmentMatchesGeneralPath) {
    // The production fast path kicks in for uniform costs; the reference
    // heap here has no fast path, so equality pins the round-robin claim.
    for (std::size_t m : {1u, 4u, 7u, 64u, 129u}) {
        for (std::size_t p : {1u, 2u, 3u, 8u, 200u}) {
            std::vector<std::uint64_t> costs(m, 17);
            for (auto order : {ListOrder::kArrival, ListOrder::kLpt}) {
                const auto fast = list_assignment(costs, p, order);
                const auto ref = reference_assignment(costs, p, order);
                EXPECT_EQ(fast, ref) << "m=" << m << " p=" << p;
                for (std::size_t i = 0; i < m; ++i) EXPECT_EQ(fast[i], i % p);
            }
        }
    }
}

TEST(Makespan, UniformMakespanMatchesGeneralPath) {
    // Force the general path by perturbing one cost back and forth: a
    // vector with a single distinct element exercises the heap, and
    // restoring uniformity must reproduce the closed form.
    for (std::size_t m : {3u, 10u, 100u}) {
        for (std::size_t p : {1u, 2u, 5u}) {
            std::vector<std::uint64_t> costs(m, 6);
            EXPECT_EQ(makespan(costs, p), uniform_makespan(m, 6, p));
            EXPECT_EQ(makespan(costs, p, ListOrder::kLpt), uniform_makespan(m, 6, p));
        }
    }
}

TEST(Makespan, NonUniformAssignmentUntouchedByFastPath) {
    std::vector<std::uint64_t> costs = {5, 3, 8, 2, 7, 1, 5, 5};
    for (auto order : {ListOrder::kArrival, ListOrder::kLpt}) {
        EXPECT_EQ(list_assignment(costs, 3, order), reference_assignment(costs, 3, order));
    }
}

TEST(ThreadPool, InlineModeRunsEverything) {
    ThreadPool pool(0);
    std::vector<int> hit(100, 0);
    pool.parallel_for(100, [&](std::size_t i) { hit[i] = 1; });
    EXPECT_EQ(std::count(hit.begin(), hit.end(), 1), 100);
}

TEST(ThreadPool, WorkersRunEverythingOnce) {
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesTaskException) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(10,
                                   [](std::size_t i) {
                                       if (i == 5) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // Pool must remain usable afterwards.
    std::atomic<int> n{0};
    pool.parallel_for(4, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 4);
}

TEST(ThreadPool, ZeroCountIsNoop) {
    ThreadPool pool(2);
    pool.parallel_for(0, [](std::size_t) { FAIL() << "should not run"; });
}

TEST(ThreadPool, NestedParallelForIsRejected) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(4,
                                   [&](std::size_t) {
                                       pool.parallel_for(2, [](std::size_t) {});
                                   }),
                 HpuError);
    // Non-reentrancy must not wedge the pool.
    std::atomic<int> n{0};
    pool.parallel_for(8, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, InlineModeAllowsNesting) {
    // With zero workers parallel_for is a plain loop, so nesting is legal —
    // the sequential reference configuration must not hit the reentrancy
    // check.
    ThreadPool pool(0);
    std::atomic<int> n{0};
    pool.parallel_for(3, [&](std::size_t) {
        pool.parallel_for(3, [&](std::size_t) { n.fetch_add(1); });
    });
    EXPECT_EQ(n.load(), 9);
}

TEST(ThreadPool, ManySmallBatchesStress) {
    // Submit/teardown churn: lots of tiny batches, including single-index
    // ones, exercising the batch lifecycle protocol far more often than the
    // chunk loop.
    ThreadPool pool(4);
    std::uint64_t total = 0;
    for (int round = 0; round < 2000; ++round) {
        std::atomic<std::uint64_t> sum{0};
        const std::size_t count = 1 + static_cast<std::size_t>(round % 7);
        pool.parallel_for(count, [&](std::size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), count * (count + 1) / 2);
        total += sum.load();
    }
    EXPECT_GT(total, 0u);
}

TEST(ThreadPool, LargeCountChunkedClaiming) {
    // Big enough that the auto grain hands out multi-index chunks; every
    // index must still be claimed exactly once.
    ThreadPool pool(3);
    const std::size_t n = 1 << 18;
    std::vector<std::atomic<std::uint8_t>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ExplicitGrainRunsEverythingOnce) {
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/7);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, FirstExceptionWinsAndSkipsRemainder) {
    // With grain 1 and a failure at index 0, the abandon flag must stop
    // not-yet-claimed chunks from running their bodies; exactly one error
    // reaches the caller either way.
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    try {
        pool.parallel_for(1 << 14,
                          [&](std::size_t i) {
                              if (i == 0) throw std::runtime_error("first");
                              ran.fetch_add(1, std::memory_order_relaxed);
                          },
                          /*grain=*/1);
        FAIL() << "expected exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "first");
    }
    EXPECT_LT(ran.load(), 1 << 14);  // some tail was abandoned
    // And the pool stays healthy.
    std::atomic<int> n{0};
    pool.parallel_for(16, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 16);
}

TEST(Table, AlignsAndPrints) {
    Table t({"name", "value"});
    t.add_row({std::string("alpha"), std::int64_t{42}});
    t.add_row({std::string("beta"), 3.14159});
    std::ostringstream os;
    t.print(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("3.1416"), std::string::npos);  // default precision 4
}

TEST(Table, CsvOutput) {
    Table t({"a", "b"});
    t.add_row({std::int64_t{1}, std::int64_t{2}});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsRaggedRows) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({std::int64_t{1}}), HpuError);
}

TEST(Cli, ParsesFlagsAndPositional) {
    const char* argv[] = {"prog", "--n=1024", "--alpha=0.25", "--verbose", "input.txt"};
    Cli cli(5, argv);
    EXPECT_EQ(cli.get_int("n", 0), 1024);
    EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 0.25);
    EXPECT_TRUE(cli.get_bool("verbose", false));
    EXPECT_FALSE(cli.get_bool("quiet", false));
    ASSERT_EQ(cli.positional().size(), 1u);
    EXPECT_EQ(cli.positional()[0], "input.txt");
    EXPECT_EQ(cli.get_int("missing", -7), -7);
}

TEST(Cli, RejectsValuesThatAreNotEntirelyNumbers) {
    const char* argv[] = {"prog",          "--lgmin",    "16",        "--n=16x", "--empty=",
                          "--big=99999999999999999999", "--huge=1e999", "--nan=nan",
                          "--neg=-3",      "--x=2.5e-3"};
    Cli cli(10, argv);
    // A bare switch ("--lgmin 16" instead of "--lgmin=16") is not a value.
    EXPECT_THROW(cli.get_int("lgmin", 0), HpuError);
    EXPECT_THROW(cli.get_double("lgmin", 0.0), HpuError);
    EXPECT_THROW(cli.get_int("n", 0), HpuError);
    EXPECT_THROW(cli.get_double("n", 0.0), HpuError);
    EXPECT_THROW(cli.get_int("empty", 0), HpuError);
    EXPECT_THROW(cli.get_double("empty", 0.0), HpuError);
    EXPECT_THROW(cli.get_int("big", 0), HpuError);
    EXPECT_THROW(cli.get_double("huge", 0.0), HpuError);
    EXPECT_THROW(cli.get_double("nan", 0.0), HpuError);
    EXPECT_THROW(cli.get_int("x", 0), HpuError);
    EXPECT_EQ(cli.get_int("neg", 0), -3);
    EXPECT_DOUBLE_EQ(cli.get_double("x", 0.0), 2.5e-3);
    try {
        cli.get_int("n", 0);
    } catch (const HpuError& e) {
        EXPECT_NE(std::string(e.what()).find("--n=16x"), std::string::npos) << e.what();
    }
}

TEST(Rng, Deterministic) {
    Rng a(123), b(123);
    EXPECT_EQ(a.int_vector(32, 0, 100), b.int_vector(32, 0, 100));
}

TEST(Rng, RespectsBounds) {
    Rng rng(5);
    for (auto v : rng.int_vector(1000, 10, 20)) {
        EXPECT_GE(v, 10);
        EXPECT_LE(v, 20);
    }
}

}  // namespace
}  // namespace hpu::util
