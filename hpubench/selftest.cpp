// Self-tests of the benchmark's own helpers: order statistics, ratios,
// the seeded generators and the ring workload's shape. Exit code 0 = all
// checks passed. Run through `python3 hpubench/run.py --self-test` or
// ctest in the benchmark's build directory.
#include <cmath>
#include <cstring>
#include <iostream>
#include <span>
#include <stdexcept>
#include <vector>

#include "algos/quickhull.hpp"
#include "core/executors.hpp"
#include "core/hybrid.hpp"
#include "inputs.hpp"
#include "platforms/platforms.hpp"
#include "stats.hpp"
#include "util/thread_pool.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        ++g_failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void test_tail() {
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    const hpubench::Tail t = hpubench::tail(v);
    check(t.value == 90.0 && t.beyond == 10 && t.samples == 100, "tail of 100 is p90");
    check(near(t.percentile, 90.0) && t.qualified, "tail of 100 qualifies at p90");

    const hpubench::Tail t11 = hpubench::tail({5, 4, 3, 2, 1, 6, 7, 8, 9, 10, 11});
    check(t11.value == 1.0 && t11.beyond == 10 && t11.qualified, "tail of 11 is the minimum");

    const hpubench::Tail t5 = hpubench::tail({3, 1, 2, 5, 4});
    check(!t5.qualified && t5.beyond == 4, "tail of 5 samples does not qualify");
}

void test_quartiles() {
    // Expected values from Python's statistics.quantiles(v, n=4).
    const hpubench::Quartiles a = hpubench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    check(near(a.q1, 2.75) && near(a.q2, 5.5) && near(a.q3, 8.25), "quartiles of 1..10");
    const hpubench::Quartiles b = hpubench::quartiles({4, 3, 2, 1});
    check(near(b.q1, 1.25) && near(b.q2, 2.5) && near(b.q3, 3.75), "quartiles of 1..4");
    const hpubench::Quartiles c = hpubench::quartiles({3, 1});
    check(near(c.q1, 0.5) && near(c.q2, 2.0) && near(c.q3, 3.5), "quartiles of two samples");
    const hpubench::Quartiles d = hpubench::quartiles({5, 1, 4, 2, 3});
    check(near(d.q1, 1.5) && near(d.q2, 3.0) && near(d.q3, 4.5), "quartiles of five");
    check(near(d.spread(), 1.0), "spread is IQR over the median");
    check(near(hpubench::median({4, 1, 3, 2}), 2.5) && hpubench::median({3, 1, 2}) == 2.0,
          "median of even and odd counts");
    // Two inputs per pass, a cheap one (1, 2, 3) and a dear one (10, 20,
    // 30): the pooled median (6.5) sits in the gap; the pass median is the
    // median of the pass means 5.5, 11, 16.5.
    check(near(hpubench::pass_median({1, 10, 2, 20, 3, 30}, {0, 0, 1, 1, 2, 2}), 11.0),
          "pass median is the median of pass means");
    check(near(hpubench::pass_median({4, 1, 3}, {0, 1, 2}), 3.0),
          "one sample per pass is the median");
}

void test_ratio() {
    const hpubench::Ratio r = hpubench::ratio(0.3, 0.6);
    check(near(r.value, 0.5) && r.num == 0.3 && r.den == 0.6, "ratio keeps its bases");
    bool threw = false;
    try {
        (void)hpubench::ratio(1.0, 0.0);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    check(threw, "ratio over a zero base is rejected");
}

void test_generators() {
    const auto k1 = hpubench::uniform_keys(7, 1 << 16, 1 << 17);
    const auto k2 = hpubench::uniform_keys(7, 1 << 16, 1 << 17);
    const auto k3 = hpubench::uniform_keys(8, 1 << 16, 1 << 17);
    check(same_bytes(k1, k2), "same seed gives identical keys");
    check(!same_bytes(k1, k3), "different seed gives different keys");
    bool in_range = true;
    for (std::int32_t k : k1) in_range = in_range && k >= 0 && k < (1 << 17);
    check(in_range, "keys lie in [0, hi)");

    const auto r1 = hpubench::ring_points(7, 1 << 14, 1e6, 50);
    const auto r2 = hpubench::ring_points(7, 1 << 14, 1e6, 50);
    const auto r3 = hpubench::ring_points(8, 1 << 14, 1e6, 50);
    check(same_bytes(r1, r2), "same seed gives identical ring points");
    check(!same_bytes(r1, r3), "different seed gives different ring points");
    bool on_ring = true;
    for (const auto& p : r1) {
        const double r = std::hypot(static_cast<double>(p.x), static_cast<double>(p.y));
        on_ring = on_ring && r >= 1e6 - 51 && r <= 1e6 + 1;
    }
    check(on_ring, "ring points lie within the ring's width");
}

void test_monotone_chain() {
    using hpu::algos::Pt;
    // A square with an interior point, a collinear edge point and a duplicate.
    const std::vector<Pt> pts = {{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {2, 0}, {4, 4}};
    const std::vector<Pt> ccw = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
    check(hpubench::monotone_chain(pts) == ccw, "monotone chain keeps strict vertices, ccw");

    // HullCheck: every strict vertex, sorted and unique; extra points only
    // if they are input points on a hull edge.
    const hpubench::HullCheck hc(pts);
    const auto accepts = [&](const std::vector<Pt>& h) { return hc.accepts(h.data(), h.size()); };
    check(accepts({{0, 0}, {0, 4}, {4, 0}, {4, 4}}) == 0, "exact strict hull accepted");
    check(accepts({{0, 0}, {0, 4}, {2, 0}, {4, 0}, {4, 4}}) == 1,
          "input point on a hull edge accepted as an extra");
    check(accepts({{0, 0}, {0, 4}, {2, 2}, {4, 0}, {4, 4}}) < 0, "interior point rejected");
    check(accepts({{0, 0}, {0, 2}, {0, 4}, {4, 0}, {4, 4}}) < 0,
          "edge point that is not an input point rejected");
    check(accepts({{0, 0}, {0, 4}, {4, 0}}) < 0, "missing vertex rejected");
    check(accepts({{0, 4}, {0, 0}, {4, 0}, {4, 4}}) < 0, "unsorted hull rejected");
    check(accepts({{0, 0}, {0, 4}, {4, 0}, {4, 0}, {4, 4}}) < 0, "duplicate point rejected");
}

// The qhull-ring workload's shape (2^20 points, radius 1e6, width 25):
// thousands of hull points and a deep, wide task tree, and quickhull's
// output passes the hull check on it.
void test_ring_shape() {
    const std::size_t n = std::size_t{1} << 20;
    const auto pts = hpubench::ring_points(1, n, 1e6, 25);
    const hpubench::HullCheck hull(pts);
    check(hull.vertices() >= 6500 && hull.vertices() <= 8000, "ring hull has 6.5k..8k vertices");

    hpu::util::ThreadPool pool(2);
    hpu::sim::Hpu h(hpu::platforms::by_name("HPU1").params, &pool);
    hpu::algos::Quickhull qh;
    std::vector<hpu::algos::Pt> work = pts;
    hpu::core::AdvancedOptions adv;
    adv.exec.validate = false;
    adv.exec.verify = false;
    adv.exec.observe = false;
    const hpu::core::ExecReport rep =
        hpu::core::run_advanced_hybrid(h, qh, std::span<hpu::algos::Pt>(work), 0.3, 2, adv);
    check(hull.accepts(work.data(), qh.hull_count()) >= 0, "quickhull passes the hull check");
    check(rep.tasks_spawned >= 13000 && rep.tasks_spawned <= 16000,
          "ring spawns 13k..16k quickhull tasks");
    check(rep.levels_cpu + rep.levels_gpu >= 14, "ring tree is at least 14 levels deep");
    std::cout << "ring: hull " << hull.vertices() << " vertices, quickhull " << qh.hull_count()
              << " points, tasks " << rep.tasks_spawned << ", levels cpu "
              << rep.levels_cpu << " gpu " << rep.levels_gpu << "\n";
}

}  // namespace

int main() {
    test_tail();
    test_quartiles();
    test_ratio();
    test_generators();
    test_monotone_chain();
    test_ring_shape();
    if (g_failures != 0) {
        std::cerr << g_failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "hpubench self-test: all checks passed\n";
    return 0;
}
