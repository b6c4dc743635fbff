// Seeded workload inputs and the benchmark's own reference results.
//
// The generators use std::mt19937_64 with explicit integer/real mappings
// (not the standard distributions, whose algorithms are left to the
// library), so one seed gives the same bytes with any standard library.
// Nothing here calls into the hpu library except for the point type.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "algos/geometry.hpp"

namespace hpubench {

/// Uniform in [0, 1) from the top 53 bits of one draw.
inline double unit_real(std::mt19937_64& eng) {
    return static_cast<double>(eng() >> 11) * 0x1.0p-53;
}

/// `n` keys uniform in [0, hi) (hi >= 1). The modulo bias is below
/// hi / 2^64 and irrelevant to a sort benchmark.
inline std::vector<std::int32_t> uniform_keys(std::uint64_t seed, std::size_t n,
                                              std::uint64_t hi) {
    std::mt19937_64 eng(seed);
    std::vector<std::int32_t> v(n);
    for (auto& x : v) x = static_cast<std::int32_t>(eng() % hi);
    return v;
}

/// `n` integer points on a thin ring centred at the origin: angle uniform,
/// radius uniform in [radius - width, radius]. A ring puts thousands of
/// points on the hull, so quickhull's task tree is deep and wide.
inline std::vector<hpu::algos::Pt> ring_points(std::uint64_t seed, std::size_t n, double radius,
                                               double width) {
    std::mt19937_64 eng(seed);
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    std::vector<hpu::algos::Pt> pts(n);
    for (auto& p : pts) {
        const double theta = kTwoPi * unit_real(eng);
        const double r = radius - width * unit_real(eng);
        p.x = std::llround(r * std::cos(theta));
        p.y = std::llround(r * std::sin(theta));
    }
    return pts;
}

/// Twice the signed area of (o, a, b): > 0 when b is left of o->a. Exact
/// for coordinates below 2^30 in magnitude, which the ring workload keeps.
inline std::int64_t orient(const hpu::algos::Pt& o, const hpu::algos::Pt& a,
                           const hpu::algos::Pt& b) {
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x);
}

/// Andrew's monotone chain: the strict vertices of the convex hull of
/// `pts` (collinear and duplicate points dropped) in counter-clockwise
/// order from the lexicographically smallest. Single-threaded; this is the
/// reference quickhull is timed and checked against.
inline std::vector<hpu::algos::Pt> monotone_chain(std::vector<hpu::algos::Pt> pts) {
    using hpu::algos::Pt;
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    if (pts.size() < 3) return pts;
    std::vector<Pt> hull(2 * pts.size());
    std::size_t k = 0;
    for (const Pt& p : pts) {
        while (k >= 2 && orient(hull[k - 2], hull[k - 1], p) <= 0) --k;
        hull[k++] = p;
    }
    const std::size_t lower = k + 1;
    for (std::size_t i = pts.size() - 1; i-- > 0;) {
        while (k >= lower && orient(hull[k - 2], hull[k - 1], pts[i]) <= 0) --k;
        hull[k++] = pts[i];
    }
    hull.resize(k - 1);  // the last point repeats the first
    return hull;
}

/// Checks a hull as quickhull reports it: sorted, unique points that
/// include every strict vertex of the true hull. Quickhull may also mark
/// input points that lie on a hull edge (when two candidates tie for
/// farthest from an edge, the smaller index wins and can be the collinear
/// one — the library's property test allows this too); each such extra
/// point must be an input point lying on an edge between two strict
/// vertices. Anything else is a wrong hull.
class HullCheck {
public:
    explicit HullCheck(const std::vector<hpu::algos::Pt>& input)
        : sorted_input_(input), ccw_(monotone_chain(input)), vertices_(ccw_) {
        std::sort(sorted_input_.begin(), sorted_input_.end());
        std::sort(vertices_.begin(), vertices_.end());
    }

    std::size_t vertices() const { return vertices_.size(); }

    /// Returns the number of extra (edge, non-vertex) points in `hull`, or
    /// -1 when `hull` is not an acceptable quickhull output.
    long accepts(const hpu::algos::Pt* hull, std::size_t count) const {
        using hpu::algos::Pt;
        if (count < vertices_.size()) return -1;
        for (std::size_t i = 1; i < count; ++i) {
            if (!(hull[i - 1] < hull[i])) return -1;  // sorted and unique
        }
        std::size_t v = 0;
        long extra = 0;
        for (std::size_t i = 0; i < count; ++i) {
            if (v < vertices_.size() && hull[i] == vertices_[v]) {
                ++v;
                continue;
            }
            if (!on_edge(hull[i]) ||
                !std::binary_search(sorted_input_.begin(), sorted_input_.end(), hull[i])) {
                return -1;
            }
            ++extra;
        }
        return v == vertices_.size() ? extra : -1;
    }

private:
    bool on_edge(const hpu::algos::Pt& p) const {
        for (std::size_t i = 0; i < ccw_.size(); ++i) {
            const hpu::algos::Pt& a = ccw_[i];
            const hpu::algos::Pt& b = ccw_[(i + 1) % ccw_.size()];
            if (orient(a, b, p) == 0 && std::min(a.x, b.x) <= p.x &&
                p.x <= std::max(a.x, b.x) && std::min(a.y, b.y) <= p.y &&
                p.y <= std::max(a.y, b.y)) {
                return true;
            }
        }
        return false;
    }

    std::vector<hpu::algos::Pt> sorted_input_;
    std::vector<hpu::algos::Pt> ccw_;
    std::vector<hpu::algos::Pt> vertices_;  ///< strict vertices, sorted
};

}  // namespace hpubench
