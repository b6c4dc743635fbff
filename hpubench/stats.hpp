// Order statistics the benchmark reports: median and quartiles computed
// the way Python's statistics module computes them (so a result checked
// with statistics.quantiles(values, n=4) reads the same), the tail rule
// "highest percentile with at least ten samples beyond it", and ratios
// that keep their numerator and denominator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <vector>

namespace hpubench {

/// statistics.median: middle value, or the mean of the two middle values.
inline double median(std::vector<double> v) {
    if (v.empty()) throw std::invalid_argument("median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Median over passes of the mean sample in each pass, where values[i]
/// was taken in pass passes[i]. A loop that cycles through several inputs
/// of different cost (plan-sweep runs twelve configurations per pass) has a
/// pooled median that sits in the gap between two inputs, and on a host
/// whose speed flips between two levels every second or so a median of
/// single-threaded ops flips with it; a pass mean weights every input
/// equally and averages over the flips. With one sample per pass this is
/// median(v).
inline double pass_median(const std::vector<double>& v, const std::vector<std::size_t>& passes) {
    if (v.size() != passes.size()) throw std::invalid_argument("one pass id per sample");
    std::map<std::size_t, std::pair<double, std::size_t>> sum;  // pass -> (sum, count)
    for (std::size_t i = 0; i < v.size(); ++i) {
        sum[passes[i]].first += v[i];
        ++sum[passes[i]].second;
    }
    std::vector<double> means;
    for (const auto& entry : sum) {
        means.push_back(entry.second.first / static_cast<double>(entry.second.second));
    }
    return median(means);
}

struct Quartiles {
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
    /// (q3 - q1) / q2, the run-to-run spread the bounds are judged by.
    double spread() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

/// statistics.quantiles(v, n=4) with the default 'exclusive' method.
inline Quartiles quartiles(std::vector<double> v) {
    if (v.size() < 2) throw std::invalid_argument("quartiles need at least two samples");
    std::sort(v.begin(), v.end());
    const long long n = static_cast<long long>(v.size());
    const long long m = n + 1;
    double q[3];
    for (long long i = 1; i <= 3; ++i) {
        const long long j = std::clamp(i * m / 4, 1LL, n - 1);
        const long long delta = i * m - j * 4;  // after the clamp, as Python does
        const auto at = [&](long long k) { return v[static_cast<std::size_t>(k)]; };
        q[i - 1] = (at(j - 1) * static_cast<double>(4 - delta) +
                    at(j) * static_cast<double>(delta)) / 4.0;
    }
    return {q[0], q[1], q[2]};
}

/// The highest percentile of a sample set that still has at least
/// `min_beyond` samples above it: with the values sorted ascending, the
/// value at rank n - min_beyond - 1. `percentile` is the share of samples
/// at or below it (x100) and `beyond` the count strictly above its rank.
/// With n <= min_beyond no percentile qualifies; the minimum is returned
/// and `qualified` is false.
struct Tail {
    double value = 0.0;
    double percentile = 0.0;
    std::size_t beyond = 0;
    std::size_t samples = 0;
    bool qualified = false;
};

inline Tail tail(std::vector<double> v, std::size_t min_beyond = 10) {
    if (v.empty()) throw std::invalid_argument("tail of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const std::size_t rank = n > min_beyond ? n - min_beyond - 1 : 0;
    Tail t;
    t.value = v[rank];
    t.samples = n;
    t.beyond = n - rank - 1;
    t.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(n);
    t.qualified = t.beyond >= min_beyond;
    return t;
}

/// A ratio printed with its bases.
struct Ratio {
    double value = 0.0;
    double num = 0.0;
    double den = 0.0;
};

inline Ratio ratio(double num, double den) {
    if (!(den > 0.0)) throw std::invalid_argument("ratio base must be positive");
    return {num / den, num, den};
}

}  // namespace hpubench
