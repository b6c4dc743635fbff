// The genericity claim (§4): three very different divide-and-conquer
// problems — array sum, maximum subarray, and 8-way matrix multiplication —
// all run unchanged through the recursive (Alg. 1) and breadth-first
// (Alg. 2) drivers. The breadth-first order is what a GPU would execute,
// one kernel per level; the point of the paper is that this rewrite is
// mechanical.
#include <iostream>
#include <numeric>

#include "algos/binary_reduce.hpp"
#include "algos/dc_problems.hpp"
#include "core/executors.hpp"
#include "core/generic.hpp"
#include "platforms/platforms.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

static int main_body(int /*argc*/, char** /*argv*/) {
    using namespace hpu;
    util::Rng rng(7);

    // 1. Sum.
    std::vector<std::int64_t> v(1000);
    for (auto& x : v) x = rng.uniform_int(-50, 50);
    const algos::GenericSum sum;
    std::cout << "sum:           recursive=" << core::run_recursive(sum, {v})
              << "  breadth-first=" << core::run_breadth_first(sum, {v})
              << "  std::accumulate=" << std::accumulate(v.begin(), v.end(), 0ll) << "\n";

    // 2. Maximum subarray (non-trivial combine state: 4 aggregates).
    const algos::MaxSubarray ms;
    const auto r1 = core::run_recursive(ms, {v});
    const auto r2 = core::run_breadth_first(ms, {v});
    std::cout << "max subarray:  recursive=" << r1.best << "  breadth-first=" << r2.best << "\n";

    // 3. Matrix multiplication (a=8: eight-way recursion, matrix results).
    const std::size_t dim = 16;
    algos::Matrix a = algos::Matrix::zero(dim), b = algos::Matrix::zero(dim);
    for (auto& x : a.v) x = rng.uniform_real(-1, 1);
    for (auto& x : b.v) x = rng.uniform_real(-1, 1);
    const algos::GenericMatmul mm;
    const auto c1 = core::run_recursive(mm, {a, b});
    const auto c2 = core::run_breadth_first(mm, {a, b});
    double max_diff = 0;
    for (std::size_t i = 0; i < dim * dim; ++i) {
        max_diff = std::max(max_diff, std::abs(c1.v[i] - c2.v[i]));
    }
    std::cout << "matmul 16x16:  max |recursive - breadth-first| = " << max_diff << "\n\n";

    // 4. And the Layer-2 reductions on the simulated HPU: the same D&C sum,
    // now as level kernels on the device.
    sim::Hpu machine(platforms::hpu2());
    auto ints = rng.int_vector(1 << 16, -100, 100);
    const std::int64_t expect = std::accumulate(ints.begin(), ints.end(), 0ll);
    const auto lvl_sum = algos::make_sum<std::int32_t>();
    const auto rep = core::run_gpu(machine, lvl_sum, std::span(ints));
    std::cout << "Layer-2 dc-sum on the " << machine.params().name
              << " device: result=" << ints[0] << " (expect " << expect << "), "
              << rep.levels_gpu << " kernel launches, " << rep.gpu_busy << " ticks\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
