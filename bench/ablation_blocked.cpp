// §7 future-work ablation: "switch to non-recursive sequential versions of
// the algorithms at the lowest levels of the tree … the optimal switching
// level would have to be determined analytically or experimentally".
// Sweeps the base block size of blocked mergesort on both units.
#include "algos/mergesort_blocked.hpp"

#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 18));
    const auto spec = platforms::by_name(cli.get("platform", "HPU1"));
    sim::HpuParams hw = spec.params;
    hw.gpu.launch_overhead = cli.get_double("launch-overhead", 5000.0);

    core::ExecOptions opts;
    opts.functional = cli.get_bool("functional", true);  // leaf costs are data-dependent

    util::Rng rng(9);
    const auto base = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));

    std::cout << "Blocked-base ablation (" << spec.name << "), mergesort, n=" << n
              << ", launch overhead " << hw.gpu.launch_overhead << "\n";
    util::Table t({"block", "t(1-core)", "t(multicore)", "t(gpu kernels)"}, 0);
    for (std::uint64_t block : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
        algos::MergesortBlocked<std::int32_t> alg(block);
        sim::Hpu h(hw);
        auto d1 = base;
        const auto seq = core::run_sequential(h.cpu(), alg, std::span(d1), opts);
        auto d2 = base;
        const auto mc = core::run_multicore(h.cpu(), alg, std::span(d2), opts);
        auto d3 = base;
        const auto gp = core::run_gpu(h, alg, std::span(d3), opts, false);
        t.add_row({static_cast<std::int64_t>(block), seq.total, mc.total, gp.gpu_busy});
    }
    bench::emit(t, cli);
    std::cout << "\n(the CPU optimum sits at small blocks — insertion sort's quadratic\n"
                 " leaf cost bites early; the GPU optimum sits later because each removed\n"
                 " level also removes a kernel launch)\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
