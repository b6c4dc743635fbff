// §7 future-work ablation: "the recursive schedule could be stopped at a
// certain level of the tree, after which parallel versions of the gpu
// kernels could be executed". Sweeps the switch level of the GPU-resident
// parallel-tail mergesort and compares against the generic-only and
// all-parallel extremes and the advanced hybrid.
#include "algos/parallel_tail.hpp"

#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 20));
    const auto spec = platforms::by_name(cli.get("platform", "HPU1"));
    const std::uint64_t L = util::ilog2(n);

    core::ExecOptions opts = bench::exec_options(cli);
    const sim::Ticks seq =
        bench::sequential_mergesort_time(spec.params, n, opts, bench::input_seed(cli, n));

    std::cout << "Parallel-tail ablation (" << spec.name << "), mergesort, n=" << n
              << " (L=" << L << ", auto switch at ceil(log2 g)="
              << util::ceil_log2(spec.params.gpu.g) << ")\n";
    util::Table t({"switch level", "t(deep kernels)", "t(parallel tail)", "t(total)",
                   "speedup vs 1-core"},
                  3);
    std::vector<std::int32_t> dummy(n);
    for (std::uint64_t sw : {L, std::uint64_t{16}, std::uint64_t{14}, std::uint64_t{12},
                             std::uint64_t{10}, std::uint64_t{6}, std::uint64_t{0}}) {
        if (sw > L) continue;
        sim::Hpu h(spec.params);
        const auto rep = algos::mergesort_gpu_parallel_tail(h, std::span(dummy), sw, opts);
        t.add_row({static_cast<std::int64_t>(sw), rep.deep_kernels, rep.tail_kernels,
                   rep.total, seq / rep.total});
    }
    bench::emit(t, cli);
    std::cout << "\n(switch=0 is the all-generic run_gpu schedule; switch=L is Fig. 9's\n"
                 " all-parallel kernel; the sweet spot sits near log2(g) where per-task\n"
                 " kernels stop saturating the device)\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
