// Ablation (DESIGN.md §5.2): what the §6.3 coalescing permutation buys on
// the device. Compares GPU-only mergesort with the plain (strided) merge
// kernel against the interleaved-layout (coalesced) kernel, per input size.
#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const int lg_max = static_cast<int>(cli.get_int("lgmax", 20));
    const auto spec = platforms::by_name(cli.get("platform", "HPU1"));

    algos::MergesortPlain<std::int32_t> plain;
    algos::MergesortCoalesced<std::int32_t> coal;
    core::ExecOptions opts = bench::exec_options(cli);

    std::cout << "Ablation (" << spec.name
              << "): GPU kernel time, strided vs coalesced merge (strided penalty "
              << spec.params.gpu.strided_penalty << "x)\n";
    util::Table t({"n", "t(strided)", "t(coalesced)", "win"}, 3);
    for (int lg = 10; lg <= lg_max; lg += 2) {
        const std::uint64_t n = 1ull << lg;
        std::vector<std::int32_t> d1(n), d2(n);
        if (opts.functional) {
            util::Rng rng(n);
            d1 = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
            d2 = d1;
        }
        sim::Hpu h1(spec.params), h2(spec.params);
        const auto rp = core::run_gpu(h1, plain, std::span(d1), opts, false);
        const auto rc = core::run_gpu(h2, coal, std::span(d2), opts, false);
        t.add_row({static_cast<std::int64_t>(n), rp.gpu_busy, rc.gpu_busy,
                   rp.gpu_busy / rc.gpu_busy});
    }
    bench::emit(t, cli);
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
