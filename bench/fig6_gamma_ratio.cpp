// Figure 6: ratio between single-core GPU and CPU time for a scalar merge
// of two sorted lists, as a function of input size, for HPU1 and HPU2. The
// ratio is flat — that flatness is what justifies a single γ per platform.
#include "model/estimate.hpp"

#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);

    for (const auto& spec : bench::selected_platforms(cli)) {
        sim::Device dev(spec.params.gpu);
        sim::CpuUnit cpu(spec.params.cpu);
        std::cout << "Figure 6 (" << spec.name << "): 1-thread merge GPU/CPU time ratio\n";
        std::vector<std::uint64_t> sizes;
        for (std::uint64_t n = 1 << 12; n <= (1u << 22); n *= 4) sizes.push_back(n);
        const auto sweep = model::gamma_sweep(dev, cpu, sizes);
        util::Table t({"n (per list)", "gpu time", "cpu time", "ratio (=1/gamma)"});
        for (const auto& s : sweep) {
            t.add_row({static_cast<std::int64_t>(s.n), s.gpu_time, s.cpu_time, s.ratio});
        }
        bench::emit(t, cli);
        std::cout << "estimated 1/gamma = " << model::estimate_gamma_inv(sweep)
                  << "   (configured: " << 1.0 / spec.params.gpu.gamma << ")\n\n";
    }
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
