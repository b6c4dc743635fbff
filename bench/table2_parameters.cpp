// Table 2: platform parameters (p, g, γ⁻¹). The configured values come from
// the platform registry; alongside them we re-run the paper's estimation
// procedures (§6.4) against the simulated devices and report what they
// recover — the estimated columns validate the estimation machinery itself.
#include "model/estimate.hpp"

#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const auto n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 16));

    std::cout << "Table 2: Platform parameters (configured vs re-estimated)\n";
    util::Table t({"Platform", "p", "g (config)", "g (estimated)", "1/gamma (config)",
                   "1/gamma (estimated)"});
    for (const auto& spec : bench::selected_platforms(cli)) {
        sim::Device dev(spec.params.gpu);
        sim::CpuUnit cpu(spec.params.cpu);
        const std::uint64_t ghat = model::estimate_g(dev, n, 4 * spec.params.gpu.g);
        const auto sweep = model::gamma_sweep(dev, cpu, {n / 4, n / 2, n});
        const double ginv = model::estimate_gamma_inv(sweep);
        t.add_row({spec.name, static_cast<std::int64_t>(spec.params.cpu.p),
                   static_cast<std::int64_t>(spec.params.gpu.g),
                   static_cast<std::int64_t>(ghat), 1.0 / spec.params.gpu.gamma, ginv});
    }
    bench::emit(t, cli);
    std::cout << "\nPaper: HPU1 (p=4, g=4096, 1/gamma=160), HPU2 (p=4, g=1200, 1/gamma=65)\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
