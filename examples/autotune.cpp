// Autotuning workflow (§6.4): facing an *unknown* device, estimate its HPU
// parameters empirically, feed them to the model, and let the model pick
// the work division — then verify the pick by simulating a grid around it.
// This is the paper's "adapts to the characteristics of each algorithm and
// the underlying architecture" pitch, end to end.
//
// Flags: --g=<lanes> --gamma_inv=<ratio> define the "unknown" device.
#include <iostream>

#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "model/advanced.hpp"
#include "model/estimate.hpp"
#include "platforms/platforms.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);

    // The machine under test: defaults to a made-up mid-range device so the
    // example demonstrably does NOT depend on the paper's known platforms.
    sim::HpuParams hw = platforms::hpu1();
    hw.name = "unknown-device";
    hw.gpu.g = static_cast<std::uint64_t>(cli.get_int("g", 2048));
    hw.gpu.gamma = 1.0 / cli.get_double("gamma_inv", 96.0);

    std::cout << "Step 1 — estimate the device parameters (Figs. 5-6 procedures)\n";
    sim::Device dev(hw.gpu);
    sim::CpuUnit cpu(hw.cpu);
    const std::uint64_t ghat = model::estimate_g(dev, 1 << 18, 4 * hw.gpu.g);
    const auto gsweep = model::gamma_sweep(dev, cpu, {1 << 14, 1 << 16, 1 << 18});
    const double ginv_hat = model::estimate_gamma_inv(gsweep);
    std::cout << "  estimated g = " << ghat << " (true " << hw.gpu.g << ")\n"
              << "  estimated 1/gamma = " << ginv_hat << " (true " << 1.0 / hw.gpu.gamma
              << ")\n\n";

    // Build the model from the *estimates*, as a real deployment would.
    sim::HpuParams estimated = hw;
    estimated.gpu.g = ghat;
    estimated.gpu.gamma = 1.0 / ginv_hat;

    const std::uint64_t n = 1ull << static_cast<unsigned>(cli.get_int("lgn", 22));
    algos::MergesortCoalesced<std::int32_t> alg;
    model::AdvancedModel m(estimated, alg.recurrence(), static_cast<double>(n));
    const auto opt = m.optimize();
    std::cout << "Step 2 — model picks alpha=" << opt.alpha << ", y=" << opt.y
              << " (predicted speedup " << opt.speedup << "x)\n\n";

    std::cout << "Step 3 — verify on the true device: simulated speedup around the pick\n";
    core::AdvancedOptions adv;
    adv.exec.functional = false;
    std::vector<std::int32_t> dummy(n);
    sim::CpuUnit one(hw.cpu);
    const auto seq = core::run_sequential(one, alg, std::span(dummy), adv.exec);
    util::Table t({"alpha", "y", "simulated speedup"}, 3);
    const auto y0 = static_cast<std::uint64_t>(std::llround(opt.y));
    for (double da : {-0.08, 0.0, 0.08}) {
        for (std::int64_t dy : {-2, 0, 2}) {
            const double a = std::clamp(opt.alpha + da, 0.02, 0.95);
            const auto y = std::clamp<std::uint64_t>(
                static_cast<std::uint64_t>(static_cast<std::int64_t>(y0) + dy), 1,
                util::ilog2(n));
            sim::Hpu h(hw);
            const auto rep = core::run_advanced_hybrid(h, alg, std::span(dummy), a, y, adv);
            t.add_row({a, static_cast<double>(y), seq.total / rep.total});
        }
    }
    t.print(std::cout);
    std::cout << "\nThe centre cell (the model's pick) should be at or near the best.\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
