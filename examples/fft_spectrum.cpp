// Hybrid FFT: the framework applied to a second real workload with the
// mergesort recurrence shape (a = b = 2, f(n) = Θ(n)). Builds a noisy
// two-tone signal, runs the D&C FFT through the advanced hybrid scheduler
// at the model-optimal (α, y), and locates the tones in the spectrum —
// end-to-end evidence that the §5 analysis is algorithm-agnostic.
//
// Flags: --lgn=<log2 size> --platform=HPU1|HPU2
#include <complex>
#include <iostream>
#include <numbers>

#include "algos/fft.hpp"
#include "core/hybrid.hpp"
#include "model/advanced.hpp"
#include "platforms/platforms.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const auto lgn = static_cast<unsigned>(cli.get_int("lgn", 16));
    const std::uint64_t n = 1ull << lgn;
    const auto spec = platforms::by_name(cli.get("platform", "HPU1"));

    // Two tones in noise.
    const std::uint64_t f1 = n / 8, f2 = n / 3;
    util::Rng rng(2026);
    std::vector<std::complex<double>> signal(n);
    for (std::uint64_t t = 0; t < n; ++t) {
        const double x = 2.0 * std::numbers::pi * static_cast<double>(t) / static_cast<double>(n);
        signal[t] = {std::cos(x * static_cast<double>(f1)) +
                         0.5 * std::sin(x * static_cast<double>(f2)) +
                         0.1 * rng.uniform_real(-1, 1),
                     0.0};
    }

    algos::DcFft fft;
    model::AdvancedModel m(spec.params, fft.recurrence(), static_cast<double>(n));
    const auto plan = m.optimize();
    std::cout << "FFT on " << spec.name << ", n=" << n << " — model picks alpha="
              << plan.alpha << ", y=" << plan.y << " (predicted speedup " << plan.speedup
              << "x over 1 core)\n";

    sim::Hpu machine(spec.params);
    auto seq_data = signal;
    sim::CpuUnit one(spec.params.cpu);
    const auto seq = core::run_sequential(one, fft, std::span(seq_data));
    auto hyb_data = signal;
    const auto hyb = core::run_advanced_hybrid(
        machine, fft, std::span(hyb_data), plan.alpha,
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(plan.y))));
    std::cout << "Simulated speedup: " << seq.total / hyb.total << "x\n";

    // Verify the two schedules agree bit-for-bit in spectrum shape.
    double max_diff = 0;
    for (std::uint64_t k = 0; k < n; ++k) max_diff = std::max(max_diff, std::abs(seq_data[k] - hyb_data[k]));
    std::cout << "max |sequential - hybrid| spectrum difference: " << max_diff << "\n\n";

    // Report the dominant bins.
    util::Table t({"bin", "magnitude", "expected tone"});
    std::vector<std::pair<double, std::uint64_t>> mags;
    for (std::uint64_t k = 1; k < n / 2; ++k) mags.emplace_back(std::abs(hyb_data[k]), k);
    std::sort(mags.rbegin(), mags.rend());
    for (int i = 0; i < 4; ++i) {
        const auto [mag, k] = mags[static_cast<std::size_t>(i)];
        std::string tone = k == f1 ? "f1" : (k == f2 ? "f2" : "-");
        t.add_row({static_cast<std::int64_t>(k), mag, tone});
    }
    t.print(std::cout);
    std::cout << "\n(the top two bins should be f1=" << f1 << " and f2=" << f2 << ")\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
