// Figure 5: device time of an elementwise sum of two arrays (size 2²⁴) as
// a function of the number of work-items, for HPU1 and HPU2. The curve
// drops until the thread count saturates the device (g), then flattens —
// the knee is the paper's estimate of g.
#include "model/estimate.hpp"

#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const auto n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 20));

    for (const auto& spec : bench::selected_platforms(cli)) {
        sim::Device dev(spec.params.gpu);
        std::cout << "Figure 5 (" << spec.name << "): elementwise-sum time vs #work-items, n="
                  << n << "\n";
        std::vector<std::uint64_t> counts;
        for (std::uint64_t t = 64; t <= 4 * spec.params.gpu.g; t *= 2) counts.push_back(t);
        // Linear refinement around the configured g, as in the paper's plot.
        for (double f : {0.5, 0.75, 1.0, 1.25, 1.5}) {
            counts.push_back(static_cast<std::uint64_t>(f * static_cast<double>(spec.params.gpu.g)));
        }
        std::sort(counts.begin(), counts.end());
        counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
        const auto sweep = model::saturation_sweep(dev, n, counts);
        util::Table t({"threads", "time (ticks)"});
        for (const auto& pt : sweep) {
            t.add_row({static_cast<std::int64_t>(pt.threads), pt.time});
        }
        bench::emit(t, cli);
        std::cout << "estimated g = " << model::estimate_g(sweep)
                  << "   (configured: " << spec.params.gpu.g << ")\n\n";
    }
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
