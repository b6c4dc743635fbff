// Figure 10: for each input size, the (α, y) that minimizes the simulated
// running time of the advanced hybrid mergesort on HPU1 (found by grid
// search, as the paper found theirs by measurement) compared to the values
// the model predicts. The paper observes the two converging as n grows.
#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const int lg_max = static_cast<int>(cli.get_int("lgmax", 24));
    const auto spec = platforms::by_name(cli.get("platform", "HPU1"));
    sim::HpuParams hw = spec.params;
    hw.cpu.contention = cli.get_double("contention", 0.08);

    algos::MergesortCoalesced<std::int32_t> alg;
    core::AdvancedOptions adv;
    adv.exec.functional = false;  // grid search demands the analytic path

    std::cout << "Figure 10 (" << spec.name
              << "): best-found (alpha, y) vs model-predicted\n";
    util::Table t({"n", "alpha (found)", "alpha (predicted)", "y (found)", "y (predicted)"}, 3);
    for (int lg = 12; lg <= lg_max; lg += 2) {
        const std::uint64_t n = 1ull << lg;
        model::AdvancedModel m(spec.params, alg.recurrence(), static_cast<double>(n));
        const auto opt = m.optimize();

        double best_alpha = 0.0;
        std::uint64_t best_y = 1;
        sim::Ticks best_time = std::numeric_limits<double>::infinity();
        std::vector<std::int32_t> dummy(n);
        for (double alpha = 0.05; alpha <= 0.60; alpha += 0.025) {
            for (std::uint64_t y = 5; y <= std::min<std::uint64_t>(14, lg); ++y) {
                sim::Hpu h(hw);
                const auto rep =
                    core::run_advanced_hybrid(h, alg, std::span(dummy), alpha, y, adv);
                if (rep.total < best_time) {
                    best_time = rep.total;
                    best_alpha = alpha;
                    best_y = y;
                }
            }
        }
        t.add_row({static_cast<std::int64_t>(n), best_alpha, opt.alpha,
                   static_cast<double>(best_y), opt.y});
    }
    bench::emit(t, cli);
    std::cout << "\n(paper: found and predicted values converge as n grows)\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
