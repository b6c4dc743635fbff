// Figure 3: for mergesort (a=b=2, f(n)=n) on HPU1 with n = 2²⁴ —
// (left) the level y(α) reached by the GPU while the CPU still has ≥ p
// tasks, and (right) the fraction of total work done by the GPU, both as
// functions of the work ratio α. The paper's optimum: α* ≈ 0.16 with the
// GPU doing ≈ 52 % of the work, transfer level ≈ 10.
#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const auto n = static_cast<double>(cli.get_int("n", 1 << 24));
    sim::HpuParams hw = platforms::by_name(cli.get("platform", "HPU1")).params;
    hw.link.lambda = 0.0;  // the §5.2.2 analysis ignores transfers
    hw.link.delta = 0.0;

    model::AdvancedModel m(hw, model::mergesort_recurrence(1.0), n);
    std::cout << "Figure 3: y(alpha) and GPU work share, mergesort, " << hw.name
              << ", n=" << static_cast<std::uint64_t>(n) << "\n";
    util::Table t({"alpha", "y(alpha)", "gpu_work_share"});
    for (double a = 0.02; a < 0.98; a += 0.02) {
        t.add_row({a, m.y_of_alpha(a), m.gpu_work(a) / m.predict_at(a, m.y_of_alpha(a)).seq_time});
    }
    bench::emit(t, cli);

    const auto opt = m.optimize();
    std::cout << "\nOptimum: alpha*=" << opt.alpha << "  y=" << opt.y
              << "  gpu share=" << opt.gpu_work_share
              << "   (paper: alpha*~0.16, y~10, share~52%)\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
