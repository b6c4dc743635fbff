// Figure 4: the advanced hybrid work division picture for mergesort on
// HPU1 at n = 2²⁴ — which unit owns which levels at the optimal (α*, y).
#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const auto n = static_cast<double>(cli.get_int("n", 1 << 24));
    sim::HpuParams hw = platforms::by_name(cli.get("platform", "HPU1")).params;
    hw.link.lambda = 0.0;
    hw.link.delta = 0.0;

    model::AdvancedModel m(hw, model::mergesort_recurrence(1.0), n);
    const auto opt = m.optimize();
    const double i1 = util::logb(static_cast<double>(hw.cpu.p) / opt.alpha, 2.0);

    std::cout << "Figure 4: advanced hybrid work division, mergesort, " << hw.name
              << ", n=" << static_cast<std::uint64_t>(n) << "\n\n";
    util::Table t({"levels", "owner", "note"});
    t.add_row({std::string("0 .. ") + std::to_string(opt.y),
               std::string("CPU (finish phase)"),
               std::string("few tasks; p cores at most")});
    t.add_row({std::to_string(opt.y) + " .. " + std::to_string(i1),
               std::string("CPU alpha-part done / GPU part pending"),
               std::string("GPU slice climbs to y in parallel")});
    t.add_row({std::to_string(i1) + " .. " + std::to_string(m.levels()),
               std::string("CPU (alpha) + GPU (1-alpha) in parallel"),
               std::string("both units saturated")});
    bench::emit(t, cli);

    std::cout << "\nalpha* = " << opt.alpha << " (CPU slice " << opt.alpha * n
              << " elements, GPU slice " << (1 - opt.alpha) * n << ")\n"
              << "transfer level y = " << opt.y << "   GPU work share = "
              << opt.gpu_work_share << "\n"
              << "(paper's Fig. 4: alpha~0.16 -> slices 0.16n / 0.84n, y=10)\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
