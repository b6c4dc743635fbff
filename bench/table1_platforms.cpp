// Table 1: specification of the hybrid platforms used in the experiments.
#include "common.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    std::cout << "Table 1: Specification of hybrid platforms used in experiments\n";
    util::Table t({"Platform", "CPU", "GPU"});
    for (const auto& s : platforms::all()) {
        t.add_row({s.name, s.cpu_desc, s.gpu_desc});
    }
    bench::emit(t, cli);
    std::cout << "\n(simulated devices; see DESIGN.md for the substitution)\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
