// Ablation (DESIGN.md §5.4): CPU list-scheduling order. For the uniform
// tasks of regular D&C levels, arrival order and LPT tie; this bench makes
// the difference visible with a synthetic skewed-cost level.
#include "common.hpp"
#include "util/makespan.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const std::size_t cores = static_cast<std::size_t>(cli.get_int("p", 4));
    util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));

    std::cout << "CPU schedule ablation: makespan of one level, arrival vs LPT ("
              << cores << " cores)\n";
    util::Table t({"distribution", "tasks", "arrival", "LPT", "LPT win"}, 3);
    struct Case {
        std::string name;
        std::vector<std::uint64_t> costs;
    };
    std::vector<Case> cases;
    cases.push_back({"uniform (regular D&C level)", std::vector<std::uint64_t>(64, 100)});
    {
        std::vector<std::uint64_t> v;
        for (int i = 0; i < 64; ++i)
            v.push_back(static_cast<std::uint64_t>(rng.uniform_int(1, 200)));
        cases.push_back({"uniform-random", std::move(v)});
    }
    {
        // Heavy-tailed: a few huge tasks arriving late — the greedy killer.
        std::vector<std::uint64_t> v(60, 10);
        v.insert(v.end(), {500, 480, 460, 440});
        cases.push_back({"heavy tail, big tasks last", std::move(v)});
    }
    for (const auto& c : cases) {
        const auto a = util::makespan(c.costs, cores, util::ListOrder::kArrival);
        const auto l = util::makespan(c.costs, cores, util::ListOrder::kLpt);
        t.add_row({c.name, static_cast<std::int64_t>(c.costs.size()),
                   static_cast<double>(a), static_cast<double>(l),
                   static_cast<double>(a) / static_cast<double>(l)});
    }
    bench::emit(t, cli);
    std::cout << "\n(regular D&C levels are cost-uniform: the executors' default arrival\n"
                 " order loses nothing; LPT only matters for irregular extensions)\n";
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
