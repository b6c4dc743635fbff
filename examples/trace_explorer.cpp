// Trace explorer: side-by-side observability of the basic (§5.1),
// advanced (§5.2), and pipelined (§9) hybrid schedulers on the same
// mergesort run.
//
// Both runs record hierarchical spans (run → phase → level → wave) into
// hpu::trace sessions. The example then
//   1. prints each scheduler's utilization / model-drift report — the
//      basic hybrid shows an idle CPU during the device phase, the
//      advanced hybrid shows both units busy and a GPU work share near
//      the model's prediction (~52% at the paper's operating point);
//   2. exports both span trees as Chrome trace-event JSON, loadable in
//      Perfetto (https://ui.perfetto.dev) or chrome://tracing, where the
//      advanced run visibly overlaps its cpu-parallel and gpu-phase
//      tracks between exactly two transfer slices, and the pipelined run
//      shows K chunk slices on the link track riding under the first
//      device launches.
//
// Build: cmake --build build && ./build/examples/trace_explorer
// Flags: --n=<elems> --functional --csv-spans (dump raw span CSV instead
//        of the utilization tables) --out-dir=<dir> (directory for the
//        three trace JSON files; default: current directory)
#include <filesystem>
#include <iostream>

#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "model/advanced.hpp"
#include "platforms/platforms.hpp"
#include "trace/export.hpp"
#include "trace/utilization.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const auto n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 20));
    const bool functional = cli.get_bool("functional", false);

    sim::Hpu machine(platforms::hpu1());
    algos::MergesortCoalesced<std::int32_t> alg;
    const double mult = alg.device_ops_multiplier(machine.params().gpu);

    std::vector<std::int32_t> data(n);
    if (functional) {
        util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 7)));
        data = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    }

    // --- Basic hybrid: one unit at a time, one round trip.
    trace::TraceSession basic_trace;
    core::ExecOptions basic_opts;
    basic_opts.functional = functional;
    basic_opts.trace = &basic_trace;
    std::vector<std::int32_t> basic_data = data;
    const auto basic_rep =
        core::run_basic_hybrid(machine, alg, std::span(basic_data), basic_opts);

    // --- Advanced hybrid at the model's optimal (α, y): both units busy.
    model::AdvancedModel m(machine.params(), alg.recurrence(), static_cast<double>(n));
    const auto plan = m.optimize();
    const auto L = static_cast<std::uint64_t>(util::ilog2(n));
    const auto y = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(plan.y)), 1, L);

    sim::Hpu machine2(platforms::hpu1());
    trace::TraceSession adv_trace;
    core::AdvancedOptions adv;
    adv.exec.functional = functional;
    adv.exec.trace = &adv_trace;
    std::vector<std::int32_t> adv_data = data;
    const auto adv_rep =
        core::run_advanced_hybrid(machine2, alg, std::span(adv_data), plan.alpha, y, adv);

    // --- Pipelined hybrid at the same (α, y): the two bulk transfers
    // split into chunks that overlap the first device launches.
    sim::Hpu machine3(platforms::hpu1());
    trace::TraceSession pip_trace;
    core::PipelinedOptions pip;
    pip.chunks = static_cast<std::uint64_t>(cli.get_int("pipeline", 4));
    pip.exec.functional = functional;
    pip.exec.trace = &pip_trace;
    std::vector<std::int32_t> pip_data = data;
    const auto pip_rep =
        core::run_pipelined_hybrid(machine3, alg, std::span(pip_data), plan.alpha, y, pip);

    std::cout << "mergesort, n=" << n << " on " << machine.params().name
              << (functional ? " (functional)" : " (analytic)") << "\n"
              << "  basic hybrid:    total=" << basic_rep.total << " ticks\n"
              << "  advanced hybrid: total=" << adv_rep.total << " ticks  (alpha="
              << plan.alpha << ", y=" << y << ", model speedup=" << plan.speedup << ")\n"
              << "  pipelined hybrid: total=" << pip_rep.total << " ticks  (K="
              << pip_rep.chunks << (pip_rep.chunks == 1 ? ", guard fell back" : "")
              << ", gain=" << adv_rep.total - pip_rep.total << ")\n\n";

    if (cli.get_bool("csv-spans", false)) {
        trace::export_csv(adv_trace, std::cout);
    } else {
        std::cout << "=== basic hybrid — the CPU idles while the device works ===\n";
        trace::derive_utilization(basic_trace, machine.params(), alg.recurrence(), mult)
            .print(std::cout);
        std::cout << "\n=== advanced hybrid — both units busy, two transfers ===\n";
        trace::derive_utilization(adv_trace, machine2.params(), alg.recurrence(), mult)
            .print(std::cout);
        std::cout << "\n=== pipelined hybrid — transfers overlap the device launches ===\n";
        trace::derive_utilization(pip_trace, machine3.params(), alg.recurrence(), mult)
            .print(std::cout);
    }

    namespace fs = std::filesystem;
    const std::string out_dir = cli.get("out-dir", "");
    if (!out_dir.empty()) {
        std::error_code ec;
        fs::create_directories(out_dir, ec);
    }
    auto out_path = [&](const char* name) {
        return out_dir.empty() ? std::string(name) : (fs::path(out_dir) / name).string();
    };
    const std::string basic_path = out_path("trace_basic.json");
    const std::string adv_path = out_path("trace_advanced.json");
    const std::string pip_path = out_path("trace_pipelined.json");
    if (trace::write_chrome_file(basic_trace, basic_path) &&
        trace::write_chrome_file(adv_trace, adv_path) &&
        trace::write_chrome_file(pip_trace, pip_path)) {
        std::cout << "\nwrote " << basic_path << " (" << basic_trace.spans().size()
                  << " spans), " << adv_path << " (" << adv_trace.spans().size()
                  << " spans), and " << pip_path << " (" << pip_trace.spans().size()
                  << " spans) — open in https://ui.perfetto.dev\n";
    }
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
