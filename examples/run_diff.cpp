// run_diff: the regression-observatory CLI (DESIGN.md §13).
//
// Diff mode (default) — explain where two runs' time diverges:
//   run_diff base.json cand.json [--top=5] [--markdown] [--waves]
//            [--gate=0.02] [--estimate --platform=hpu1]
// loads two Chrome trace-event JSON files (as written by trace_explorer,
// the wallclock harness, or --emit below), aligns their span trees, and
// prints the per-span delta / self-delta attribution. --gate=<tol> exits 1
// when the candidate is slower than the base by more than the relative
// tolerance — wire it into CI to turn a trace diff into a merge gate.
// --estimate re-fits (g, gamma, lambda, delta) from each trace against the
// named platform's configured parameters and prints the drift table.
//
// Emit mode — produce a trace to diff against later:
//   run_diff --emit=basic --out=base.json [--n=1048576] [--platform=hpu1]
//            [--functional] [--seed=7] [--alpha=] [--y=] [--chunks=4]
// runs one executor (sequential | multicore | gpu | basic | advanced |
// pipelined) with tracing on and writes the Chrome JSON. The advanced and
// pipelined executors default (alpha, y) to the model optimum for the
// chosen size, like the schedulers themselves would.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "algos/mergesort.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "model/advanced.hpp"
#include "obs/diff.hpp"
#include "obs/estimate.hpp"
#include "obs/trace_io.hpp"
#include "platforms/platforms.hpp"
#include "trace/export.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace hpu;

sim::HpuParams platform_by_name(const std::string& name) {
    if (name == "hpu2") return platforms::hpu2();
    if (name != "hpu1") {
        std::cerr << "unknown --platform=" << name << ", using hpu1\n";
    }
    return platforms::hpu1();
}

int emit_trace(const util::Cli& cli, const std::string& executor) {
    const auto n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 20));
    const bool functional = cli.get_bool("functional", false);
    const std::string out = cli.get("out", "trace.json");
    sim::HpuParams hw = platform_by_name(cli.get("platform", "hpu1"));
    algos::MergesortCoalesced<std::int32_t> alg;

    std::vector<std::int32_t> data(functional ? n : 1);
    if (functional) {
        util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 7)));
        data = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
    }
    std::span<std::int32_t> span(data.data(), n);

    trace::TraceSession session;
    core::ExecOptions opts;
    opts.functional = functional;
    opts.trace = &session;

    // (alpha, y) for the split schedulers: flag override, else the model
    // optimum — the same plan the paper's experiments run at.
    sim::Hpu machine(hw);
    model::AdvancedModel m(hw, alg.recurrence(), static_cast<double>(n));
    const model::AdvancedPrediction plan = m.optimize();
    const double alpha = cli.get_double("alpha", plan.alpha);
    const auto L = static_cast<std::uint64_t>(util::ilog2(n));
    auto y = static_cast<std::uint64_t>(
        cli.get_int("y", std::max<std::int64_t>(1, std::llround(plan.y))));
    y = std::min(y, L);

    if (executor == "sequential") {
        sim::CpuUnit one(hw.cpu);
        core::run_sequential(one, alg, span, opts);
    } else if (executor == "multicore") {
        core::run_multicore(machine.cpu(), alg, span, opts);
    } else if (executor == "gpu") {
        core::run_gpu(machine, alg, span, opts);
    } else if (executor == "basic") {
        core::run_basic_hybrid(machine, alg, span, opts);
    } else if (executor == "advanced") {
        core::AdvancedOptions adv;
        adv.exec = opts;
        core::run_advanced_hybrid(machine, alg, span, alpha, y, adv);
    } else if (executor == "pipelined") {
        core::PipelinedOptions pip;
        pip.chunks = static_cast<std::uint64_t>(cli.get_int("chunks", 4));
        pip.exec = opts;
        core::run_pipelined_hybrid(machine, alg, span, alpha, y, pip);
    } else {
        std::cerr << "unknown --emit=" << executor
                  << " (want sequential|multicore|gpu|basic|advanced|pipelined)\n";
        return 2;
    }

    if (!trace::write_chrome_file(session, out)) {
        std::cerr << "cannot write " << out << "\n";
        return 2;
    }
    std::cout << "wrote " << out << " (" << session.spans().size() << " spans, "
              << executor << ", n=" << n << ", " << hw.name << ", "
              << (functional ? "functional" : "analytic") << ")\n";
    return 0;
}

void print_estimates(const trace::TraceSession& session, const char* which,
                     const sim::HpuParams& hw) {
    std::cout << "\n(g, gamma, lambda, delta) re-fit of " << which << " vs configured "
              << hw.name << ":\n";
    obs::estimate_params(session, hw).print(std::cout);
}

}  // namespace

static int main_body(int argc, char** argv) {
    util::Cli cli(argc, argv);

    const std::string emit = cli.get("emit", "");
    if (!emit.empty()) return emit_trace(cli, emit);

    const auto& pos = cli.positional();
    if (pos.size() != 2) {
        std::cerr << "usage: run_diff <base.json> <cand.json> [--top=5] [--markdown]\n"
                  << "                [--waves] [--gate=tol] [--estimate --platform=hpu1]\n"
                  << "   or: run_diff --emit=<executor> --out=<trace.json> [--n=] "
                     "[--platform=] [--functional]\n";
        return 2;
    }

    const obs::LoadedTrace base = obs::load_chrome_trace(pos[0]);
    if (!base.ok()) {
        std::cerr << pos[0] << ": " << base.error << "\n";
        return 2;
    }
    const obs::LoadedTrace cand = obs::load_chrome_trace(pos[1]);
    if (!cand.ok()) {
        std::cerr << pos[1] << ": " << cand.error << "\n";
        return 2;
    }

    obs::DiffOptions opts;
    opts.include_waves = cli.get_bool("waves", false);
    const obs::TraceDiff diff = obs::diff_traces(base.session, cand.session, opts);

    const auto top = static_cast<std::size_t>(cli.get_int("top", 5));
    if (cli.get_bool("markdown", false)) {
        diff.print_markdown(std::cout, top);
    } else {
        diff.print(std::cout, top);
    }

    if (cli.get_bool("estimate", false)) {
        const sim::HpuParams hw = platform_by_name(cli.get("platform", "hpu1"));
        print_estimates(base.session, "base", hw);
        print_estimates(cand.session, "candidate", hw);
    }

    if (cli.has("gate")) {
        const double tol = cli.get_double("gate", 0.02);
        const double rel =
            diff.base_total > 0.0 ? diff.delta() / diff.base_total : 0.0;
        if (rel > tol) {
            std::cerr << "\nGATE: candidate is " << rel * 100.0
                      << "% slower than base (tolerance " << tol * 100.0 << "%)\n";
            return 1;
        }
        std::cout << "\ngate ok: relative delta " << rel * 100.0 << "% within "
                  << tol * 100.0 << "%\n";
    }
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
