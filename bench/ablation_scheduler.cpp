// Ablation (DESIGN.md §5.3): scheduler shoot-out. For mergesort on each
// platform, the time of every execution strategy the framework offers —
// 1-core sequential, p-core multicore, GPU-only, basic hybrid (§5.1,
// one unit at a time), advanced hybrid (§5.2, both overlapped), and the
// pipelined hybrid (§9, transfers overlapped with waves; row present when
// --pipeline=K is given, default K=4 via the shared flag).
//
// --trace attaches to the pipelined run on the first platform (or the
// advanced run when pipelining is off) — the export shows the K input
// chunk slices on the link track nested under the gpu phase.
//
// --workers=<k|hw> threads the functional execution through a host pool
// (virtual times are pool-invariant; only wall time moves).
#include "common.hpp"
#include "util/thread_pool.hpp"

static int main_body(int argc, char** argv) {
    using namespace hpu;
    util::Cli cli(argc, argv);
    const std::uint64_t n = static_cast<std::uint64_t>(cli.get_int("n", 1 << 20));
    const std::uint64_t chunks =
        cli.has("pipeline") ? bench::pipeline_chunks(cli) : 4;
    util::ThreadPool pool(cli.has("workers") ? bench::worker_threads(cli) : 0);

    algos::MergesortCoalesced<std::int32_t> alg;
    core::ExecOptions opts = bench::exec_options(cli);
    core::AdvancedOptions adv;
    adv.exec = opts;

    bench::TraceSink sink(cli);
    sim::HpuParams traced_hw;

    for (const auto& spec : bench::selected_platforms(cli)) {
        std::vector<std::int32_t> base(n);
        if (opts.functional) {
            util::Rng rng(bench::input_seed(cli, n));
            base = rng.int_vector(n, 0, static_cast<std::int64_t>(2 * n));
        }
        model::AdvancedModel m(spec.params, alg.recurrence(), static_cast<double>(n));
        const auto opt = m.optimize();
        const auto y = std::clamp<std::uint64_t>(
            static_cast<std::uint64_t>(std::llround(opt.y)), 1, util::ilog2(n));

        std::cout << "Scheduler ablation (" << spec.name << "), mergesort, n=" << n << "\n";
        util::Table t({"strategy", "time (ticks)", "speedup vs 1-core"}, 3);
        sim::Hpu h(spec.params, &pool);
        auto d = base;
        const auto seq = core::run_sequential(h.cpu(), alg, std::span(d), opts);
        t.add_row({std::string("sequential (1 core)"), seq.total, 1.0});
        d = base;
        const auto mc = core::run_multicore(h.cpu(), alg, std::span(d), opts);
        t.add_row({std::string("multicore (p cores)"), mc.total, seq.total / mc.total});
        d = base;
        const auto gp = core::run_gpu(h, alg, std::span(d), opts);
        t.add_row({std::string("gpu only"), gp.total, seq.total / gp.total});
        d = base;
        const auto bh = core::run_basic_hybrid(h, alg, std::span(d), opts);
        t.add_row({std::string("basic hybrid (5.1)"), bh.total, seq.total / bh.total});
        d = base;
        core::AdvancedOptions arun = adv;
        const bool trace_here = sink.active() && sink.session()->empty();
        if (trace_here && chunks == 0) {
            arun.exec.trace = sink.session();
            traced_hw = spec.params;
        }
        const auto ah = core::run_advanced_hybrid(h, alg, std::span(d), opt.alpha, y, arun);
        t.add_row({std::string("advanced hybrid (5.2)"), ah.total, seq.total / ah.total});
        if (chunks > 0) {
            d = base;
            core::PipelinedOptions pip;
            pip.chunks = chunks;
            pip.exec = opts;
            if (trace_here) {
                pip.exec.trace = sink.session();
                traced_hw = spec.params;
            }
            const auto ph = core::run_pipelined_hybrid(h, alg, std::span(d), opt.alpha, y, pip);
            t.add_row({std::string("pipelined hybrid (9), K=") + std::to_string(ph.chunks),
                       ph.total, seq.total / ph.total});
        }
        bench::emit(t, cli);
        std::cout << "\n";
    }
    sink.finish(traced_hw, alg.recurrence(),
                alg.device_ops_multiplier(traced_hw.gpu));
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
