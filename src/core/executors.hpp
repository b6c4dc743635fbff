// Single-unit executors for LevelAlgorithms: the 1-core sequential baseline
// (the paper's speedup denominator), the multi-core breadth-first executor,
// and the GPU-only breadth-first executor (§4.2). The hybrid schedulers
// live in core/hybrid.hpp and core/pipeline.hpp.
//
// All executors process the recursion tree bottom-up by *global level*
// index i (0 = root, L-1 = deepest internal level, L = log_b n), running
// the a^i independent tasks of each level on the chosen unit. They require
// a == b so that level tasks tile the array contiguously.
//
// Every regular executor is a planner plus one shared interpreter: the
// planner writes its schedule down as a core::Plan (core/plan.hpp) and
// run_plan below runs it. The interpreter is the only place that reads
// the functional/analytic switch, owns the virtual clock, and opens the
// run, phase, level and wave spans; the verifier checks the same Plan.
//
// With ExecOptions::validate on (or HPU_VALIDATE set), every functional
// level additionally runs the hpu::analysis correctness passes — wave race
// detection, schedule-independence re-execution, buffer-residency lint —
// and the findings are attached to ExecReport::analysis.
//
// With ExecOptions::trace set, every executor records a hierarchical span
// tree (run → phase → level → wave) into the given hpu::trace session.
// Tracing follows the same discipline as validation: it is strictly off
// the virtual-clock critical path, so attaching a session never changes
// any ExecReport tick (enforced by test).
//
// Host-parallel functional execution: construct the sim::Hpu (or CpuUnit)
// with a util::ThreadPool and CPU levels / device waves run pool-parallel.
// This only accelerates wall-clock; virtual times, traces, and analysis
// findings are bit-identical to the inline run (DESIGN.md §10, enforced
// by the pooled-vs-inline determinism sweep).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/race.hpp"
#include "analysis/report.hpp"
#include "analysis/residency.hpp"
#include "analysis/schedule.hpp"
#include "analysis/validate.hpp"
#include "core/labels.hpp"
#include "core/level_algorithm.hpp"
#include "core/plan.hpp"
#include "obs/watchdog.hpp"
#include "sim/buffer.hpp"
#include "sim/hpu.hpp"
#include "trace/span.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/stopwatch.hpp"
#include "verify/conformance.hpp"
#include "verify/report.hpp"
#include "verify/verify.hpp"

namespace hpu::core {

/// HPU_PROFILE environment default for ExecOptions::profile (same
/// convention as HPU_VALIDATE).
inline bool env_profile_default() { return analysis::env_flag_enabled("HPU_PROFILE"); }

/// HPU_OBSERVE environment default for ExecOptions::observe.
inline bool env_observe_default() { return analysis::env_flag_enabled("HPU_OBSERVE"); }

/// HPU_MERGE_PATH environment default for ExecOptions::merge_path. Unlike
/// the validation flags this one defaults ON (it is a pure wall-clock
/// optimization); set HPU_MERGE_PATH=0 to disable.
inline bool env_merge_path_default() { return util::merge_path_env_default(); }

/// Execution knobs shared by all executors.
struct ExecOptions {
    /// Functional mode runs task bodies on real data (results verifiable);
    /// analytic mode skips data work and prices levels from the
    /// recurrence — instant, used by large parameter sweeps. Both modes
    /// produce the same virtual times for uniform-cost algorithms (tests
    /// enforce this).
    bool functional = true;
    /// CPU list-scheduling order (ablation knob).
    util::ListOrder order = util::ListOrder::kArrival;
    /// Run the hpu::analysis correctness passes on every functional level
    /// (race detection, schedule-independence re-execution, residency
    /// lint). Costly — re-executes kernels — so off unless requested here
    /// or via the HPU_VALIDATE environment variable. No effect on the
    /// virtual clock. Ignored in analytic mode (nothing executes).
    bool validate = analysis::env_validate_default();
    /// Span tracer sink (see trace/span.hpp); nullptr = tracing off. The
    /// session is not owned and may accumulate several runs. No effect on
    /// the virtual clock.
    trace::TraceSession* trace = nullptr;
    /// Stamp wall-clock (host) time onto the recorded trace spans: each
    /// functional level / leaf sweep / hook / transfer span, plus the run
    /// root, gets wall_start_ns / wall_ns filled in. Requires `trace`;
    /// no-op without it. The wall stamps feed metrics::derive_profile; the
    /// virtual-clock side of the spans and the ExecReport stay
    /// byte-identical with profiling on or off (enforced by test). Off
    /// unless requested here or via the HPU_PROFILE environment variable.
    bool profile = env_profile_default();
    /// Run the hpu::verify static pass before executing: prove the declared
    /// footprints race-free and check the planned schedule's invariants.
    /// The certificate lands in ExecReport::verify; under `validate`,
    /// statically proven launches swap word-level race concretization for
    /// the cheaper footprint-conformance check. Never touches the virtual
    /// clock. Off unless requested here or via HPU_VERIFY.
    bool verify = verify::env_verify_default();
    /// Budget/caps for the runtime race detector and the conformance
    /// checker (see analysis::RaceOptions).
    analysis::RaceOptions race;
    /// Run the hpu::obs observation over the finished run's span subtree:
    /// (g, γ, λ, δ) re-fit vs the configured parameters, utilization
    /// derivation, and watchdog findings, attached to ExecReport::obs.
    /// Requires `trace`; no-op without it. Runs strictly after the last
    /// tick is computed and is read-only over the session, so the virtual
    /// clock, the trace, and every other ExecReport field are bit-identical
    /// with observe on or off (enforced by test). Off unless requested here
    /// or via the HPU_OBSERVE environment variable.
    bool observe = env_observe_default();
    /// Thresholds the observation's watchdog checks against.
    obs::WatchdogThresholds watchdog;
    /// Let functional task bodies split large merges into Merge Path
    /// segments across the host pool (DESIGN.md §15). Wall-clock only:
    /// ExecReports, traces, outputs, and analysis findings are
    /// bit-identical on or off (enforced by tests/merge_path_test.cpp).
    /// No effect in analytic mode or without a pool. Defaults from
    /// HPU_MERGE_PATH (on unless "0"/"off"/"false"/"no").
    bool merge_path = env_merge_path_default();
};

/// Where time went; every executor fills one of these.
struct ExecReport {
    sim::Ticks total = 0.0;
    sim::Ticks cpu_busy = 0.0;       ///< CPU-unit time (parallel phase for hybrids)
    sim::Ticks gpu_busy = 0.0;       ///< device kernel time
    sim::Ticks transfer = 0.0;       ///< link time
    sim::Ticks finish = 0.0;         ///< post-sync CPU wrap-up (advanced hybrid)
    std::uint64_t levels_cpu = 0;
    std::uint64_t levels_gpu = 0;
    double alpha_effective = 0.0;    ///< realized CPU work ratio (advanced hybrid)
    /// Transfer chunks actually pipelined (pipelined hybrid; 1 = the
    /// schedule degenerated to the advanced hybrid, 0 = other executors).
    std::uint64_t chunks = 0;
    /// Findings of the correctness passes (empty unless ExecOptions::
    /// validate was on).
    analysis::AnalysisReport analysis;
    /// Certificate of the static pass (attempted=false unless
    /// ExecOptions::verify was on).
    hpu::verify::VerifyReport verify;
    /// The trace session spans were recorded into (echoes ExecOptions::
    /// trace; nullptr when tracing was off).
    trace::TraceSession* trace = nullptr;
    /// Observation over this run (attempted=false unless ExecOptions::
    /// observe was on and a trace session was attached).
    obs::ObsReport obs;
    /// Total tasks of the dynamic expand sweep, empty branches included
    /// (irregular algorithms only; stays 0 on every regular path, which
    /// keeps regular reports bit-identical to the pre-irregular build).
    std::uint64_t tasks_spawned = 0;
};

/// Which scheduler shape core/irregular.hpp emulates for a dynamic task
/// tree. Each of the six public executors maps onto one of these when
/// handed an IrregularLevelAlgorithm.
enum class IrregularMode : std::uint8_t {
    kSequential,  ///< 1 core, no device
    kMulticore,   ///< p cores, no device
    kGpu,         ///< device only (optional boundary transfers)
    kBasic,       ///< whole-level placement, observed-cost crossover
    kAdvanced,    ///< per-level α split re-balanced from observed widths
    kPipelined,   ///< advanced + chunked GPU input transfers
};

template <typename T>
ExecReport run_irregular(sim::CpuUnit& cpu, sim::Device* dev, const sim::HpuParams& hw,
                         const IrregularLevelAlgorithm<T>& alg, std::span<T> data,
                         IrregularMode mode, const ExecOptions& opts, std::uint64_t chunks,
                         bool include_transfers, const char* executor_label);

namespace detail {

/// Validation context of one run, threaded into the functional helpers:
/// the analysis sink (null = validation off), the run's static certificate,
/// and the detector budget. A default-constructed context means
/// "validation off".
struct ValCtx {
    analysis::AnalysisReport* report = nullptr;
    const hpu::verify::VerifyReport* cert = nullptr;
    analysis::RaceOptions race{};

    bool on() const noexcept { return report != nullptr; }

    /// This phase was statically proven race-free — the runtime may check
    /// footprint conformance instead of concretizing words.
    bool proven(verify::Phase ph) const {
        return cert != nullptr && cert->proven(ph);
    }
};

inline ValCtx validation_ctx(const ExecOptions& opts, ExecReport& rep) {
    ValCtx v;
    if (opts.validate && opts.functional) v.report = &rep.analysis;
    v.cert = &rep.verify;
    v.race = opts.race;
    return v;
}

/// Binds the run's Merge Path context onto the algorithm, right after
/// prepare(): the functional pool when the kernel is enabled for this run,
/// a null binding otherwise.
template <typename T>
void bind_merge_exec(const LevelAlgorithm<T>& alg, util::ThreadPool* pool,
                     const ExecOptions& opts) {
    util::MergeExec ex;
    ex.kernel = opts.merge_path && opts.functional;
    ex.pool = ex.kernel ? pool : nullptr;
    alg.bind_exec(ex);
}

/// Where a helper records its trace spans: the session, the parent span,
/// the virtual-clock tick the span starts at, and (for levels) the global
/// level index. A default-constructed context means "tracing off".
struct SpanCtx {
    trace::TraceSession* session = nullptr;
    trace::SpanId parent = trace::kNoSpan;
    sim::Ticks at = 0.0;
    std::uint64_t level = trace::SpanAttrs::kNoLevel;
    bool profile = false;  ///< stamp wall time onto recorded spans

    bool on() const noexcept { return session != nullptr; }

    /// now_ns() when profiling this span tree, else 0 ("not profiled") —
    /// the token annotate_wall() later turns into a wall stamp.
    std::uint64_t wall_start() const noexcept {
        return (profile && session != nullptr) ? util::now_ns() : 0;
    }
};

/// Stamps wall time onto a recorded span: `w0` is the wall_start() token
/// taken before the work; elapsed is clamped up to 1 ns so a profiled span
/// is always distinguishable from an unprofiled one (wall_ns == 0).
inline void annotate_wall(const SpanCtx& tc, trace::SpanId id, std::uint64_t w0) {
    if (w0 == 0 || id == trace::kNoSpan || tc.session == nullptr) return;
    const std::uint64_t t1 = util::now_ns();
    tc.session->annotate_wall(id, w0, t1 > w0 ? t1 - w0 : 1);
}

/// Clears the device's wave sink on scope exit (kernel bodies may throw).
class WaveTraceGuard {
public:
    WaveTraceGuard(sim::Device& dev, std::vector<sim::WaveTrace>* sink) : dev_(dev) {
        dev_.set_wave_trace(sink);
    }
    ~WaveTraceGuard() { dev_.set_wave_trace(nullptr); }
    WaveTraceGuard(const WaveTraceGuard&) = delete;
    WaveTraceGuard& operator=(const WaveTraceGuard&) = delete;

private:
    sim::Device& dev_;
};

/// Records the level span of one device launch plus its per-wave children.
inline trace::SpanId trace_gpu_launch(const SpanCtx& tc, const std::string& name, const char* phase,
                             const sim::Device& dev, const sim::LaunchResult& r,
                             std::uint64_t tasks, const std::vector<sim::WaveTrace>& waves,
                             trace::SpanKind kind) {
    const auto& dp = dev.params();
    trace::SpanAttrs a;
    a.level = tc.level;
    a.tasks = tasks;
    a.items = r.items;
    a.waves = r.waves;
    a.ops = r.total_ops.gpu_ops(dp.strided_penalty);
    a.max_ops = r.max_item_ops;
    a.work = static_cast<double>(r.total_ops.cpu_ops());
    a.coalesced_transactions = util::ceil_div(r.total_ops.mem_coalesced, dp.coalesce_width);
    a.strided_transactions = r.total_ops.mem_strided;
    const trace::SpanId lvl = tc.session->record(
        kind, trace::Unit::kGpu, launch_label(name, phase, tasks), tc.at, r.time, a,
        tc.parent);
    sim::Ticks cursor = tc.at + dp.launch_overhead;
    for (const sim::WaveTrace& w : waves) {
        trace::SpanAttrs wa;
        wa.items = w.items;
        wa.ops = w.ops.gpu_ops(dp.strided_penalty);
        wa.max_ops = w.max_item_ops;
        wa.work = static_cast<double>(w.ops.cpu_ops());
        wa.coalesced_transactions = util::ceil_div(w.ops.mem_coalesced, dp.coalesce_width);
        wa.strided_transactions = w.ops.mem_strided;
        tc.session->record(trace::SpanKind::kWave, trace::Unit::kGpu,
                           launch_label(name, "wave", w.items), cursor, w.duration, wa, lvl);
        cursor += w.duration;
    }
    return lvl;
}

/// Records the span of one CPU level/leaf sweep from its LevelResult.
inline trace::SpanId trace_cpu_level(const SpanCtx& tc, const std::string& name,
                                     const char* phase, const sim::LevelResult& r,
                                     trace::SpanKind kind) {
    trace::SpanAttrs a;
    a.level = tc.level;
    a.tasks = r.tasks;
    a.ops = static_cast<double>(r.total_ops.cpu_ops());
    a.max_ops = static_cast<double>(r.max_task_ops);
    a.work = a.ops;
    return tc.session->record(kind, trace::Unit::kCpu, launch_label(name, phase, r.tasks),
                              tc.at, r.time, a, tc.parent);
}

/// Records an analytic (not executed) level span on either unit.
inline trace::SpanId trace_analytic_level(const SpanCtx& tc, const std::string& name,
                                          const char* phase, trace::Unit unit,
                                          std::uint64_t tasks, double work, double unit_ops,
                                          sim::Ticks time, trace::SpanKind kind,
                                          std::uint64_t g = 0) {
    trace::SpanAttrs a;
    a.level = tc.level;
    a.tasks = tasks;
    a.work = work;
    a.ops = unit_ops;
    // Analytic levels are uniform by construction: every task charges the
    // same unit-priced cost, so the critical item IS the mean.
    if (tasks > 0) a.max_ops = unit_ops / static_cast<double>(tasks);
    if (unit == trace::Unit::kGpu && g > 0) {
        a.items = tasks;
        a.waves = util::ceil_div(tasks, g);
    }
    return tc.session->record(kind, unit, launch_label(name, phase, tasks), tc.at, time, a,
                              tc.parent);
}

/// Prices a host pass as p-way parallel CPU work and records its kHook
/// span (skipped when the pass charged nothing). `w0` is a wall_start()
/// token taken before the pass ran.
inline sim::Ticks charge_host_pass(const sim::OpCounter& ops, const sim::CpuParams& cpu,
                                   const std::string& name, const char* what, const SpanCtx& tc,
                                   std::uint64_t w0) {
    const sim::Ticks t = cpu.host_pass_time(static_cast<double>(ops.cpu_ops()));
    if (tc.on() && t > 0.0) {
        trace::SpanAttrs a;
        a.ops = static_cast<double>(ops.cpu_ops());
        a.work = a.ops;
        const trace::SpanId id = tc.session->record(trace::SpanKind::kHook, trace::Unit::kCpu,
                                                    phase_label(name, what), tc.at, t, a,
                                                    tc.parent);
        annotate_wall(tc, id, w0);
    }
    return t;
}

/// Records a link-transfer span. `wall0` is a wall_start() token taken
/// before the physical copy; 0 = not profiled.
inline void trace_transfer(const SpanCtx& tc, const std::string& name, const char* what,
                           std::uint64_t words, std::uint64_t bytes, sim::Ticks time,
                           std::uint64_t wall0 = 0) {
    if (!tc.on()) return;
    trace::SpanAttrs a;
    a.items = words;
    a.bytes = bytes;
    const trace::SpanId id =
        tc.session->record(trace::SpanKind::kTransfer, trace::Unit::kLink,
                           phase_label(name, what), tc.at, time, a, tc.parent);
    annotate_wall(tc, id, wall0);
}

/// Where each step of a Plan landed on the clock (pricing mode).
struct PricedStep {
    bool ran = false;
    sim::Ticks start = 0.0;
    sim::Ticks time = 0.0;
};

/// The block clock every Plan runs on, as the CRTP base of the two step
/// executors: the regular Interpreter below and the irregular Frontier
/// (core/irregular.hpp). A block starts at max(end of the block it waits
/// for, its unit's free tick), a phase closes at the latest end of its
/// blocks, each block's time is tallied into the ExecReport, and the run
/// total is summed the way the Plan says; the clock opens the run and phase
/// spans and places every step span. The executor provides begin_block,
/// execute and end_phase. Phases may be appended between advance() calls
/// (a dynamic level is planned once the level before it has run). Pricing
/// mode (`priced` set, tracing off) records each step's placement.
template <typename Steps>
class BlockClock {
protected:
    BlockClock(const Plan& plan, const ExecOptions& opts, ExecReport& rep, std::string name,
               bool functional, std::vector<PricedStep>* priced = nullptr)
        : plan_(plan), opts_(opts), rep_(rep), name_(std::move(name)), fn_(functional),
          priced_(priced) {
        rep.trace = opts.trace;
        if (opts.trace == nullptr) return;
        trace::SpanAttrs a;
        a.items = plan.n;
        a.cores = plan.hw.cpu.p;
        run_ = opts.trace->record(trace::SpanKind::kRun, trace::Unit::kHost,
                                  phase_label(name_, plan.executor), 0.0, 0.0, a);
        // Profiling stashes the wall start on the open span; close() turns it
        // into the run's wall duration (wall_ns stays 0 — "unprofiled" —
        // until then).
        if (opts.profile) opts.trace->annotate_wall(run_, util::now_ns(), 0);
    }

    /// Runs the phases appended since the last call.
    void advance() {
        block_end_.resize(plan_.steps.size(), 0.0);
        for (; next_ < plan_.phases.size(); ++next_) run_phase(next_);
    }

    /// Settles the report's run-level fields, closes the run span and
    /// returns it.
    trace::SpanId close() {
        rep_.alpha_effective = plan_.alpha_effective;
        rep_.chunks = plan_.chunks;
        rep_.tasks_spawned = plan_.tasks_spawned;
        rep_.total = plan_.total == Total::kCpuGpuLink
                         ? rep_.cpu_busy + rep_.gpu_busy + rep_.transfer
                     : plan_.total == Total::kGpuCpuLink
                         ? rep_.gpu_busy + rep_.cpu_busy + rep_.transfer
                         : prev_close_;
        if (run_ != trace::kNoSpan) {
            opts_.trace->close(run_, rep_.total);
            const std::uint64_t w0 = opts_.trace->span(run_).wall_start_ns;
            if (opts_.profile && w0 != 0) {
                const std::uint64_t t1 = util::now_ns();
                opts_.trace->annotate_wall(run_, w0, t1 > w0 ? t1 - w0 : 1);
            }
        }
        return run_;
    }

    const Plan& plan_;
    const ExecOptions& opts_;
    ExecReport& rep_;
    const std::string name_;
    const bool fn_;  ///< run task bodies on data (else price steps)
    std::vector<PricedStep>* const priced_;

private:
    void run_phase(std::size_t f) {
        Steps& steps = static_cast<Steps&>(*this);
        const Phase& ph = plan_.phases[f];
        const std::size_t last =
            f + 1 < plan_.phases.size() ? plan_.phases[f + 1].first : plan_.steps.size();
        const sim::Ticks origin = ph.origin == Origin::kPre    ? pre_
                                  : ph.origin == Origin::kSync ? pre_ + sync_
                                                               : prev_close_;
        // A labelled phase opens a grouping span, closed once its close is known.
        const trace::SpanId span =
            ph.label != nullptr && opts_.trace != nullptr
                ? opts_.trace->record(trace::SpanKind::kPhase, ph.unit,
                                      phase_label(name_, ph.label), origin, 0.0, {}, run_)
                : trace::kNoSpan;
        if (ph.label != nullptr) group_ = span;
        const trace::SpanId parent = ph.nested ? group_ : ph.label != nullptr ? span : run_;
        const sim::Ticks zero = ph.clock == Clock::kAbsolute ? origin : 0.0;
        sim::Ticks free[4] = {zero, zero, zero, zero};  // by trace::Unit
        sim::Ticks start = zero, k = 0.0, charge = 0.0, end = zero, latest = zero;
        const Step* head = nullptr;  // first step of the open block
        auto close_block = [&] {
            if (head == nullptr) return;
            end = start + k;
            latest = std::max(latest, end);
            block_end_[static_cast<std::size_t>(head - plan_.steps.data())] = end;
            free[static_cast<int>(head->unit)] = end;
            tally(head->tally, charge);
            head = nullptr;
        };
        for (std::size_t i = ph.first; i < last; ++i) {
            const Step& s = plan_.steps[i];
            if (ph.serial || s.block) {
                close_block();
                const sim::Ticks ready =
                    ph.serial ? end
                              : (s.after >= 0 ? block_end_[static_cast<std::size_t>(s.after)]
                                              : zero);
                start = std::max(ready, free[static_cast<int>(s.unit)]);
                k = charge = 0.0;
                head = &s;
                steps.begin_block(s, start);
            }
            if (s.mode == (fn_ ? StepMode::kAnalytic : StepMode::kFunctional)) continue;
            const sim::Ticks at = ph.clock == Clock::kShifted  ? (origin + start) + k
                                  : ph.clock == Clock::kNested ? origin + (start + k)
                                                               : origin + ((start + k) - origin);
            const std::uint64_t level =
                s.kind == StepKind::kLevel ? s.level : trace::SpanAttrs::kNoLevel;
            const SpanCtx tc{opts_.trace, parent, at, level, opts_.profile};
            sim::Ticks advance = 0.0;
            const sim::Ticks time = steps.execute(s, tc, start + k, advance);
            if (s.kind == StepKind::kPrePass) pre_ = time;
            if (priced_ != nullptr) (*priced_)[i] = {true, at, time};
            k += advance;
            charge += time;
        }
        close_block();
        const sim::Ticks close = ph.clock == Clock::kAbsolute ? latest : origin + latest;
        if (span != trace::kNoSpan) opts_.trace->close(span, close);
        if (ph.nested && group_ != trace::kNoSpan) opts_.trace->close(group_, close);
        if (ph.origin == Origin::kPre) sync_ = std::max(sync_, latest);
        prev_close_ = close;
        steps.end_phase();
    }

    void tally(Tally t, sim::Ticks x) {
        sim::Ticks* field[] = {nullptr, &rep_.cpu_busy, &rep_.gpu_busy, &rep_.transfer,
                               &rep_.finish};
        if (sim::Ticks* f = field[static_cast<int>(t)]) *f += x;
    }

    trace::SpanId run_ = trace::kNoSpan;
    trace::SpanId group_ = trace::kNoSpan;  ///< span of the latest labelled phase
    std::vector<sim::Ticks> block_end_;     ///< by the block's first step
    std::size_t next_ = 0;                  ///< first phase not yet run
    sim::Ticks pre_ = 0.0;                  ///< host pre-pass time
    sim::Ticks prev_close_ = 0.0;
    sim::Ticks sync_ = 0.0;                 ///< latest end of the kPre phases
};

/// The steps of a regular Plan: host pre-pass, device hooks, leaf sweeps,
/// tree levels and transfers. Functional mode runs the task bodies on real
/// data (a device buffer stands in for device memory); analytic mode
/// prices every step from the recurrence and touches no data beyond the
/// host pre-pass. Pricing mode is analytic without the pre-pass and
/// records each step's placement for the verifier.
template <typename T>
class Interpreter : BlockClock<Interpreter<T>> {
    using Base = BlockClock<Interpreter<T>>;
    friend Base;
    using Base::fn_;
    using Base::name_;
    using Base::opts_;
    using Base::plan_;
    using Base::priced_;
    using Base::rep_;

public:
    Interpreter(const Plan& plan, sim::CpuUnit& cpu, sim::Device* dev,
                const LevelAlgorithm<T>& alg, std::span<T> data, const ExecOptions& opts,
                ExecReport& rep, std::vector<PricedStep>* priced = nullptr)
        : Base(plan, opts, rep, alg.name(), opts.functional && priced == nullptr, priced),
          cpu_(cpu), dev_(dev), alg_(alg), data_(data), val_(validation_ctx(opts, rep)) {}

    /// Runs the plan, then (ExecOptions::observe) the hpu::obs observation
    /// over the closed run: every tick is settled and the observation only
    /// reads the session, so it cannot perturb anything (enforced by test).
    /// CPU-only runs pass a partial HpuParams: without GPU or link spans the
    /// device-side parameters stay non-identifiable and fire no findings.
    void run() {
        this->advance();
        const trace::SpanId run = this->close();
        if (!opts_.observe || opts_.trace == nullptr || run == trace::kNoSpan) return;
        obs::ObserveContext ctx;
        ctx.hw = plan_.hw;
        ctx.rec = alg_.recurrence();
        ctx.device_ops_multiplier = alg_.device_ops_multiplier(plan_.hw.gpu);
        if (cpu_.pool() != nullptr) ctx.pool = cpu_.pool()->telemetry();
        ctx.requested_chunks = plan_.requested_chunks;
        ctx.settled_chunks = plan_.chunks;
        ctx.thresholds = opts_.watchdog;
        rep_.obs = obs::observe(*opts_.trace, run, ctx);
    }

private:
    /// A streamed device block works on the chunk view its transfer made
    /// resident.
    void begin_block(const Step& s, sim::Ticks start) {
        if (fn_ && plan_.streamed && s.unit == trace::Unit::kGpu) {
            view_ = buf_->device_region(s.slice.offset - plan_.device.offset, s.slice.words,
                                        start);
            view_at_ = s.slice.offset;
        }
    }

    void end_phase() {
        if (released_) release_device();
    }

    std::span<T> host(const Slice& s) const { return data_.subspan(s.offset, s.words); }
    std::span<T> device(const Slice& s) const {
        return view_.subspan(s.offset - view_at_, s.words);
    }

    /// Runs (or prices) one step at span tick tc.at and block-frame tick
    /// `now`. Returns the time charged to the block's tally; `advance` is
    /// how far the block clock moves (they differ only for streamed
    /// transfers, which charge end − start).
    sim::Ticks execute(const Step& s, const SpanCtx& tc, sim::Ticks now, sim::Ticks& advance) {
        sim::Ticks t = 0.0;
        switch (s.kind) {
            case StepKind::kPrePass:  // e.g. FFT bit reversal; not part of a priced plan
                if (priced_ == nullptr) {
                    const std::uint64_t w0 = tc.wall_start();
                    sim::OpCounter ops;
                    alg_.before_run(data_, ops);
                    t = charge_host_pass(ops, plan_.hw.cpu, name_, "pre", tc, w0);
                }
                break;
            case StepKind::kHook: t = hook(s, tc); break;
            case StepKind::kLeaves:
            case StepKind::kLevel: t = sweep(s, tc); break;
            case StepKind::kTransfer: {
                const sim::Ticks x = s.timed ? plan_.hw.link.transfer_time(s.slice.words) : 0.0;
                // A streamed chunk occupies the link for end − start.
                t = plan_.streamed ? (now + x) - now : x;
                advance = x;
                const std::uint64_t w0 = tc.wall_start();
                if (fn_) move_data(s, now, now + x);
                if (s.timed) {
                    trace_transfer(tc, name_, s.what, s.slice.words, s.slice.words * sizeof(T),
                                   t, w0);
                }
                return t;
            }
            case StepKind::kPostPass: HPU_CHECK(false, "regular plans have no post-pass");
        }
        advance = t;
        return t;
    }

    /// A device hook: its functional callback, or the analytic lump of all
    /// of them, priced by DeviceParams::hook_time. The kHook span is skipped
    /// when the hook charged nothing (most algorithms have empty hooks).
    sim::Ticks hook(const Step& s, const SpanCtx& tc) {
        const bool lump = s.hook == HookCall::kLump;
        const std::uint64_t w0 = lump ? 0 : tc.wall_start();
        sim::OpCounter ops;
        if (lump) {
            ops = alg_.analytic_gpu_hook_ops(s.slice.words);
        } else {
            const std::span<T> view = device(s.slice);
            const std::uint64_t count = s.slice.words / plan_.task_size(s.level);
            if (s.hook == HookCall::kBeforeLevels) alg_.before_gpu_levels(view, count, ops);
            if (s.hook == HookCall::kAfterLevel) alg_.after_gpu_level(view, count, ops);
            if (s.hook == HookCall::kAfterLevels) alg_.after_gpu_levels(view, count, ops);
        }
        const double gpu_ops = ops.gpu_ops(dev_->params().strided_penalty);
        const sim::Ticks t = dev_->params().hook_time(gpu_ops);
        if (tc.on() && t > 0.0) {
            trace::SpanAttrs a;
            a.ops = gpu_ops;
            a.work = static_cast<double>(ops.cpu_ops());
            annotate_wall(tc,
                          tc.session->record(trace::SpanKind::kHook, trace::Unit::kGpu,
                                             phase_label(name_, s.what), tc.at, t, a, tc.parent),
                          w0);
        }
        return t;
    }

    /// A leaf sweep or a tree level on either unit.
    sim::Ticks sweep(const Step& s, const SpanCtx& tc) {
        const bool leaves = s.kind == StepKind::kLeaves;
        const bool gpu = s.unit == trace::Unit::kGpu;
        const std::uint64_t tasks =
            s.slice.words / (leaves ? alg_.base_size() : plan_.task_size(s.level));
        if (tasks == 0) return 0.0;
        if (!leaves && s.counted) ++(gpu ? rep_.levels_gpu : rep_.levels_cpu);
        if (fn_ && (!leaves || alg_.has_leaf_work())) {
            return gpu ? gpu_sweep(device(s.slice), tasks, leaves, tc)
                       : cpu_sweep(host(s.slice), tasks, leaves, tc);
        }
        const Price p = leaves ? (gpu ? price_leaves(dev_->params(), alg_, tasks)
                                      : price_leaves(cpu_.params(), alg_, tasks))
                               : (gpu ? price_level(dev_->params(), alg_, plan_.n, tasks, s.level)
                                      : price_level(cpu_.params(), alg_, plan_.n, tasks, s.level));
        if (tc.on()) {
            static constexpr const char* kPhase[2][2] = {{"cpu-level", "gpu-level"},
                                                         {"cpu-leaves", "gpu-leaves"}};
            trace_analytic_level(tc, name_, kPhase[leaves][gpu], s.unit, tasks, p.work, p.ops,
                                 p.time,
                                 leaves ? trace::SpanKind::kLeaves : trace::SpanKind::kLevel,
                                 gpu ? dev_->params().g : 0);
        }
        return p.time;
    }

    /// Race-checks one functional launch: launches whose phase the static
    /// pass certified are checked for conformance against the declared
    /// footprint (O(descriptors) per item); everything else goes through
    /// the exact word-concretizing detector. Both paths share counter and
    /// budget semantics, so a clean run's AnalysisReport is byte-identical
    /// either way.
    void check_launch(verify::Phase phase, const std::vector<sim::ItemAccessLog>& logs,
                      std::uint64_t wave_width, std::uint64_t task_size,
                      const std::string& label) {
        if (val_.proven(phase)) {
            if (auto fp = alg_.footprint(verify::FootprintQuery{phase}); fp.has_value()) {
                verify::check_conformance(*fp, logs, task_size, wave_width, label,
                                          *val_.report, val_.race);
                return;
            }
        }
        analysis::detect_races(logs, wave_width, label, *val_.report, val_.race);
    }

    /// Functional CPU sweep over `region`: one tree level of `tasks` tasks,
    /// or (leaves) its base cases. With validation on, task access sets are
    /// recorded and race-checked.
    sim::Ticks cpu_sweep(std::span<T> region, std::uint64_t tasks, bool leaves,
                         const SpanCtx& tc) {
        const std::uint64_t w0 = tc.wall_start();
        const char* phase = leaves ? "cpu-leaves" : "cpu-level";
        std::vector<sim::ItemAccessLog> logs(val_.on() ? tasks : 0);
        auto body = [&](std::uint64_t j, sim::OpCounter& ops) {
            if (val_.on()) ops.trace = &logs[j];
            if (leaves) {
                alg_.run_leaf(region, tasks, j, ops);
            } else {
                alg_.run_task(region, tasks, j, ops);
            }
        };
        const sim::LevelResult r =
            leaves ? cpu_.run_level(tasks, body)
                   : cpu_.run_level(tasks, body, alg_.level_working_set_bytes(region.size()),
                                    opts_.order, alg_.intra_task_parallel());
        if (val_.on()) {
            check_launch(leaves ? verify::Phase::kLeaf : verify::Phase::kCpuTask, logs,
                         cpu_.params().p, leaves ? alg_.base_size() : region.size() / tasks,
                         launch_label(name_, phase, tasks));
        }
        if (tc.on()) {
            annotate_wall(tc, trace_cpu_level(tc, name_, phase, r,
                                              leaves ? trace::SpanKind::kLeaves
                                                     : trace::SpanKind::kLevel),
                          w0);
        }
        return r.time;
    }

    /// Functional device sweep over `view` as one kernel of `tasks` items
    /// (a level, or its base cases). With validation on, the launch is
    /// race-checked and a level is re-executed in a permuted item order to
    /// catch order-dependent kernels the declared access sets miss.
    sim::Ticks gpu_sweep(std::span<T> view, std::uint64_t tasks, bool leaves,
                         const SpanCtx& tc) {
        const std::uint64_t w0 = tc.wall_start();
        const char* phase = leaves ? "gpu-leaves" : "gpu-level";
        std::vector<sim::WaveTrace> waves;
        WaveTraceGuard guard(*dev_, tc.on() ? &waves : nullptr);
        std::vector<sim::ItemAccessLog> logs(val_.on() ? tasks : 0);
        std::vector<T> before;
        if (val_.on() && !leaves) before.assign(view.begin(), view.end());
        auto body = [&](sim::WorkItem& wi) {
            if (val_.on()) wi.ops().trace = &logs[wi.global_id()];
            if (leaves) {
                alg_.run_leaf(view, tasks, wi.global_id(), wi.ops());
            } else {
                alg_.run_device_task(view, tasks, wi.global_id(), wi.ops());
            }
        };
        const sim::LaunchResult r = leaves ? dev_->launch(tasks, body)
                                           : dev_->launch(tasks, body, alg_.intra_task_parallel());
        if (val_.on()) {
            const std::string label = launch_label(name_, phase, tasks);
            check_launch(leaves ? verify::Phase::kLeaf : verify::Phase::kDeviceTask, logs,
                         dev_->params().g, leaves ? alg_.base_size() : view.size() / tasks,
                         label);
            if (!leaves) {
                const std::vector<T> after(view.begin(), view.end());
                auto finding = analysis::check_schedule_independence(
                    view, std::span<const T>(before), std::span<const T>(after), tasks,
                    [&](std::uint64_t j) {
                        sim::OpCounter throwaway;
                        alg_.run_device_task(view, tasks, j, throwaway);
                    },
                    /*seed=*/tasks, label);
                if (finding) val_.report->add(std::move(*finding));
            }
        }
        if (tc.on()) {
            annotate_wall(tc,
                          trace_gpu_launch(tc, name_, phase, *dev_, r, tasks, waves,
                                           leaves ? trace::SpanKind::kLeaves
                                                  : trace::SpanKind::kLevel),
                          w0);
        }
        return r.time;
    }

    /// The physical side of a transfer: the device buffer is created by the
    /// first copy in, bulk copies acquire the whole device view, streamed
    /// chunks record their link schedule [start, end) for the residency
    /// lint.
    void move_data(const Step& s, sim::Ticks start, sim::Ticks end) {
        const std::size_t rel = s.slice.offset - plan_.device.offset;
        if (s.to_device) {
            if (!buf_) {
                const std::span<T> region = host(plan_.device);
                buf_.emplace(std::vector<T>(region.begin(), region.end()));
                if (val_.on()) buf_->set_trace(&buf_events_);
            }
            if (plan_.streamed) {
                buf_->stream_to_device(rel, s.slice.words, start, end);
            } else {
                buf_->copy_to_device();
                view_ = buf_->device();
                view_at_ = plan_.device.offset;
            }
        } else {
            if (plan_.streamed) {
                buf_->stream_to_host(rel, s.slice.words, start, end);
            } else {
                buf_->copy_to_host();
            }
            released_ = true;
        }
    }

    /// Ships the retrieved device buffer back into the array and lints its
    /// residency log.
    void release_device() {
        std::copy(buf_->host_view().begin(), buf_->host_view().end(),
                  data_.begin() + static_cast<std::ptrdiff_t>(plan_.device.offset));
        if (val_.on()) {
            analysis::lint_residency(buf_events_, name_ + "/device-buffer", *val_.report);
        }
        buf_.reset();
        released_ = false;
    }

    sim::CpuUnit& cpu_;
    sim::Device* dev_;
    const LevelAlgorithm<T>& alg_;
    std::span<T> data_;
    const ValCtx val_;
    std::optional<sim::DeviceBuffer<T>> buf_;
    std::vector<sim::BufferEvent> buf_events_;
    std::span<T> view_;
    std::uint64_t view_at_ = 0;  ///< element of the array view_ starts at
    bool released_ = false;
};

/// Certificate of a regular run: proves the algorithm's footprints and
/// checks the schedule invariants on the very Plan the interpreter will
/// run, priced analytically from tick 0 (the pre-pass needs the data and
/// is not part of the checked schedule).
template <typename T>
hpu::verify::VerifyReport verify_plan(const Plan& plan, sim::CpuUnit& cpu, sim::Device* dev,
                                      const LevelAlgorithm<T>& alg) {
    using verify::PlanEvent;
    hpu::verify::VerifyReport rep = verify::prove_algorithm(alg);
    rep.executor = plan.executor;
    rep.n = plan.n;
    std::vector<PricedStep> priced(plan.steps.size());
    ExecOptions analytic;
    analytic.functional = false;
    analytic.validate = analytic.profile = analytic.verify = analytic.observe = false;
    ExecReport scratch;
    Interpreter<T>(plan, cpu, dev, alg, {}, analytic, scratch, &priced).run();

    verify::SchedulePlan sp;
    sp.executor = plan.executor;
    for (std::size_t i = 0; i < plan.steps.size(); ++i) {
        const Step& s = plan.steps[i];
        const bool leaves = s.kind == StepKind::kLeaves;
        if (!priced[i].ran || !s.timed) continue;
        if (s.kind == StepKind::kPrePass || s.kind == StepKind::kHook) continue;
        const bool gpu = s.unit == trace::Unit::kGpu;
        PlanEvent e;
        e.unit = gpu ? PlanEvent::Unit::kGpu : PlanEvent::Unit::kCpu;
        e.start = priced[i].start;
        e.duration = priced[i].time;
        e.offset = s.slice.offset;
        e.words = s.slice.words;
        if (s.kind == StepKind::kTransfer) {
            e.unit = PlanEvent::Unit::kLink;
            e.kind = s.to_device ? PlanEvent::Kind::kXferIn : PlanEvent::Kind::kXferOut;
            e.label = s.what;
        } else {
            const std::uint64_t size = leaves ? alg.base_size() : plan.task_size(s.level);
            e.kind = leaves ? PlanEvent::Kind::kLeaves : PlanEvent::Kind::kLevel;
            e.tasks = s.slice.words / size;
            if (e.tasks == 0) continue;
            if (!leaves) e.words = e.tasks * size;
            const Price pr =
                leaves ? (gpu ? price_leaves(dev->params(), alg, e.tasks)
                              : price_leaves(cpu.params(), alg, e.tasks))
                       : (gpu ? price_level(dev->params(), alg, plan.n, e.tasks, s.level)
                              : price_level(cpu.params(), alg, plan.n, e.tasks, s.level));
            e.work = gpu && !leaves ? pr.ops : pr.work;  // device levels: device-priced ops
            e.label = std::string(gpu ? "gpu" : "cpu") + (leaves ? "-leaves[" : "-level[") +
                      std::to_string(e.tasks) + "]";
        }
        sp.events.push_back(std::move(e));
    }
    if (plan.requested_chunks > 0) {
        verify::check_never_worse(plan.est_chosen, plan.est_mono, plan.chunks, rep);
    }
    verify::check_plan(sp, plan.hw, rep);
    return rep;
}

}  // namespace detail

/// Runs `plan` for `alg` over `data`: the common body of every regular
/// executor. Only functional runs prepare the algorithm's scratch and bind
/// its merge kernel — analytic runs touch no data.
template <typename T>
ExecReport run_plan(const Plan& plan, sim::CpuUnit& cpu, sim::Device* dev,
                    const LevelAlgorithm<T>& alg, std::span<T> data, const ExecOptions& opts) {
    if (opts.functional) {
        alg.prepare(data.size());
        detail::bind_merge_exec(alg, cpu.pool(), opts);
    }
    ExecReport rep;
    if (opts.verify) rep.verify = detail::verify_plan(plan, cpu, dev, alg);
    detail::Interpreter<T>(plan, cpu, dev, alg, data, opts, rep).run();
    return rep;
}

/// 1-core sequential execution — the paper's baseline comparator. The
/// recursive (Alg. 1) and breadth-first (Alg. 2) orders charge identical
/// ops on one core, so this is the time of both.
template <typename T>
ExecReport run_sequential(sim::CpuUnit& cpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                          const ExecOptions& opts = {}) {
    sim::CpuParams one_core = cpu.params();
    one_core.p = 1;
    one_core.contention = 0.0;  // a single core does not compete with itself
    // The virtual machine has one core, but the *functional* execution
    // still rides the caller's thread pool — the two clocks are
    // independent (DESIGN.md §10).
    sim::CpuUnit single(one_core, cpu.pool());
    if (const auto* irr = alg.as_irregular()) {
        sim::HpuParams hw;
        hw.cpu = one_core;
        return run_irregular(single, static_cast<sim::Device*>(nullptr), hw, *irr, data,
                             IrregularMode::kSequential, opts, /*chunks=*/0,
                             /*include_transfers=*/false, "sequential");
    }
    return run_plan(plan_cpu(alg, data.size(), one_core, "sequential"), single, nullptr, alg,
                    data, opts);
}

/// Multi-core breadth-first execution on the HPU's p CPU cores (GPU idle).
template <typename T>
ExecReport run_multicore(sim::CpuUnit& cpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                         const ExecOptions& opts = {}) {
    if (const auto* irr = alg.as_irregular()) {
        sim::HpuParams hw;
        hw.cpu = cpu.params();
        return run_irregular(cpu, static_cast<sim::Device*>(nullptr), hw, *irr, data,
                             IrregularMode::kMulticore, opts, /*chunks=*/0,
                             /*include_transfers=*/false, "multicore");
    }
    return run_plan(plan_cpu(alg, data.size(), cpu.params(), "multicore"), cpu, nullptr, alg,
                    data, opts);
}

/// GPU-only breadth-first execution (§4.2): ship the array, run every level
/// as a kernel, ship it back. `include_transfers` toggles the two link
/// events (Fig. 9 reports both variants).
template <typename T>
ExecReport run_gpu(sim::Hpu& hpu, const LevelAlgorithm<T>& alg, std::span<T> data,
                   const ExecOptions& opts = {}, bool include_transfers = true) {
    if (const auto* irr = alg.as_irregular()) {
        return run_irregular(hpu.cpu(), &hpu.gpu(), hpu.params(), *irr, data,
                             IrregularMode::kGpu, opts, /*chunks=*/0, include_transfers,
                             "gpu");
    }
    return run_plan(plan_gpu(alg, data.size(), hpu.params(), include_transfers), hpu.cpu(),
                    &hpu.gpu(), alg, data, opts);
}

}  // namespace hpu::core

// The dynamic-tree engine is a separate header for readability, but it needs
// the detail helpers above and the executors need its run_irregular — so it
// is textually part of this header (include-at-bottom; it has no own guard
// loop because both files are #pragma once).
#include "core/irregular.hpp"  // IWYU pragma: keep
