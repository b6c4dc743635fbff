// The irregular-tree engine (DESIGN.md §14): runs an IrregularLevelAlgorithm
// whose recursion tree appears at run time — variable arity, uneven
// extents, empty branches, early termination — on every scheduler shape
// (IrregularMode). The six public executors dispatch here when handed an
// irregular algorithm; regular algorithms never reach this file.
//
// Two sweeps, mirroring the breadth-first translation (Alg. 2): expand
// runs every task's divide_task top-down, the concatenated children
// becoming the next level, until the frontier is empty; combine (unless
// has_combine() is false) runs combine_task bottom-up over the recorded
// levels with each task's children.
//
// The engine is a per-level planner on the shared block clock: the
// observed-width policy (model/observed.hpp) places each level — split at
// the makespan-minimizing prefix (advanced/pipelined) or whole on the
// cheaper unit (basic) — and the level's steps are appended to the
// core::Plan. Functional runs plan one level at a time as the frontier
// appears; analytic runs plan the whole tree from analytic_widths(n) and
// touch no data. Transfers only cost time: functional execution stays in
// host memory. verify attaches the downgrade certificate
// (verify_irregular_run); obs is skipped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/executors.hpp"
#include "model/observed.hpp"

namespace hpu::core {
namespace detail {

/// The irregular engine on the block clock: it plans each dynamic level
/// into `plan` and executes the steps it planned. Every host pass,
/// boundary transfer, residency switch and level is a phase of its own
/// that starts where the previous one closed; levels (and switches) nest
/// under their sweep's span.
template <typename T>
class Frontier : BlockClock<Frontier<T>> {
    using Base = BlockClock<Frontier<T>>;
    friend Base;
    using Base::fn_;
    using Base::name_;
    using Base::rep_;

public:
    Frontier(Plan& plan, sim::CpuUnit& cpu, sim::Device* dev,
             const IrregularLevelAlgorithm<T>& alg, std::span<T> data, const ExecOptions& opts,
             ExecReport& rep, IrregularMode mode, std::uint64_t chunks, bool include_transfers)
        : Base(plan, opts, rep, alg.name(), opts.functional), plan_(plan), cpu_(cpu), dev_(dev),
          alg_(alg), data_(data), order_(opts.order), val_(validation_ctx(opts, rep)),
          mode_(mode),
          k_chunks_(mode == IrregularMode::kPipelined ? std::max<std::uint64_t>(chunks, 1) : 1),
          include_transfers_(include_transfers),
          mult_(alg.device_ops_multiplier(plan.hw.gpu)) {}

    /// Plans and runs the whole tree. Only functional runs prepare the
    /// algorithm's scratch and bind its merge kernel.
    void run() {
        const std::uint64_t n = plan_.n;
        if (fn_) {
            alg_.prepare(n);
            bind_merge_exec(alg_, cpu_.pool(), this->opts_);
        }
        if (mode_ == IrregularMode::kGpu && include_transfers_) boundary(true);
        if (!fn_) {
            const std::vector<std::uint64_t> widths = alg_.analytic_widths(n);
            HPU_CHECK(!widths.empty(), "analytic_widths must describe at least one level");
            phase("expand", false, false);
            for (std::uint64_t i = 0; i < widths.size(); ++i) uniform_level(i, widths[i], false);
            if (alg_.has_combine()) {
                phase("combine", false, false);
                for (std::uint64_t i = widths.size(); i-- > 0;) uniform_level(i, widths[i], true);
            }
        } else {
            this->advance();
            phase("expand", false, false);
            for (std::uint64_t depth = 0;; ++depth) {
                HPU_CHECK(depth < alg_.max_levels(n),
                          "irregular expansion exceeded max_levels — runaway divide_task?");
                if (!observed_level(depth, false)) break;
            }
            if (alg_.has_combine()) {
                phase("combine", false, false);
                for (std::uint64_t i = levels_.size(); i-- > 0;) observed_level(i, true);
            }
        }
        if (on_device_ && include_transfers_) boundary(false);  // end host-resident
        plan_detail::host_pass(plan_, StepKind::kPostPass, Tally::kCpu, StepMode::kFunctional);
        const bool hybrid = mode_ == IrregularMode::kBasic || mode_ == IrregularMode::kAdvanced ||
                            mode_ == IrregularMode::kPipelined;
        if (hybrid && total_est_work_ > 0.0) {
            plan_.alpha_effective = cpu_est_work_ / total_est_work_;
        }
        // A pipelined schedule that never shipped a GPU part degenerated to
        // the advanced hybrid — chunks reports 1, not 0 (0 marks
        // non-pipelined executors, matching the regular path's convention).
        if (mode_ == IrregularMode::kPipelined) {
            plan_.chunks = std::max<std::uint64_t>(plan_.chunks, 1);
        }
        this->advance();
        this->close();
    }

private:
    /// One recorded level of the expand sweep: its task list plus, per
    /// task, the offset of its children in the NEXT level's list (prefix
    /// sums, child_off.size() == width + 1).
    struct LevelRecord {
        TaskList list;
        std::vector<std::uint64_t> child_off;
    };

    // ------------------------------------------------------------ planning

    /// A phase starting where the previous one closed. A labelled one is a
    /// sweep (expand/combine); nested ones are its levels and switches.
    void phase(const char* label, bool serial, bool nested) {
        plan_detail::open_phase(plan_, label, trace::Unit::kHost, Origin::kPrevClose,
                                Clock::kShifted, serial, nested);
    }

    /// The whole array across the boundary.
    void boundary(bool to_device) {
        phase(nullptr, true, false);
        plan_detail::transfer(plan_, {0, plan_.n}, to_device, to_device ? "xfer-in" : "xfer-out");
        on_device_ = to_device;
    }

    /// Plans and runs the observed level at `depth`, then records its
    /// children; returns whether a divide level spawned a next one.
    /// Validation checks the declared extents pairwise disjoint before the
    /// level and race-checks its whole width as one window after it.
    bool observed_level(std::uint64_t depth, bool combine) {
        const TaskList& list = levels_[depth].list;
        const std::uint64_t width = list.width();
        if (!combine) plan_.tasks_spawned += width;
        if (width > 0) {
            est_.resize(width);
            for (std::uint64_t j = 0; j < width; ++j) {
                est_[j] = model::ObservedTask{alg_.task_cost_estimate(list.tasks[j], combine),
                                              list.tasks[j].size()};
            }
            level(depth);
            depth_ = depth;
            combine_ = combine;
            imbalance_ = list.imbalance();
            if (!combine) {
                kids_.resize(width);
                for (std::vector<TaskDesc>& k : kids_) k.clear();
            }
            logs_.assign(val_.on() ? width : 0, {});
            if (val_.on()) {
                label_ = launch_label(name_, combine ? "combine" : "divide", width);
                std::vector<analysis::Extent> ex;
                ex.reserve(width);
                for (const TaskDesc& t : list.tasks) ex.push_back({t.begin, t.end});
                analysis::detect_extent_overlaps(ex, label_, *val_.report, val_.race);
            }
            this->advance();
            if (val_.on()) {
                analysis::detect_races(logs_, width, label_, *val_.report, val_.race);
            }
        }
        return !combine && grow(depth);
    }

    /// Plans one uniform analytic level: `width` tasks of n / width words
    /// each, priced at analytic_task_cost.
    void uniform_level(std::uint64_t depth, std::uint64_t width, bool combine) {
        HPU_CHECK(width > 0, "analytic level width must be positive");
        if (!combine) plan_.tasks_spawned += width;
        est_.assign(width, model::ObservedTask{alg_.analytic_task_cost(plan_.n, depth),
                                               plan_.n / width});
        level(depth);
    }

    double est_sum(std::uint64_t b, std::uint64_t e) const {
        double s = 0.0;
        for (std::uint64_t j = b; j < e; ++j) s += est_[j].cost;
        return s;
    }

    std::uint64_t est_words(std::uint64_t b, std::uint64_t e) const {
        std::uint64_t w = 0;
        for (std::uint64_t j = b; j < e; ++j) w += est_[j].words;
        return w;
    }

    /// The mode's policy for the level in est_: how many leading tasks run
    /// on the CPU. kBasic plans its residency-switch transfer here.
    std::uint64_t cpu_tasks() {
        const std::uint64_t width = est_.size();
        switch (mode_) {
            case IrregularMode::kSequential:
            case IrregularMode::kMulticore: return width;
            case IrregularMode::kGpu: return 0;
            case IrregularMode::kBasic: {
                const std::uint64_t fw = est_words(0, width);
                const sim::Ticks sw = plan_.hw.link.transfer_time(fw);
                const auto pl = model::place_observed_level(plan_.hw, est_, mult_,
                                                            on_device_ ? sw : 0.0,
                                                            on_device_ ? 0.0 : sw);
                const bool gpu = pl.unit == model::LevelPlacement::kGpu;
                if (gpu != on_device_ && sw > 0.0) {
                    phase(nullptr, true, true);
                    plan_detail::transfer(plan_, {0, fw}, gpu, gpu ? "xfer-in" : "xfer-out");
                }
                on_device_ = gpu;
                return gpu ? 0 : width;
            }
            case IrregularMode::kAdvanced:
            case IrregularMode::kPipelined:
                return model::split_observed_level(plan_.hw, est_, mult_,
                                                   /*include_transfers=*/true)
                    .cpu_tasks;
        }
        return width;
    }

    /// Tasks [b, e) of the level on `unit`, as a block of its own.
    Step part(std::uint64_t depth, trace::Unit unit, std::uint64_t b, std::uint64_t e) const {
        Step s;
        s.kind = StepKind::kLevel;
        s.unit = unit;
        s.level = depth;
        s.slice = {0, est_words(b, e)};
        s.tasks = {b, e};
        s.block = true;
        s.tally = unit == trace::Unit::kCpu ? Tally::kCpu : Tally::kGpu;
        return s;
    }

    /// The level in est_: the CPU part over [0, k) and the GPU part over
    /// [k, W), the latter in up to K chunks. kAdvanced/kPipelined ship
    /// each chunk in before its launch and the whole GPU part out after
    /// the last one. The level closes at the later of the two parts.
    void level(std::uint64_t depth) {
        const std::uint64_t width = est_.size();
        const std::uint64_t k = cpu_tasks();
        cpu_est_work_ += est_sum(0, k);
        total_est_work_ += est_sum(0, width);
        phase(nullptr, false, true);
        if (k > 0) plan_.steps.push_back(part(depth, trace::Unit::kCpu, 0, k));
        if (width == k) return;
        const bool ship = mode_ == IrregularMode::kAdvanced || mode_ == IrregularMode::kPipelined;
        const std::uint64_t gw = width - k;
        const std::uint64_t K = std::min(k_chunks_, gw);
        for (std::uint64_t c = 0; c < K; ++c) {
            Step s = part(depth, trace::Unit::kGpu, k + (c * gw) / K, k + ((c + 1) * gw) / K);
            if (ship) s.after = plan_detail::transfer(plan_, s.slice, true, "xfer-in");
            s.counted = c == 0;  // levels_gpu counts the level once
            plan_.steps.push_back(s);
        }
        if (mode_ == IrregularMode::kPipelined) plan_.chunks = std::max(plan_.chunks, K);
        if (ship) {
            plan_detail::transfer(plan_, {0, est_words(k, width)}, false, "xfer-out",
                                  static_cast<std::int64_t>(plan_.steps.size() - 1));
        }
    }

    // ----------------------------------------------------------- execution

    /// Records where the divide level's children sit and appends them as
    /// the next level; false when there are none.
    bool grow(std::uint64_t depth) {
        const std::uint64_t width = levels_[depth].list.width();
        std::vector<std::uint64_t>& off = levels_[depth].child_off;
        off.assign(width + 1, 0);
        for (std::uint64_t j = 0; j < width; ++j) off[j + 1] = off[j] + kids_[j].size();
        TaskList next;
        next.tasks.reserve(off[width]);
        for (std::uint64_t j = 0; j < width; ++j) {
            next.tasks.insert(next.tasks.end(), kids_[j].begin(), kids_[j].end());
        }
        if (next.empty()) return false;
        levels_.push_back({std::move(next), {}});
        return true;
    }

    void begin_block(const Step& /*s*/, sim::Ticks /*start*/) {}
    void end_phase() {}

    sim::Ticks execute(const Step& s, const SpanCtx& tc, sim::Ticks /*now*/, sim::Ticks& advance) {
        sim::Ticks t = 0.0;
        if (s.kind == StepKind::kTransfer) {
            t = plan_.hw.link.transfer_time(s.slice.words);
            trace_transfer(tc, name_, s.what, s.slice.words, s.slice.words * sizeof(T), t);
        } else if (s.kind == StepKind::kLevel) {
            t = run_part(s, tc);
            if (s.counted) ++(s.unit == trace::Unit::kGpu ? rep_.levels_gpu : rep_.levels_cpu);
        } else {
            const bool root = s.kind == StepKind::kPrePass;
            const std::uint64_t w0 = tc.wall_start();
            sim::OpCounter ops;
            if (root) {
                levels_.push_back({alg_.root_tasks(data_, ops), {}});
            } else {
                alg_.finalize(data_, ops);
            }
            t = charge_host_pass(ops, cpu_.params(), name_, root ? "pre" : "finalize", tc, w0);
        }
        advance = t;
        return t;
    }

    /// Task j's divide or combine body.
    void run_task(std::uint64_t j, sim::OpCounter& ops) {
        if (!logs_.empty()) ops.trace = &logs_[j];
        const LevelRecord& rec = levels_[depth_];
        if (!combine_) {
            alg_.divide_task(data_, rec.list.tasks[j], depth_, kids_[j], ops);
            return;
        }
        const std::vector<std::uint64_t>& off = rec.child_off;
        std::span<const TaskDesc> ch;
        if (depth_ + 1 < levels_.size() && off[j + 1] > off[j]) {
            ch = std::span<const TaskDesc>(levels_[depth_ + 1].list.tasks.data() + off[j],
                                           off[j + 1] - off[j]);
        }
        alg_.combine_task(data_, rec.list.tasks[j], depth_, ch, ops);
    }

    /// Runs (or prices, uniformly) one part of a level. Its span carries
    /// the part's extent and the level's shape skew (1.0 when analytic).
    sim::Ticks run_part(const Step& s, const SpanCtx& tc) {
        const bool gpu = s.unit == trace::Unit::kGpu;
        const std::uint64_t count = s.tasks.end - s.tasks.begin;
        const std::uint64_t ws = alg_.level_working_set_bytes(s.slice.words);
        const std::uint64_t w0 = fn_ ? tc.wall_start() : 0;
        sim::Ticks t = 0.0;
        trace::SpanId id = trace::kNoSpan;
        if (!fn_) {
            const double cost = alg_.analytic_task_cost(plan_.n, s.level);
            const double work = cost * static_cast<double>(count);
            t = gpu ? dev_->params().launch_time(count, cost * mult_)
                    : cpu_.params().level_time(count, cost, ws);
            if (tc.on()) {
                id = trace_analytic_level(tc, name_, gpu ? "gpu-level" : "cpu-level", s.unit,
                                          count, work, gpu ? work * mult_ : work, t,
                                          trace::SpanKind::kLevel, gpu ? plan_.hw.gpu.g : 0);
            }
        } else if (gpu) {
            std::vector<sim::WaveTrace> waves;
            WaveTraceGuard guard(*dev_, tc.on() ? &waves : nullptr);
            const sim::LaunchResult r = dev_->launch(
                count,
                [&](sim::WorkItem& wi) { run_task(s.tasks.begin + wi.global_id(), wi.ops()); },
                alg_.intra_task_parallel());
            t = r.time;
            if (tc.on()) {
                id = trace_gpu_launch(tc, name_, "gpu-level", *dev_, r, count, waves,
                                      trace::SpanKind::kLevel);
            }
        } else {
            const sim::LevelResult r = cpu_.run_level(
                count,
                [&](std::uint64_t j, sim::OpCounter& ops) { run_task(s.tasks.begin + j, ops); },
                ws, order_, alg_.intra_task_parallel());
            t = r.time;
            if (tc.on()) id = trace_cpu_level(tc, name_, "cpu-level", r, trace::SpanKind::kLevel);
        }
        if (id != trace::kNoSpan) {
            trace::SpanAttrs a;
            a.extent_words = s.slice.words;
            a.imbalance = fn_ ? imbalance_ : 1.0;
            tc.session->annotate(id, a);
            annotate_wall(tc, id, w0);
        }
        return t;
    }

    Plan& plan_;  ///< the plan this engine appends to (the clock's plan)
    sim::CpuUnit& cpu_;
    sim::Device* dev_;
    const IrregularLevelAlgorithm<T>& alg_;
    std::span<T> data_;
    const util::ListOrder order_;
    const ValCtx val_;
    const IrregularMode mode_;
    const std::uint64_t k_chunks_;  ///< chunk cap per level (1 unless pipelined)
    const bool include_transfers_;
    const double mult_;  ///< device ops per CPU op of a task (device modes)
    // Planning state.
    std::vector<model::ObservedTask> est_;  ///< the level being planned
    bool on_device_ = false;  ///< where the frontier lives (kBasic residency)
    double cpu_est_work_ = 0.0;
    double total_est_work_ = 0.0;
    // The recorded frontier and the level being run (functional).
    std::vector<LevelRecord> levels_;
    std::vector<std::vector<TaskDesc>> kids_;  ///< children per task, reused across levels
    std::vector<sim::ItemAccessLog> logs_;     ///< per task, under validation
    std::string label_;                        ///< the level's validation label
    std::uint64_t depth_ = 0;
    bool combine_ = false;
    double imbalance_ = 0.0;
};

}  // namespace detail

/// Runs an irregular algorithm on the frontier engine: the dynamic-tree
/// counterpart of run_plan.
template <typename T>
ExecReport run_irregular(sim::CpuUnit& cpu, sim::Device* dev, const sim::HpuParams& hw,
                         const IrregularLevelAlgorithm<T>& alg, std::span<T> data,
                         IrregularMode mode, const ExecOptions& opts, std::uint64_t chunks,
                         bool include_transfers, const char* executor_label) {
    const std::uint64_t n = data.size();
    HPU_CHECK(alg.admissible(n), "input size not admissible for this algorithm");
    HPU_CHECK(mode == IrregularMode::kSequential || mode == IrregularMode::kMulticore ||
                  dev != nullptr,
              "gpu/hybrid irregular modes need a device");
    // Opens with the root pass, which runs only on data.
    Plan plan = plan_detail::skeleton(executor_label, hw, alg, n, Tally::kCpu,
                                      StepMode::kFunctional);
    plan.total = Total::kLastClose;
    ExecReport rep;
    if (opts.verify) rep.verify = verify::verify_irregular_run(alg.name(), executor_label, n);
    detail::Frontier<T>(plan, cpu, dev, alg, data, opts, rep, mode, chunks, include_transfers)
        .run();
    return rep;
}

}  // namespace hpu::core
