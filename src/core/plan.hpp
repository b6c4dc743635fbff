// core::Plan — the schedule of one executor run, written down once
// (DESIGN.md §17). A Plan is an ordered list of steps, each on one unit
// (cpu / gpu / link / host) over a slice of the array: the host passes,
// device hooks, leaf sweeps, tree levels, and transfers. Steps group into
// blocks that start when their dependencies are met (an earlier block has
// ended and the unit is free), and blocks into phases that open trace
// spans. One planner per regular executor builds the Plan from (α, y, K);
// the irregular engine (core/irregular.hpp) appends it one dynamic level
// at a time. The block clock in core/executors.hpp runs it in functional
// or analytic mode, and the verifier checks a regular Plan, priced
// analytically.
//
// Each executor historically summed its clocks in its own order, and the
// reports and span trees are pinned bit for bit (tests/plan_golden_test).
// The Plan therefore carries that arithmetic as data: how a phase places
// its steps on the clock (Clock), where it starts (Origin), which report
// field each block charges (Tally), and how the run total is summed
// (Total).
//
// This header also owns the level/leaf pricing of an algorithm, over the
// unit cost functions of sim/params.hpp, that every reader shares: the
// interpreter's analytic mode, the verifier, and the pipelined never-worse
// guard.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/level_algorithm.hpp"
#include "model/basic.hpp"
#include "sim/device.hpp"
#include "sim/params.hpp"
#include "trace/span.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace hpu::core {

// ------------------------------------------------------------- pricing

/// Analytic price of one uniform launch: virtual duration, CPU-normalized
/// work, and unit-priced ops (device ops include the strided penalty).
struct Price {
    sim::Ticks time = 0.0;
    double work = 0.0;
    double ops = 0.0;
};

template <typename T>
Price price_level(const sim::CpuParams& cpu, const LevelAlgorithm<T>& alg, std::uint64_t n,
                  std::uint64_t tasks, std::uint64_t level) {
    const double each =
        alg.recurrence().task_cost(static_cast<double>(n), static_cast<double>(level));
    const double work = static_cast<double>(tasks) * each;
    return {cpu.level_time(tasks, each, alg.level_working_set_bytes(n)), work, work};
}

template <typename T>
Price price_level(const sim::DeviceParams& dev, const LevelAlgorithm<T>& alg, std::uint64_t n,
                  std::uint64_t tasks, std::uint64_t level) {
    const double each =
        alg.recurrence().task_cost(static_cast<double>(n), static_cast<double>(level));
    const double ops = each * alg.device_ops_multiplier(dev);
    return {dev.launch_time(tasks, ops), static_cast<double>(tasks) * each,
            static_cast<double>(tasks) * ops};
}

template <typename T>
Price price_leaves(const sim::CpuParams& cpu, const LevelAlgorithm<T>& alg, std::uint64_t count) {
    const double leaf = alg.recurrence().leaf_cost;
    const double work = static_cast<double>(count) * leaf;
    return {cpu.level_time(count, leaf), work, work};
}

/// Leaf sweeps charge plain compute: no device op multiplier.
template <typename T>
Price price_leaves(const sim::DeviceParams& dev, const LevelAlgorithm<T>& alg,
                   std::uint64_t count) {
    const double leaf = alg.recurrence().leaf_cost;
    const double work = static_cast<double>(count) * leaf;
    return {dev.launch_time(count, leaf), work, work};
}

// ------------------------------------------------------------ the plan

/// kPrePass / kPostPass are host passes: the regular pre-pass, or the
/// irregular root pass and finalize.
enum class StepKind : std::uint8_t { kPrePass, kPostPass, kHook, kLeaves, kLevel, kTransfer };

/// Which device hook a kHook step calls: one of the algorithm's functional
/// callbacks, or (analytic mode) the closed-form lump of all of them.
enum class HookCall : std::uint8_t { kBeforeLevels, kAfterLevel, kAfterLevels, kLump };

/// Interpretation modes a step exists in (hooks differ by mode).
enum class StepMode : std::uint8_t { kBoth, kFunctional, kAnalytic };

/// ExecReport field a block's time is charged to.
enum class Tally : std::uint8_t { kNone, kCpu, kGpu, kLink, kFinish };

/// Where a phase's clock starts.
enum class Origin : std::uint8_t {
    kPre,        ///< end of the host pre-pass
    kPrevClose,  ///< close tick of the previous phase (0 for the first)
    kSync,       ///< pre + the latest end of the kPre phases (the join)
};

/// How a phase places a step at block start `b`, block-local offset `k`.
enum class Clock : std::uint8_t {
    kShifted,   ///< (origin + b) + k
    kNested,    ///< origin + (b + k)
    kAbsolute,  ///< b counts from origin itself; origin + ((b + k) - origin)
};

/// How ExecReport::total is summed.
enum class Total : std::uint8_t {
    kCpuGpuLink,  ///< (cpu_busy + gpu_busy) + transfer
    kGpuCpuLink,  ///< (gpu_busy + cpu_busy) + transfer
    kLastClose,   ///< close tick of the last phase
};

/// Contiguous element range [offset, offset + words) of the whole array.
struct Slice {
    std::uint64_t offset = 0;
    std::uint64_t words = 0;
};

/// Tasks [begin, end) of one dynamic level.
struct TaskRange {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
};

/// Small fields first, so a step packs into 72 bytes.
struct Step {
    StepKind kind = StepKind::kLevel;
    trace::Unit unit = trace::Unit::kCpu;
    HookCall hook = HookCall::kLump;
    StepMode mode = StepMode::kBoth;
    bool to_device = true;    ///< transfer direction
    bool timed = true;        ///< false: physical copy only, no virtual time
    bool counted = true;      ///< level counts toward ExecReport::levels_*
    /// Opens a block: the block starts at max(end of the block holding
    /// step `after` (none: the phase's zero), the unit's free tick) and
    /// charges its summed time to `tally`.
    bool block = false;
    Tally tally = Tally::kNone;
    std::int64_t after = -1;
    /// Tree level of a kLevel step; for hooks, the level whose task count
    /// the callback receives.
    std::uint64_t level = 0;
    /// Elements the step covers. Steps of a dynamic level only use
    /// `words`: the extent the step ships or runs over.
    Slice slice;
    TaskRange tasks;  ///< the tasks a dynamic level step runs
    const char* what = "";    ///< span label of hooks and transfers
};

struct Phase {
    const char* label = nullptr;  ///< phase span label; nullptr = no span
    trace::Unit unit = trace::Unit::kHost;
    Origin origin = Origin::kPrevClose;
    Clock clock = Clock::kShifted;
    /// Every step is its own block, starting where the previous one ended.
    bool serial = false;
    /// Spans go under the latest labelled phase's span, and the phase's
    /// close extends it (a dynamic level inside its expand/combine sweep).
    bool nested = false;
    std::size_t first = 0;  ///< first step; the phase runs to the next one's first
};

struct Plan {
    const char* executor = "";
    sim::HpuParams hw;  ///< unit configuration the run is priced against
    std::uint64_t n = 0;
    std::uint64_t a = 2;
    Slice device;          ///< elements the device buffer holds (words 0: none)
    bool streamed = false; ///< chunked transfers stream into the device buffer
    Total total = Total::kCpuGpuLink;
    double alpha_effective = 0.0;
    std::uint64_t chunks = 0;            ///< K settled on (pipelined)
    /// K requested (pipelined, whose never-worse estimates below are set)
    std::uint64_t requested_chunks = 0;
    std::uint64_t tasks_spawned = 0;     ///< tasks of the expand sweep (irregular)
    sim::Ticks est_chosen = 0.0;
    sim::Ticks est_mono = 0.0;
    std::vector<Phase> phases;
    std::vector<Step> steps;

    std::uint64_t task_size(std::uint64_t level) const {
        return n / util::ipow(a, static_cast<std::uint32_t>(level));
    }
};

// ----------------------------------------------------------- planning

/// Internal levels of an array run (0 .. L-1; leaves below L-1).
template <typename T>
std::uint64_t level_count(const LevelAlgorithm<T>& alg, std::uint64_t n) {
    HPU_CHECK(alg.a() == alg.b(), "array executors require a == b (contiguous level tiling)");
    HPU_CHECK(n >= alg.base_size() * alg.b(), "input must contain at least one division");
    HPU_CHECK(alg.admissible(n), "input size not admissible for this algorithm");
    std::uint64_t L = 0, m = n;
    while (m > alg.base_size()) {
        m /= alg.b();
        ++L;
    }
    return L;
}

/// One planned transfer chunk of the GPU slice (offset within the slice).
struct ChunkPlan {
    std::uint64_t offset = 0;
    std::uint64_t words = 0;
};

/// Splits `region` elements into at most `k` chunks, each a multiple of
/// `quantum` (the transfer-level task size, so no task ever straddles a
/// chunk boundary at any level the chunks execute). Leading chunks take
/// the remainder quanta.
inline std::vector<ChunkPlan> plan_chunks(std::uint64_t region, std::uint64_t quantum,
                                          std::uint64_t k) {
    const std::uint64_t slots = region / quantum;
    k = std::clamp<std::uint64_t>(k, 1, slots);
    std::vector<ChunkPlan> plan(k);
    std::uint64_t off = 0;
    for (std::uint64_t c = 0; c < k; ++c) {
        const std::uint64_t words = (slots / k + (c < slots % k ? 1 : 0)) * quantum;
        plan[c] = {off, words};
        off += words;
    }
    return plan;
}

/// The advanced/pipelined split at explicit (alpha, y): the first level
/// with >= split_tasks tasks (0 = auto: max(4p, 64)), clamped to the
/// transfer level y; the CPU takes the leading cpu_tasks of its tasks.
struct SplitChoice {
    std::uint64_t s = 0;           ///< split level
    std::uint64_t split_elem = 0;  ///< element count of the CPU slice
    double alpha_effective = 0.0;  ///< realized CPU work ratio
};

inline SplitChoice choose_split(std::uint64_t L, std::uint64_t n, std::uint64_t a, double alpha,
                                std::uint64_t y, std::uint64_t split_tasks, std::uint64_t p) {
    auto tasks_at = [&](std::uint64_t level) {
        return util::ipow(a, static_cast<std::uint32_t>(level));
    };
    if (split_tasks == 0) split_tasks = std::max<std::uint64_t>(4 * p, 64);
    std::uint64_t s = 0;
    while (s < L && tasks_at(s) < split_tasks) ++s;
    s = std::min<std::uint64_t>(s, y);  // split cannot sit below the transfer level
    const std::uint64_t S = tasks_at(s);
    const std::uint64_t cpu_tasks = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::llround(alpha * static_cast<double>(S))), 1, S - 1);
    return {s, cpu_tasks * (n / S),
            static_cast<double>(cpu_tasks) / static_cast<double>(S)};
}

namespace plan_detail {

inline void open_phase(Plan& p, const char* label, trace::Unit unit, Origin origin, Clock clock,
                       bool serial = false, bool nested = false) {
    p.phases.push_back({label, unit, origin, clock, serial, nested, p.steps.size()});
}

/// Marks the steps emitted since `first` as one block; returns its first
/// step (for later `after` references), or -1 if nothing was emitted.
inline std::int64_t close_block(Plan& p, std::size_t first, std::int64_t after, Tally tally) {
    if (first == p.steps.size()) return -1;
    p.steps[first].block = true;
    p.steps[first].after = after;
    for (std::size_t i = first; i < p.steps.size(); ++i) p.steps[i].tally = tally;
    return static_cast<std::int64_t>(first);
}

/// Opens a serial phase with one host pass (the regular pre-pass, or the
/// irregular root pass and finalize) charged to `tally`; later steps may
/// join the phase.
inline void host_pass(Plan& p, StepKind kind, Tally tally, StepMode mode) {
    open_phase(p, nullptr, trace::Unit::kHost, Origin::kPrevClose, Clock::kShifted, true);
    Step s;
    s.kind = kind;
    s.unit = trace::Unit::kCpu;
    s.tally = tally;
    s.mode = mode;
    p.steps.push_back(s);
}

/// A transfer as its own block, waiting for the block of step `after`;
/// returns its index.
inline std::int64_t transfer(Plan& p, Slice slice, bool to_device, const char* what,
                             std::int64_t after = -1, bool timed = true) {
    Step s;
    s.kind = StepKind::kTransfer;
    s.unit = trace::Unit::kLink;
    s.slice = slice;
    s.to_device = to_device;
    s.what = what;
    s.timed = timed;
    s.block = true;
    s.after = after;
    s.tally = Tally::kLink;
    p.steps.push_back(s);
    return static_cast<std::int64_t>(p.steps.size() - 1);
}

inline void leaves(Plan& p, trace::Unit unit, Slice slice) {
    Step s;
    s.kind = StepKind::kLeaves;
    s.unit = unit;
    s.slice = slice;
    p.steps.push_back(s);
}

inline void hook(Plan& p, Slice view, HookCall call, std::uint64_t level, StepMode mode,
                 const char* what) {
    Step s;
    s.kind = StepKind::kHook;
    s.unit = trace::Unit::kGpu;
    s.slice = view;
    s.hook = call;
    s.level = level;
    s.mode = mode;
    s.what = what;
    p.steps.push_back(s);
}

/// Levels from_deep .. to_shallow (inclusive) of `slice` on the CPU,
/// skipping levels whose tasks are wider than the slice.
inline void cpu_levels(Plan& p, Slice slice, std::uint64_t from_deep, std::uint64_t to_shallow) {
    for (std::uint64_t i = from_deep + 1; i-- > to_shallow;) {
        if (slice.words / p.task_size(i) == 0) continue;
        Step s;
        s.kind = StepKind::kLevel;
        s.unit = trace::Unit::kCpu;
        s.level = i;
        s.slice = slice;
        p.steps.push_back(s);
    }
}

/// One device pass over `view`: entry hook (functional callback, or the
/// analytic lump when `lump`), leaf sweep, levels from_deep .. to_shallow
/// each followed by its functional level hook, and the exit hook (plus an
/// analytic lump when `post_lump`). `merge` labels the pipelined merged
/// stage, which has no leaf sweep.
inline void gpu_pass(Plan& p, Slice view, std::uint64_t from_deep, std::uint64_t to_shallow,
                     bool lump, bool merge = false, bool post_lump = false,
                     bool counted = true) {
    hook(p, view, HookCall::kBeforeLevels, from_deep, StepMode::kFunctional,
         merge ? "gpu-merge-hook" : "gpu-pre-hook");
    if (lump) {
        hook(p, view, HookCall::kLump, 0, StepMode::kAnalytic,
             merge ? "gpu-merge-hook" : "gpu-hooks");
    }
    if (!merge) leaves(p, trace::Unit::kGpu, view);
    for (std::uint64_t i = from_deep + 1; i-- > to_shallow;) {
        if (view.words / p.task_size(i) == 0) continue;
        Step s;
        s.kind = StepKind::kLevel;
        s.unit = trace::Unit::kGpu;
        s.level = i;
        s.slice = view;
        s.counted = counted;
        p.steps.push_back(s);
        hook(p, view, HookCall::kAfterLevel, i, StepMode::kFunctional, "gpu-level-hook");
    }
    hook(p, view, HookCall::kAfterLevels, to_shallow, StepMode::kFunctional, "gpu-post-hook");
    if (post_lump) hook(p, view, HookCall::kLump, 0, StepMode::kAnalytic, "gpu-post-hook");
}

/// A plan for `executor` that opens with the host pre-pass, charged to
/// `pre` and run in `mode`.
template <typename T>
Plan skeleton(const char* executor, const sim::HpuParams& hw, const LevelAlgorithm<T>& alg,
              std::uint64_t n, Tally pre, StepMode mode = StepMode::kBoth) {
    Plan p;
    p.executor = executor;
    p.hw = hw;
    p.n = n;
    p.a = alg.a();
    host_pass(p, StepKind::kPrePass, pre, mode);
    return p;
}

/// The CPU thread of the split schedulers: its concurrent slice, then the
/// finish phase (the GPU slice's levels y-1..s, the shared top s-1..0).
inline void split_cpu_phases(Plan& p, std::uint64_t L, std::uint64_t y, const SplitChoice& sp) {
    const Slice cpu{0, sp.split_elem};
    open_phase(p, "cpu-parallel", trace::Unit::kCpu, Origin::kPre, Clock::kShifted);
    std::size_t first = p.steps.size();
    leaves(p, trace::Unit::kCpu, cpu);
    close_block(p, first, -1, Tally::kCpu);
    first = p.steps.size();
    cpu_levels(p, cpu, L - 1, sp.s);
    close_block(p, first, -1, Tally::kCpu);

    open_phase(p, "finish", trace::Unit::kCpu, Origin::kSync, Clock::kShifted);
    if (y > sp.s) {
        first = p.steps.size();
        cpu_levels(p, {sp.split_elem, p.n - sp.split_elem}, y - 1, sp.s);
        close_block(p, first, -1, Tally::kFinish);
    }
    if (sp.s > 0) {
        first = p.steps.size();
        cpu_levels(p, {0, p.n}, sp.s - 1, 0);
        close_block(p, first, -1, Tally::kFinish);
    }
    p.total = Total::kLastClose;
    p.alpha_effective = sp.alpha_effective;
}

}  // namespace plan_detail

/// Sequential / multicore: pre-pass, leaves, levels L-1..0, all on `cpu`.
template <typename T>
Plan plan_cpu(const LevelAlgorithm<T>& alg, std::uint64_t n, const sim::CpuParams& cpu,
              const char* executor) {
    namespace d = plan_detail;
    const std::uint64_t L = level_count(alg, n);
    sim::HpuParams hw;
    hw.cpu = cpu;
    Plan p = d::skeleton(executor, hw, alg, n, Tally::kCpu);
    const std::size_t first = p.steps.size();
    d::leaves(p, trace::Unit::kCpu, {0, n});
    d::cpu_levels(p, {0, n}, L - 1, 0);
    d::close_block(p, first, -1, Tally::kCpu);
    return p;
}

/// GPU-only (§4.2): ship the array, run every level as a kernel, ship it
/// back. Without `include_transfers` the copies still happen but cost no
/// virtual time (Fig. 9's second variant).
template <typename T>
Plan plan_gpu(const LevelAlgorithm<T>& alg, std::uint64_t n, const sim::HpuParams& hw,
              bool include_transfers) {
    namespace d = plan_detail;
    const std::uint64_t L = level_count(alg, n);
    Plan p = d::skeleton("gpu", hw, alg, n, Tally::kCpu);
    p.device = {0, n};
    d::transfer(p, {0, n}, true, "xfer-in", -1, include_transfers);
    const std::size_t first = p.steps.size();
    d::gpu_pass(p, {0, n}, L - 1, 0, /*lump=*/true);
    d::close_block(p, first, -1, Tally::kGpu);
    d::transfer(p, {0, n}, false, "xfer-out", -1, include_transfers);
    return p;
}

/// Basic hybrid (§5.1): levels at or below the crossover on the device,
/// the rest on the CPU; one transfer each way. When the device can never
/// win a level the plan is the multicore one.
template <typename T>
Plan plan_basic(const LevelAlgorithm<T>& alg, std::uint64_t n, const sim::HpuParams& hw) {
    namespace d = plan_detail;
    const std::uint64_t L = level_count(alg, n);
    const auto pred = model::predict_basic(hw, alg.recurrence(), static_cast<double>(n));
    if (pred.cpu_only) return plan_cpu(alg, n, hw.cpu, "multicore");
    // First GPU level: the shallowest level the device wins.
    const std::uint64_t gpu_top = std::min<std::uint64_t>(
        L, static_cast<std::uint64_t>(std::ceil(std::max(0.0, pred.crossover_level))));
    Plan p = d::skeleton("basic-hybrid", hw, alg, n, Tally::kCpu);
    p.device = {0, n};
    p.total = Total::kGpuCpuLink;
    d::open_phase(p, "gpu-phase", trace::Unit::kGpu, Origin::kPre, Clock::kAbsolute, true);
    d::transfer(p, {0, n}, true, "xfer-in");
    std::size_t first = p.steps.size();
    // Hook costs apply only when device levels actually execute.
    d::gpu_pass(p, {0, n}, L - 1, gpu_top, /*lump=*/gpu_top < L);
    d::close_block(p, first, -1, Tally::kGpu);
    d::transfer(p, {0, n}, false, "xfer-out");
    if (gpu_top > 0) {
        d::open_phase(p, "cpu-levels", trace::Unit::kCpu, Origin::kPrevClose, Clock::kShifted);
        first = p.steps.size();
        d::cpu_levels(p, {0, n}, gpu_top - 1, 0);
        d::close_block(p, first, -1, Tally::kCpu);
    }
    return p;
}

/// Advanced hybrid (§5.2) at explicit (α, y): below the split level the
/// CPU climbs its slice while the device climbs the rest to level y and
/// ships it back; the CPU then finishes the tree.
template <typename T>
Plan plan_advanced(const LevelAlgorithm<T>& alg, std::uint64_t n, const sim::HpuParams& hw,
                   double alpha, std::uint64_t y, std::uint64_t split_tasks) {
    namespace d = plan_detail;
    HPU_CHECK(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    const std::uint64_t L = level_count(alg, n);
    HPU_CHECK(y >= 1 && y <= L, "transfer level y must be in [1, L]");
    const SplitChoice sp = choose_split(L, n, alg.a(), alpha, y, split_tasks, hw.cpu.p);
    const Slice gpu{sp.split_elem, n - sp.split_elem};
    Plan p = d::skeleton("advanced-hybrid", hw, alg, n, Tally::kNone);
    p.device = gpu;
    d::open_phase(p, "gpu-phase", trace::Unit::kGpu, Origin::kPre, Clock::kNested);
    const std::int64_t in = d::transfer(p, gpu, true, "xfer-in");
    const std::size_t first = p.steps.size();
    // Hook costs apply only when device levels actually execute.
    d::gpu_pass(p, gpu, L - 1, y, /*lump=*/y < L);
    d::transfer(p, gpu, false, "xfer-out", d::close_block(p, first, in, Tally::kGpu));
    d::split_cpu_phases(p, L, y, sp);
    return p;
}

/// Chunk plan, merge level d, and the never-worse guard of the pipelined
/// scheduler: both the chunked and the unchunked (K = 1) device thread are
/// priced with the shared pricing above, and the chunks are kept only on a
/// strict win.
struct PipelineChoice {
    std::vector<ChunkPlan> chunks;
    std::uint64_t d = 0;
    sim::Ticks est_chosen = 0.0;
    sim::Ticks est_mono = 0.0;
};

template <typename T>
PipelineChoice choose_pipeline(const LevelAlgorithm<T>& alg, const sim::Device& dev,
                               const sim::LinkParams& link, std::uint64_t n, std::uint64_t L,
                               std::uint64_t a, std::uint64_t W, std::uint64_t y,
                               std::uint64_t requested_chunks) {
    auto task_size = [&](std::uint64_t i) {
        return n / util::ipow(a, static_cast<std::uint32_t>(i));
    };
    // Chunks over the transfer-level quantum; the merge level d keeps every
    // chunk's launches saturated (>= g tasks).
    std::vector<ChunkPlan> plan = plan_chunks(W, task_size(y), requested_chunks);
    std::uint64_t d = y;
    if (plan.size() > 1) {
        std::uint64_t w_min = plan.front().words;
        for (const ChunkPlan& c : plan) w_min = std::min(w_min, c.words);
        while (d < L && w_min / task_size(d) < dev.params().g) ++d;
    }
    auto level_time = [&](std::uint64_t region, std::uint64_t i) -> sim::Ticks {
        const std::uint64_t tasks = region / task_size(i);
        return tasks == 0 ? 0.0 : price_level(dev.params(), alg, n, tasks, i).time;
    };
    auto leaves_time = [&](std::uint64_t region) -> sim::Ticks {
        const std::uint64_t count = region / alg.base_size();
        return count == 0 ? 0.0 : price_leaves(dev.params(), alg, count).time;
    };
    auto hook_est = [&](std::uint64_t region) -> sim::Ticks {
        return dev.params().hook_time(
            alg.analytic_gpu_hook_ops(region).gpu_ops(dev.params().strided_penalty));
    };
    auto span_estimate = [&](const std::vector<ChunkPlan>& p, std::uint64_t dd) -> sim::Ticks {
        sim::Ticks in_end = 0.0, free = 0.0;
        std::vector<sim::Ticks> ends(p.size(), 0.0);
        for (std::size_t c = 0; c < p.size(); ++c) {
            in_end += link.transfer_time(p[c].words);
            sim::Ticks compute = dd < L ? hook_est(p[c].words) : 0.0;
            compute += leaves_time(p[c].words);
            for (std::uint64_t i = L; i-- > dd;) compute += level_time(p[c].words, i);
            free = std::max(in_end, free) + compute;
            ends[c] = free;
        }
        if (dd > y) {
            sim::Ticks merged = dd < L ? hook_est(W) : 0.0;
            for (std::uint64_t i = dd; i-- > y;) merged += level_time(W, i);
            merged += hook_est(W);  // final un-interleave (y < dd <= L)
            return std::max(free + merged, in_end) + link.transfer_time(W);
        }
        sim::Ticks cursor = in_end;
        for (std::size_t c = 0; c < p.size(); ++c) {
            cursor = std::max(ends[c], cursor) + link.transfer_time(p[c].words);
        }
        return cursor;
    };
    PipelineChoice ch;
    if (plan.size() > 1) {
        const std::vector<ChunkPlan> mono{{0, W}};
        ch.est_chosen = span_estimate(plan, d);
        ch.est_mono = span_estimate(mono, y);
        if (!(ch.est_chosen < ch.est_mono)) {
            plan = mono;
            d = y;
        }
    }
    ch.chunks = std::move(plan);
    ch.d = d;
    return ch;
}

/// Pipelined hybrid (DESIGN.md §9): the advanced schedule with the device
/// slice streamed in K chunks. Stage 1 runs each chunk's leaves and deep
/// levels L-1..d as soon as it has arrived and the device is free; stage 2
/// runs the shallow levels d-1..y over the whole slice and ships it back
/// in bulk. When d = y there is no stage 2 and results stream back chunk
/// by chunk. The guard may settle on K = 1.
template <typename T>
Plan plan_pipelined(const LevelAlgorithm<T>& alg, std::uint64_t n, const sim::HpuParams& hw,
                    const sim::Device& dev, double alpha, std::uint64_t y,
                    std::uint64_t chunks, std::uint64_t split_tasks) {
    namespace d = plan_detail;
    HPU_CHECK(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
    HPU_CHECK(chunks >= 1, "need at least one chunk");
    const std::uint64_t L = level_count(alg, n);
    HPU_CHECK(y >= 1 && y <= L, "transfer level y must be in [1, L]");
    const SplitChoice sp = choose_split(L, n, alg.a(), alpha, y, split_tasks, hw.cpu.p);
    const std::uint64_t off = sp.split_elem;
    const std::uint64_t W = n - off;
    const PipelineChoice pc = choose_pipeline(alg, dev, hw.link, n, L, alg.a(), W, y, chunks);
    const std::uint64_t K = pc.chunks.size();
    Plan p = d::skeleton("pipelined-hybrid", hw, alg, n, Tally::kNone);
    p.device = {off, W};
    p.streamed = true;
    p.chunks = K;
    p.requested_chunks = chunks;
    p.est_chosen = pc.est_chosen;
    p.est_mono = pc.est_mono;
    d::open_phase(p, "gpu-phase", trace::Unit::kGpu, Origin::kPre, Clock::kNested);
    auto chunk = [&](std::uint64_t c) {
        return Slice{off + pc.chunks[c].offset, pc.chunks[c].words};
    };
    std::vector<std::int64_t> in(K), compute(K);
    for (std::uint64_t c = 0; c < K; ++c) {  // stage 0: every chunk enqueued at tick 0
        in[c] = d::transfer(p, chunk(c), true, "xfer-in-chunk");
    }
    for (std::uint64_t c = 0; c < K; ++c) {  // stage 1: chunk-local deep levels
        const std::size_t first = p.steps.size();
        d::gpu_pass(p, chunk(c), L - 1, pc.d, /*lump=*/pc.d < L, false, false,
                    /*counted=*/c == 0);
        compute[c] = d::close_block(p, first, in[c], Tally::kGpu);
    }
    if (pc.d > y) {  // stage 2: merged shallow levels, bulk readback
        const std::size_t first = p.steps.size();
        d::gpu_pass(p, {off, W}, pc.d - 1, y, /*lump=*/pc.d < L, /*merge=*/true,
                    /*post_lump=*/true);
        d::transfer(p, {off, W}, false, "xfer-out", d::close_block(p, first, -1, Tally::kGpu));
    } else {
        for (std::uint64_t c = 0; c < K; ++c) {
            d::transfer(p, chunk(c), false, "xfer-out-chunk", compute[c]);
        }
    }
    d::split_cpu_phases(p, L, y, sp);
    return p;
}

}  // namespace hpu::core
