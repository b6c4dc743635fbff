// The hpu benchmark: one closed-loop workload per invocation.
//
//   hpubench --workload <msort-advanced|qhull-ring|plan-sweep> --seed <n>
//            --seconds <s> --trace <0|1> [--git-sha <sha>] [--trace-out <file>]
//
// Each op copies fresh input, makes one executor call and checks the
// output against an independent reference; the next op starts when the
// previous one has completed. Functional workloads run on one
// util::ThreadPool of nproc - 1 workers, so the caller plus the workers
// never exceed nproc threads. Timings come from outside the library: the
// benchmark times calls into each module's public functions and, in the
// traced run, reads the wall/virtual split that ExecOptions::profile stamps
// onto the program's own spans.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// passes (the base of trace.overhead_ratio) with traced ones, then runs the
// standalone layer probes, and prints the per-layer metrics. Lines before
// the last are human-readable context (host, build, options that took
// effect, ratio bases); the last line is the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algos/mergesort.hpp"
#include "algos/quickhull.hpp"
#include "core/executors.hpp"
#include "core/hybrid.hpp"
#include "inputs.hpp"
#include "metrics/profile.hpp"
#include "model/advanced.hpp"
#include "model/pipeline.hpp"
#include "obs/critpath.hpp"
#include "obs/watchdog.hpp"
#include "platforms/platforms.hpp"
#include "stats.hpp"
#include "trace/span.hpp"
#include "util/merge_path.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hpu;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: the start of setup_s.
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string git_sha = "unknown";
    std::string trace_out;
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload") {
            a.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
        } else if (key == "--trace") {
            if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (key == "--git-sha") {
            a.git_sha = val;
        } else if (key == "--trace-out") {
            a.trace_out = val;
        } else {
            throw std::invalid_argument("unknown flag " + key);
        }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
        throw std::invalid_argument("--seconds must be in (0, 120]");
    }
    return a;
}

// ---------------------------------------------------------------------------
// Execution options: every environment-defaulted field is set here, so a
// stray HPU_VERIFY / HPU_VALIDATE / ... in the environment cannot change
// what gets timed.

core::ExecOptions exec_options(bool functional, trace::TraceSession* ts) {
    core::ExecOptions o;
    o.functional = functional;
    o.validate = false;
    o.verify = false;
    o.observe = false;
    o.merge_path = true;
    o.trace = ts;
    o.profile = ts != nullptr;
    return o;
}

std::string describe(const core::ExecOptions& o) {
    std::ostringstream os;
    os << "functional=" << o.functional << " validate=" << o.validate << " verify=" << o.verify
       << " profile=" << o.profile << " observe=" << o.observe
       << " merge_path=" << o.merge_path << " trace=" << (o.trace != nullptr);
    return os.str();
}

std::string env_overrides() {
    std::string s;
    for (const char* name :
         {"HPU_VALIDATE", "HPU_VERIFY", "HPU_PROFILE", "HPU_OBSERVE", "HPU_MERGE_PATH"}) {
        if (const char* v = std::getenv(name)) {
            s += std::string(" ") + name + "=" + v + "(ignored)";
        }
    }
    return s.empty() ? " none" : s;
}

// ---------------------------------------------------------------------------
// Bench-side spans: one per public call the benchmark times in a traced
// run, keyed by op id, kept in memory and written once at the end.

struct BenchSpan {
    std::uint64_t op = 0;
    const char* name = "";
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
};

class Spans {
public:
    void set_op(std::uint64_t op) { op_ = op; }
    void add(const char* name, std::uint64_t t0, std::uint64_t t1) {
        spans_.push_back({op_, name, t0, t1});
    }
    std::size_t size() const { return spans_.size(); }

    /// Chrome trace-event JSON ("X" events, microseconds from the first span).
    bool write(const std::string& path) const {
        std::ofstream os(path);
        if (!os) return false;
        const std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().t0_ns;
        os << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const BenchSpan& s = spans_[i];
            os << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
               << ", \"ts\": " << static_cast<double>(s.t0_ns - epoch) / 1e3
               << ", \"dur\": " << static_cast<double>(s.t1_ns - s.t0_ns) / 1e3
               << ", \"args\": {\"op\": " << s.op << "}}"
               << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        os << "]}\n";
        return static_cast<bool>(os);
    }

private:
    std::uint64_t op_ = 0;
    std::vector<BenchSpan> spans_;
};

/// Runs f, records a span when `sp` is set, returns the wall seconds.
template <typename F>
double timed(Spans* sp, const char* name, F&& f) {
    const std::uint64_t t0 = util::now_ns();
    f();
    const std::uint64_t t1 = util::now_ns();
    if (sp != nullptr) sp->add(name, t0, t1);
    return static_cast<double>(t1 - t0) * 1e-9;
}

template <typename F>
double median_time(int reps, F&& f) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) t.push_back(timed(nullptr, "", f));
    return hpubench::median(t);
}

// ---------------------------------------------------------------------------
// Per-op wall split of one traced executor run, read from the program's
// profiled spans. Wall-annotated spans never nest (metrics/profile.hpp), so
// the sums do not double count. Buckets: finish = spans under a "finish"
// phase plus the irregular engine's host finalize; gpu = device and link
// spans; cpu = the rest (CPU levels, leaves, host pre-passes).

struct PhaseWalls {
    double gpu_s = 0.0;
    double cpu_s = 0.0;
    double finish_s = 0.0;
    double hook_s = 0.0;  ///< device-side layout hooks (coalesced interleave)
    double gpu_wall_ns = 0.0, gpu_ticks = 0.0;
    double cpu_wall_ns = 0.0, cpu_ticks = 0.0;
};

bool ends_with(const std::string& s, const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

PhaseWalls phase_walls(const trace::TraceSession& ts) {
    PhaseWalls w;
    for (const trace::Span& s : ts.spans()) {
        if (s.wall_ns == 0 || s.kind == trace::SpanKind::kRun ||
            s.kind == trace::SpanKind::kPhase || s.kind == trace::SpanKind::kWave) {
            continue;
        }
        std::string phase;
        for (trace::SpanId p = s.parent; p != trace::kNoSpan; p = ts.span(p).parent) {
            if (ts.span(p).kind == trace::SpanKind::kPhase) {
                phase = ts.span(p).label;
                break;
            }
        }
        const double wall = static_cast<double>(s.wall_ns);
        const bool finish = ends_with(phase, "/finish") ||
                            (s.kind == trace::SpanKind::kHook && ends_with(s.label, "/finalize"));
        if (finish) {
            w.finish_s += wall * 1e-9;
        } else if (s.unit == trace::Unit::kGpu || s.unit == trace::Unit::kLink) {
            w.gpu_s += wall * 1e-9;
        } else {
            w.cpu_s += wall * 1e-9;
        }
        if (s.unit == trace::Unit::kGpu) {
            w.gpu_wall_ns += wall;
            w.gpu_ticks += s.duration();
            if (s.kind == trace::SpanKind::kHook) w.hook_s += wall * 1e-9;
        } else if (s.unit == trace::Unit::kCpu) {
            w.cpu_wall_ns += wall;
            w.cpu_ticks += s.duration();
        }
    }
    return w;
}

trace::SpanId last_run_root(const trace::TraceSession& ts) {
    for (auto it = ts.spans().rbegin(); it != ts.spans().rend(); ++it) {
        if (it->kind == trace::SpanKind::kRun && it->parent == trace::kNoSpan) return it->id;
    }
    return trace::kNoSpan;
}

bool same_virtual(const core::ExecReport& a, const core::ExecReport& b) {
    return a.total == b.total && a.cpu_busy == b.cpu_busy && a.gpu_busy == b.gpu_busy &&
           a.transfer == b.transfer && a.finish == b.finish && a.levels_cpu == b.levels_cpu &&
           a.levels_gpu == b.levels_gpu && a.tasks_spawned == b.tasks_spawned;
}

// ---------------------------------------------------------------------------
// Workloads

struct OpOutcome {
    double exec_s = 0.0;  ///< the executor call(s) only
    bool ok = false;
    /// Traced ops: what obs::observe needs for the op's last run, including
    /// the pool telemetry over the executor call.
    obs::ObserveContext ctx;
};

/// Result of the standalone per-layer probes (traced run only).
struct Probes {
    double merge_segmented_s = 0.0;
    double merge_serial_s = 0.0;
    double merge_bytes = 0.0;
    double optimize_s = 0.0;
    double pipelined_predict_s = 0.0;
    double analytic_run_s = 0.0;
    bool ok = true;  ///< the probed calls produced correct outputs
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Copies fresh input, makes the executor call(s), checks the output.
    /// `ts` set = traced op (spans + profile); `sp` set = bench spans.
    virtual OpOutcome op(trace::TraceSession* ts, Spans* sp) = 0;
    /// One timed call of the single-threaded reference on the same input.
    virtual double reference_s() = 0;
    /// Ops in one pass over the workload's inputs; loops end on a whole pass.
    virtual std::size_t cycle() const { return 1; }
    /// Sequential virtual ticks / executor virtual ticks. `ok` reports
    /// whether the outputs this needed were correct.
    virtual double virtual_speedup(bool& ok) = 0;
    /// The executor report whose counts the traced run publishes.
    virtual const core::ExecReport& counts() const = 0;
    virtual Probes probes() = 0;
    virtual std::string plan() const = 0;
};

std::size_t pool_workers() {
    const unsigned hc = std::max(1u, std::thread::hardware_concurrency());
    return hc - 1;
}

/// Standalone merge-path probe on two sorted halves: the segmented kernel
/// across `pool` vs the serial kernel, median of 5 each.
template <typename T>
void merge_probe(util::ThreadPool* pool, const std::vector<T>& a, const std::vector<T>& b,
                 Probes& p) {
    std::vector<T> out(a.size() + b.size());
    const std::size_t parts = util::merge_parts(out.size(), pool);
    const auto less = [](const T& x, const T& y) { return x < y; };
    p.merge_segmented_s = median_time(5, [&] {
        util::merge_segments(pool, a.data(), a.size(), b.data(), b.size(), out.data(), less,
                             parts);
    });
    if (!std::is_sorted(out.begin(), out.end(), less)) {
        std::cerr << "merge_segments probe produced unsorted output\n";
        p.ok = false;
    }
    p.merge_serial_s = median_time(5, [&] {
        util::merge_serial(a.data(), a.size(), b.data(), b.size(), out.data(), less);
    });
    p.merge_bytes = 2.0 * static_cast<double>(out.size() * sizeof(T));  // read + write
}

/// Sorted halves of `v`: the inputs of a mergesort's final level.
template <typename T>
std::pair<std::vector<T>, std::vector<T>> sorted_halves(const std::vector<T>& v) {
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::vector<T> a(v.begin(), mid), b(mid, v.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    return {std::move(a), std::move(b)};
}

/// Model and analytic-executor probes at one (platform, algorithm, n).
template <typename T>
void model_probes(const sim::HpuParams& hw, const core::LevelAlgorithm<T>& alg, std::uint64_t n,
                  double alpha, std::uint64_t y, Probes& p) {
    model::AdvancedPrediction opt;
    p.optimize_s = median_time(3, [&] {
        opt = model::AdvancedModel(hw, alg.recurrence(), static_cast<double>(n)).optimize();
    });
    const model::PipelinedModel pm(hw, alg.recurrence(), static_cast<double>(n));
    p.pipelined_predict_s = median_time(9, [&] { (void)pm.predict_at(opt.alpha, opt.y, 4); });
    std::unique_ptr<T[]> buf(new T[n]);  // never touched by the analytic path
    core::AdvancedOptions adv;
    adv.exec = exec_options(/*functional=*/false, nullptr);
    p.analytic_run_s = median_time(21, [&] {
        sim::Hpu h(hw);
        (void)core::run_advanced_hybrid(h, alg, std::span<T>(buf.get(), n), alpha, y, adv);
    });
}

/// A workload whose op is one functional run_advanced_hybrid on a copy of
/// a fixed input, on the HPU1 platform and one pool of nproc - 1 workers.
template <typename T>
class FunctionalWorkload : public Workload {
public:
    OpOutcome op(trace::TraceSession* ts, Spans* sp) override {
        OpOutcome o;
        core::ExecReport rep;
        o.exec_s = execute(ts, sp, rep);
        if (ts != nullptr) {
            o.ctx.pool = pool_.telemetry();
            o.ctx.hw = hw_;
            o.ctx.rec = alg().recurrence();
            o.ctx.device_ops_multiplier = alg().device_ops_multiplier(hw_.gpu);
        }
        timed(sp, "check", [&] { o.ok = output_ok() && same_virtual(rep, first_); });
        return o;
    }

    double virtual_speedup(bool& ok) override {
        std::copy(input_.begin(), input_.end(), work_.begin());
        sim::Hpu h(hw_, &pool_);
        const core::ExecReport seq = core::run_sequential(h.cpu(), alg(), std::span<T>(work_),
                                                          exec_options(true, nullptr));
        ok = output_ok();
        return seq.total / first_.total;
    }

    const core::ExecReport& counts() const override { return first_; }

protected:
    explicit FunctionalWorkload(std::vector<T> input)
        : hw_(platforms::by_name("HPU1").params),
          input_(std::move(input)),
          work_(input_.size()),
          pool_(pool_workers()) {}

    virtual const core::LevelAlgorithm<T>& alg() const = 0;
    /// Checks work_ against the workload's independent reference.
    virtual bool output_ok() const = 0;

    /// Sets the plan and runs the warm-up op, whose report every later op
    /// must reproduce.
    void warm_up(double alpha, std::uint64_t y) {
        alpha_ = alpha;
        y_ = y;
        execute(nullptr, nullptr, first_);
    }

    /// Copies the input and times one run_advanced_hybrid on it.
    double execute(trace::TraceSession* ts, Spans* sp, core::ExecReport& rep) {
        timed(sp, "copy", [&] { std::copy(input_.begin(), input_.end(), work_.begin()); });
        sim::Hpu h(hw_, &pool_);
        core::AdvancedOptions adv;
        adv.exec = exec_options(true, ts);
        pool_.reset_telemetry();
        return timed(sp, "run_advanced_hybrid", [&] {
            rep = core::run_advanced_hybrid(h, alg(), std::span<T>(work_), alpha_, y_, adv);
        });
    }

    sim::HpuParams hw_;
    std::vector<T> input_;
    std::vector<T> work_;
    util::ThreadPool pool_;
    double alpha_ = 0.0;
    std::uint64_t y_ = 1;
    core::ExecReport first_;
};

// msort-advanced: the paper's headline scheduler on 2^22 int32 keys, at
// the model-optimal (alpha*, y*).
class MsortAdvanced final : public FunctionalWorkload<std::int32_t> {
public:
    static constexpr int kLg = 22;
    static constexpr std::uint64_t kN = std::uint64_t{1} << kLg;

    explicit MsortAdvanced(std::uint64_t seed)
        : FunctionalWorkload(hpubench::uniform_keys(seed, kN, 2 * kN)), expected_(input_) {
        std::stable_sort(expected_.begin(), expected_.end());
        const model::AdvancedPrediction opt =
            model::AdvancedModel(hw_, alg_.recurrence(), static_cast<double>(kN)).optimize();
        warm_up(opt.alpha,
                std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::llround(opt.y)), 1, kLg));
        if (!output_ok()) std::cerr << "warm-up op produced a wrong sort\n";
    }

    double reference_s() override {
        std::copy(input_.begin(), input_.end(), work_.begin());
        return timed(nullptr, "", [&] { std::stable_sort(work_.begin(), work_.end()); });
    }

    Probes probes() override {
        Probes p;
        const auto [a, b] = sorted_halves(input_);
        merge_probe(&pool_, a, b, p);
        model_probes(hw_, alg_, kN, alpha_, y_, p);
        return p;
    }

    std::string plan() const override {
        std::ostringstream os;
        os << "HPU1 mergesort-coalesced<int32> n=2^" << kLg << " alpha*=" << alpha_
           << " y*=" << y_;
        return os.str();
    }

private:
    const core::LevelAlgorithm<std::int32_t>& alg() const override { return alg_; }
    /// Byte-identical to std::stable_sort of the same input.
    bool output_ok() const override { return work_ == expected_; }

    algos::MergesortCoalesced<std::int32_t> alg_;
    std::vector<std::int32_t> expected_;
};

// qhull-ring: quickhull through the irregular engine on a thin ring.
class QhullRing final : public FunctionalWorkload<algos::Pt> {
public:
    static constexpr int kLg = 20;
    static constexpr std::uint64_t kN = std::uint64_t{1} << kLg;
    static constexpr double kRadius = 1e6;
    // Width 25 gives the shape the workload is chosen for: ~7.3k hull
    // points, ~14.5k tasks, 15-17 levels with observed-width placement.
    static constexpr double kWidth = 25.0;

    explicit QhullRing(std::uint64_t seed)
        : FunctionalWorkload(hpubench::ring_points(seed, kN, kRadius, kWidth)), check_(input_) {
        // The irregular engine re-plans every level from observed widths
        // and ignores the caller's (alpha, y); these only satisfy the call.
        warm_up(0.3, 2);
        extra_ = check_.accepts(work_.data(), alg_.hull_count());
        if (extra_ < 0) std::cerr << "warm-up op produced a wrong hull\n";
        first_hull_.assign(work_.begin(),
                           work_.begin() + static_cast<std::ptrdiff_t>(alg_.hull_count()));
    }

    double reference_s() override {
        std::vector<algos::Pt> hull;
        const double t = timed(nullptr, "", [&] { hull = hpubench::monotone_chain(input_); });
        if (hull.size() != check_.vertices()) {
            throw std::runtime_error("reference hull changed between calls");
        }
        return t;
    }

    Probes probes() override {
        Probes p;
        const auto [a, b] = sorted_halves(input_);
        merge_probe(&pool_, a, b, p);
        model_probes(hw_, alg_, kN, alpha_, y_, p);
        return p;
    }

    std::string plan() const override {
        std::ostringstream os;
        os << "HPU1 quickhull ring n=2^" << kLg << " radius=" << kRadius << " width=" << kWidth
           << " hull=" << check_.vertices() << " strict vertices + " << extra_
           << " edge points marked by quickhull, tasks=" << first_.tasks_spawned
           << " levels_cpu=" << first_.levels_cpu << " levels_gpu=" << first_.levels_gpu;
        return os.str();
    }

private:
    const core::LevelAlgorithm<algos::Pt>& alg() const override { return alg_; }
    /// An acceptable hull (see HullCheck), identical to the warm-up op's.
    bool output_ok() const override {
        return extra_ >= 0 && alg_.hull_count() == first_hull_.size() &&
               std::equal(first_hull_.begin(), first_hull_.end(), work_.begin()) &&
               check_.accepts(work_.data(), alg_.hull_count()) == extra_;
    }

    algos::Quickhull alg_;
    hpubench::HullCheck check_;
    std::vector<algos::Pt> first_hull_;
    long extra_ = 0;
};

// plan-sweep: the figure / autotune user. Model planning plus analytic
// executor calls over the Fig. 7 grid, one (platform, n) per op. No
// functional kernel and no pool.
class PlanSweep final : public Workload {
public:
    static constexpr int kLgMin = 16;
    static constexpr int kLgMax = 26;
    static constexpr std::uint64_t kPipelineK[] = {2, 4, 8};

    struct Config {
        std::string platform;
        sim::HpuParams hw;
        int lg = 0;
    };

    /// Everything a plan-sweep op computes on the virtual clock; ops of one
    /// config must reproduce it exactly.
    struct Virtual {
        double opt_alpha = 0.0, opt_y = 0.0, opt_total = 0.0;
        std::vector<double> pipelined;
        double seq = 0.0;
        std::vector<double> grid;
        core::ExecReport best;
        bool operator==(const Virtual& o) const {
            return opt_alpha == o.opt_alpha && opt_y == o.opt_y && opt_total == o.opt_total &&
                   pipelined == o.pipelined && seq == o.seq && grid == o.grid &&
                   same_virtual(best, o.best);
        }
    };

    explicit PlanSweep(std::uint64_t seed) : seed_(seed) {
        for (const char* name : {"HPU1", "HPU2"}) {
            for (int lg = kLgMin; lg <= kLgMax; lg += 2) {
                configs_.push_back({name, platforms::by_name(name).params, lg});
            }
        }
        buf_.reset(new std::int32_t[std::uint64_t{1} << kLgMax]);  // analytic: never touched
        // Warm-up: one pass over every config; its results are the "first
        // op" every later op of the same config must reproduce.
        for (const Config& c : configs_) expected_.push_back(compute(c, nullptr, nullptr));
    }

    OpOutcome op(trace::TraceSession* ts, Spans* sp) override {
        const std::size_t i = next_++ % configs_.size();
        ref_config_ = i;
        OpOutcome o;
        Virtual v;
        o.exec_s = timed(sp, "plan_op", [&] { v = compute(configs_[i], ts, sp); });
        o.ok = v == expected_[i];
        o.ctx.hw = configs_[i].hw;
        o.ctx.rec = alg_.recurrence();
        o.ctx.device_ops_multiplier = alg_.device_ops_multiplier(configs_[i].hw.gpu);
        return o;
    }

    /// Reference: the same grid priced by the closed-form model alone.
    double reference_s() override {
        const Config& c = configs_[ref_config_];
        const double n = static_cast<double>(std::uint64_t{1} << c.lg);
        double best = 0.0;
        const double t = timed(nullptr, "", [&] {
            const model::AdvancedModel m(c.hw, alg_.recurrence(), n);
            best = 1e300;
            for (int a = 1; a <= 9; ++a) {
                for (int y = 4; y <= c.lg - 2; ++y) {
                    best = std::min(best, m.predict_at(0.04 * a, y).total_time);
                }
            }
        });
        if (!(best > 0.0 && best < 1e300)) throw std::runtime_error("closed-form grid is empty");
        return t;
    }
    std::size_t cycle() const override { return configs_.size(); }

    double virtual_speedup(bool& ok) override {
        ok = true;
        const Virtual& v = expected_[headline()];
        return v.seq / *std::min_element(v.grid.begin(), v.grid.end());
    }

    const core::ExecReport& counts() const override { return expected_[headline()].best; }

    Probes probes() override {
        Probes p;
        // No data of its own: the merge probe runs on seeded keys of the
        // msort-advanced shape with a pool made for the probe.
        util::ThreadPool pool(pool_workers());
        const auto [a, b] =
            sorted_halves(hpubench::uniform_keys(seed_, MsortAdvanced::kN, 2 * MsortAdvanced::kN));
        merge_probe(&pool, a, b, p);
        const Config& c = configs_[headline()];
        const Virtual& v = expected_[headline()];
        model_probes(c.hw, alg_, std::uint64_t{1} << c.lg, v.opt_alpha,
                     std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::llround(v.opt_y)),
                                               1, static_cast<std::uint64_t>(c.lg)),
                     p);
        return p;
    }

    std::string plan() const override {
        std::ostringstream os;
        os << configs_.size() << " configs: {HPU1, HPU2} x n=2^" << kLgMin << "..2^" << kLgMax
           << " step 4x; grid alpha=0.04..0.36 x y=4..lg-2; K={2,4,8}";
        return os.str();
    }

private:
    std::size_t headline() const {
        for (std::size_t i = 0; i < configs_.size(); ++i) {
            if (configs_[i].platform == "HPU1" && configs_[i].lg == 24) return i;
        }
        throw std::logic_error("plan-sweep has no HPU1 2^24 config");
    }

    Virtual compute(const Config& c, trace::TraceSession* ts, Spans* sp) {
        const std::uint64_t n = std::uint64_t{1} << c.lg;
        const auto rec = alg_.recurrence();
        const std::span<std::int32_t> data(buf_.get(), n);
        Virtual v;
        model::AdvancedPrediction opt;
        timed(sp, "optimize", [&] {
            opt = model::AdvancedModel(c.hw, rec, static_cast<double>(n)).optimize();
        });
        v.opt_alpha = opt.alpha;
        v.opt_y = opt.y;
        v.opt_total = opt.total_time;
        timed(sp, "pipelined_predict", [&] {
            const model::PipelinedModel pm(c.hw, rec, static_cast<double>(n));
            for (std::uint64_t k : kPipelineK) {
                v.pipelined.push_back(pm.predict_at(opt.alpha, opt.y, k).total_time);
            }
        });
        const core::ExecOptions opts = exec_options(/*functional=*/false, ts);
        timed(sp, "run_sequential", [&] {
            sim::Hpu h(c.hw);
            v.seq = core::run_sequential(h.cpu(), alg_, data, opts).total;
        });
        core::AdvancedOptions adv;
        adv.exec = opts;
        timed(sp, "run_advanced_hybrid_grid", [&] {
            for (int a = 1; a <= 9; ++a) {
                for (std::uint64_t y = 4; y + 2 <= static_cast<std::uint64_t>(c.lg); ++y) {
                    sim::Hpu h(c.hw);
                    core::ExecReport rep = core::run_advanced_hybrid(h, alg_, data, 0.04 * a, y, adv);
                    if (v.grid.empty() || rep.total < v.best.total) v.best = rep;
                    v.grid.push_back(rep.total);
                }
            }
        });
        return v;
    }

    std::uint64_t seed_;
    algos::MergesortCoalesced<std::int32_t> alg_;
    std::vector<Config> configs_;
    std::vector<Virtual> expected_;
    std::unique_ptr<std::int32_t[]> buf_;
    std::size_t next_ = 0;
    std::size_t ref_config_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "msort-advanced") return std::make_unique<MsortAdvanced>(seed);
    if (name == "qhull-ring") return std::make_unique<QhullRing>(seed);
    if (name == "plan-sweep") return std::make_unique<PlanSweep>(seed);
    throw std::invalid_argument("unknown workload '" + name +
                                "' (msort-advanced, qhull-ring, plan-sweep)");
}

// ---------------------------------------------------------------------------
// The closed loop

/// Per-layer sums over the traced ops.
struct LayerAcc {
    std::uint64_t ops = 0;
    double busy_ns = 0.0, idle_ns = 0.0, capacity_ns = 0.0;
    std::uint64_t batches = 0;
    std::vector<double> submit_p99_ns;
    std::vector<double> gpu_s, cpu_s, finish_s, hook_s, coverage;
    double gpu_wall_ns = 0.0, gpu_ticks = 0.0, cpu_wall_ns = 0.0, cpu_ticks = 0.0;
    std::vector<double> derive_s, observe_s, critpath_s;
};

struct LoopResult {
    std::vector<double> exec_s;  ///< executor-call wall per completed op
    std::vector<std::size_t> exec_pass;  ///< which pass over the inputs the op was in
    double busy_s = 0.0;         ///< summed op wall (copy + call + check)
    std::vector<double> ref_s;   ///< one reference timing after every op
    std::vector<std::size_t> ref_pass;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    double op_p50() const { return hpubench::pass_median(exec_s, exec_pass); }
    double ref_p50() const { return hpubench::pass_median(ref_s, ref_pass); }
};

constexpr std::size_t kMinOps = 24;

void account_traced(const trace::TraceSession& ts, const OpOutcome& o, Spans* sp, LayerAcc& acc) {
    ++acc.ops;
    const util::PoolTelemetry* tel = o.ctx.pool ? &*o.ctx.pool : nullptr;
    if (tel != nullptr && tel->workers > 0) {
        acc.busy_ns += static_cast<double>(tel->worker_busy_ns());
        acc.idle_ns += static_cast<double>(tel->worker_idle_ns());
        acc.capacity_ns += static_cast<double>(tel->workers) * static_cast<double>(tel->window_ns);
        acc.batches += tel->batches;
    }
    metrics::ProfileReport prof;
    acc.derive_s.push_back(
        timed(sp, "derive_profile", [&] { prof = metrics::derive_profile(ts, tel); }));
    acc.submit_p99_ns.push_back(prof.pool.submit_p99_ns);
    const trace::SpanId root = last_run_root(ts);
    acc.observe_s.push_back(timed(sp, "observe", [&] { (void)obs::observe(ts, root, o.ctx); }));
    acc.critpath_s.push_back(
        timed(sp, "critpath", [&] { (void)obs::extract_critical_path(ts, root); }));
    const PhaseWalls w = phase_walls(ts);
    acc.gpu_s.push_back(w.gpu_s);
    acc.cpu_s.push_back(w.cpu_s);
    acc.finish_s.push_back(w.finish_s);
    acc.hook_s.push_back(w.hook_s);
    acc.coverage.push_back(o.exec_s > 0.0 ? (w.gpu_s + w.cpu_s + w.finish_s) / o.exec_s : 0.0);
    acc.gpu_wall_ns += w.gpu_wall_ns;
    acc.gpu_ticks += w.gpu_ticks;
    acc.cpu_wall_ns += w.cpu_wall_ns;
    acc.cpu_ticks += w.cpu_ticks;
}

/// The untraced and the traced ops of one loop.
struct Loops {
    LoopResult plain;
    LoopResult traced;
};

/// Runs the closed loop for `seconds`, ending on a whole pass over the
/// inputs. With `acc` set (the traced run) passes alternate between
/// untraced and traced, so slow and fast stretches of the host affect both
/// sides of trace.overhead_ratio alike; bench spans are kept for traced ops.
Loops run_loop(Workload& w, double seconds, Spans* sp, LayerAcc* acc, std::uint64_t& op_id) {
    Loops out;
    const std::size_t sides = acc != nullptr ? 2 : 1;
    const Clock::time_point t0 = Clock::now();
    // Hard stop well inside the 180 s a run may take, whatever the op cost.
    const double cap = seconds * 2.0 + 20.0;
    for (std::size_t i = 0;; ++i) {
        const double elapsed = seconds_since(t0);
        if (elapsed >= cap) break;
        if (elapsed >= seconds && i >= sides * kMinOps && i % (sides * w.cycle()) == 0) break;
        const std::size_t pass = i / w.cycle();
        const bool traced = acc != nullptr && pass % 2 == 1;
        LoopResult& r = traced ? out.traced : out.plain;
        Spans* osp = traced ? sp : nullptr;
        ++op_id;
        if (osp != nullptr) osp->set_op(op_id);
        trace::TraceSession ts;
        OpOutcome o;
        bool ok = false, completed = false;
        const std::uint64_t it0 = util::now_ns();
        try {
            o = w.op(traced ? &ts : nullptr, osp);
            ok = o.ok;
            completed = true;
        } catch (const std::exception& e) {
            std::cerr << "op " << op_id << " threw: " << e.what() << "\n";
        }
        const std::uint64_t it1 = util::now_ns();
        if (osp != nullptr) osp->add("op", it0, it1);
        ++r.attempted;
        if (!ok) {
            ++r.failed;
            if (completed) std::cerr << "op " << op_id << " output mismatch\n";
        }
        if (completed) {
            r.exec_s.push_back(o.exec_s);
            r.exec_pass.push_back(pass);
            r.busy_s += static_cast<double>(it1 - it0) * 1e-9;
            if (traced) account_traced(ts, o, osp, *acc);
        }
        // The reference runs after every op, so slow and fast stretches of
        // the host affect both sides of tax_vs_ref alike.
        r.ref_s.push_back(w.reference_s());
        r.ref_pass.push_back(pass);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << fmt(ms[i].value)
           << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                        &regs[4 * i + 3]);
        }
        std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
        s = s.c_str();
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_host(const Args& a) {
    std::cout << "# host nproc=" << std::thread::hardware_concurrency()
              << " pool_workers=" << pool_workers() << " cpu=\"" << cpu_model() << "\""
              << " l2_bytes=" << sysconf(_SC_LEVEL2_CACHE_SIZE)
              << " l3_bytes=" << sysconf(_SC_LEVEL3_CACHE_SIZE) << "\n"
              << "# build type=" << HPUBENCH_BUILD_TYPE << " git_sha=" << a.git_sha << "\n"
              << "# run workload=" << a.workload << " seed=" << a.seed
              << " seconds=" << a.seconds << " trace=" << a.trace << "\n"
              << "# exec_options " << describe(exec_options(true, nullptr))
              << " (traced ops: profile=1 trace=1; plan-sweep: functional=0)"
              << " env:" << env_overrides() << "\n";
}

int run(const Args& args) {
    print_host(args);

    // Set-up, five times over (setup_s is their median); the last instance
    // is the one measured.
    constexpr int kSetups = 5;
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    for (int k = 0; k < kSetups; ++k) {
        const Clock::time_point t0 = k == 0 ? g_process_start : Clock::now();
        w.reset();
        w = make_workload(args.workload, args.seed);
        setup_s.push_back(seconds_since(t0));
    }
    std::cout << "# plan " << w->plan() << "\n";

    std::uint64_t op_id = 0;
    if (!args.trace) {
        const LoopResult r = run_loop(*w, args.seconds, nullptr, nullptr, op_id).plain;
        if (r.exec_s.empty() || r.ref_s.empty()) throw std::runtime_error("no op completed");
        const hpubench::Tail tail = hpubench::tail(r.exec_s);
        const double p50 = r.op_p50();
        const double ref = r.ref_p50();
        const hpubench::Ratio tax = hpubench::ratio(p50, ref);
        bool baseline_ok = false;
        const double vs = w->virtual_speedup(baseline_ok);
        if (!baseline_ok) std::cerr << "sequential baseline run produced a wrong output\n";
        const double failed_share =
            static_cast<double>(r.failed) / static_cast<double>(r.attempted);
        const hpubench::Quartiles q = hpubench::quartiles(r.exec_s);
        std::cout << "# op_tail_s is p" << fmt(tail.percentile) << " of " << tail.samples
                  << " samples (" << tail.beyond << " beyond"
                  << (tail.qualified ? "" : "; fewer than ten, so no percentile qualifies")
                  << ")\n"
                  << "# op_s quartiles " << fmt(q.q1) << " / " << fmt(q.q2) << " / " << fmt(q.q3)
                  << " (pooled over all ops; IQR/median " << fmt(q.spread()) << ")\n"
                  << "# tax_vs_ref = op_p50_s " << fmt(p50) << " / ref_p50_s " << fmt(ref)
                  << " (" << r.ref_s.size() << " reference samples)\n"
                  << "# ops_per_s = " << r.exec_s.size() << " ops / " << fmt(r.busy_s)
                  << " s of op wall\n"
                  << "# setup_s samples:";
        for (double s : setup_s) std::cout << " " << fmt(s);
        std::cout << "\n# failed_share " << fmt(failed_share) << " (" << r.failed << " of "
                  << r.attempted << ")\n";
        print_result(r.failed == 0 && baseline_ok, r.attempted, r.failed,
                     {{"ops_per_s", static_cast<double>(r.exec_s.size()) / r.busy_s, "1/s"},
                      {"op_p50_s", p50, "s"},
                      {"op_tail_s", tail.value, "s"},
                      {"tax_vs_ref", tax.value, "ratio"},
                      {"virtual_speedup", vs, "x"},
                      {"setup_s", hpubench::median(setup_s), "s"},
                      {"peak_rss_mb", peak_rss_mb(), "MB"}});
        return 0;
    }

    // Traced run: untraced and traced passes alternate (the untraced ones
    // are the base of trace.overhead_ratio), then the standalone probes.
    Spans spans;
    LayerAcc acc;
    const Loops loops = run_loop(*w, args.seconds, &spans, &acc, op_id);
    const LoopResult& base = loops.plain;
    const LoopResult& traced = loops.traced;
    if (base.exec_s.empty() || traced.exec_s.empty()) throw std::runtime_error("no op completed");
    const Probes p = w->probes();
    const core::ExecReport& rep = w->counts();

    std::vector<double> refs = base.ref_s;
    refs.insert(refs.end(), traced.ref_s.begin(), traced.ref_s.end());
    std::vector<std::size_t> ref_passes = base.ref_pass;
    ref_passes.insert(ref_passes.end(), traced.ref_pass.begin(), traced.ref_pass.end());
    const hpubench::Ratio overhead =
        hpubench::ratio(traced.op_p50(), base.op_p50());
    const auto share = [](double part, double whole) { return whole > 0.0 ? part / whole : 0.0; };
    const auto med = [](const std::vector<double>& v) {
        return v.empty() ? 0.0 : hpubench::median(v);
    };
    std::cout << "# trace.overhead_ratio = traced op_p50_s " << fmt(overhead.num) << " ("
              << traced.exec_s.size() << " ops) / untraced op_p50_s " << fmt(overhead.den)
              << " (" << base.exec_s.size() << " ops)\n"
              << "# core phase walls (median per op): gpu " << fmt(med(acc.gpu_s)) << " cpu "
              << fmt(med(acc.cpu_s)) << " finish " << fmt(med(acc.finish_s))
              << " = share " << fmt(med(acc.coverage)) << " of the executor call\n"
              << "# util.merge_path: segmented " << fmt(p.merge_segmented_s) << " s, serial "
              << fmt(p.merge_serial_s) << " s, " << fmt(p.merge_bytes) << " bytes moved\n"
              << "# " << spans.size() << " bench spans";
    if (!args.trace_out.empty()) {
        std::cout << (spans.write(args.trace_out) ? " -> " : " NOT written to ")
                  << args.trace_out;
    }
    std::cout << "\n";

    const std::uint64_t attempted = base.attempted + traced.attempted;
    const std::uint64_t failed = base.failed + traced.failed;
    const double ops = static_cast<double>(std::max<std::uint64_t>(acc.ops, 1));
    print_result(
        failed == 0 && p.ok, attempted, failed,
        {{"util.pool.busy_share", share(acc.busy_ns, acc.capacity_ns), "share"},
         {"util.pool.idle_share", share(acc.idle_ns, acc.capacity_ns), "share"},
         {"util.pool.batches_per_op", static_cast<double>(acc.batches) / ops, "count"},
         {"util.pool.submit_p99_ns", med(acc.submit_p99_ns), "ns"},
         {"util.merge_path.segmented_s", p.merge_segmented_s, "s"},
         {"util.merge_path.serial_s", p.merge_serial_s, "s"},
         {"util.merge_path.gb_per_s_computed", p.merge_bytes / p.merge_segmented_s / 1e9, "GB/s"},
         {"sim.gpu_ns_per_tick", share(acc.gpu_wall_ns, acc.gpu_ticks), "ns/tick"},
         {"sim.cpu_ns_per_tick", share(acc.cpu_wall_ns, acc.cpu_ticks), "ns/tick"},
         {"sim.virtual_gpu_ticks", rep.gpu_busy, "tick"},
         {"sim.virtual_transfer_ticks", rep.transfer, "tick"},
         {"core.gpu_phase_s", med(acc.gpu_s), "s"},
         {"core.cpu_phase_s", med(acc.cpu_s), "s"},
         {"core.finish_s", med(acc.finish_s), "s"},
         {"core.phase_coverage", med(acc.coverage), "share"},
         {"core.levels_gpu", static_cast<double>(rep.levels_gpu), "count"},
         {"core.levels_cpu", static_cast<double>(rep.levels_cpu), "count"},
         {"core.tasks_spawned", static_cast<double>(rep.tasks_spawned), "count"},
         {"core.analytic_run_s", p.analytic_run_s, "s"},
         {"algos.hook_s", med(acc.hook_s), "s"},
         {"algos.ref_p50_s", hpubench::pass_median(refs, ref_passes), "s"},
         {"model.optimize_s", p.optimize_s, "s"},
         {"model.pipelined_predict_s", p.pipelined_predict_s, "s"},
         {"trace.overhead_ratio", overhead.value, "ratio"},
         {"metrics.derive_profile_s", med(acc.derive_s), "s"},
         {"obs.observe_s", med(acc.observe_s), "s"},
         {"obs.critpath_s", med(acc.critpath_s), "s"}});
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "hpubench: " << e.what() << "\n";
        return 2;
    }
}
