// Golden digests of the regular executors. Every regular algorithm × the
// six executors × {functional, analytic} × four machine/size configurations
// (two sizes) × {inline, pooled} is hashed — the exact bit patterns of
// every ExecReport field, the verify certificate JSON, the analysis
// findings, the output bytes, and every trace span (kind, unit, label,
// parent, start, end, all attrs; wall stamps excluded) — and compared
// against constants captured from the hand-written executors that
// core::Plan replaced. Any change to a virtual tick, a span, a finding or
// a certificate shows up here.
//
// Every ExecOptions field is set explicitly, so the HPU_* environment
// defaults cannot move a digest. On a mismatch the test prints the
// computed table row, ready to paste.
//
// The irregular sweep does the same for the dynamic-tree engine: quickhull,
// closest-pair and Karatsuba at non-power-of-two sizes × the six executors
// × {functional with validate and verify, analytic} × two machines ×
// {inline, pooled}, and asserts that its configurations reach every branch
// of the per-level policy (residency switches both ways, split levels,
// pipelined levels of K >= 3 chunks, gpu with and without boundary
// transfers).
//
// The last test re-emits the committed example traces
// (bench/traces/{basic,advanced}_hpu1_lg20.json) in process and requires
// obs::diff_traces(...).identical(0.0) against the committed files.
#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <cmath>
#include <functional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "algos/binary_reduce.hpp"
#include "algos/closest_pair.hpp"
#include "algos/fft.hpp"
#include "algos/mergesort.hpp"
#include "algos/karatsuba.hpp"
#include "algos/mergesort_blocked.hpp"
#include "algos/quickhull.hpp"
#include "core/hybrid.hpp"
#include "core/pipeline.hpp"
#include "model/advanced.hpp"
#include "obs/diff.hpp"
#include "obs/trace_io.hpp"
#include "platforms/platforms.hpp"
#include "trace/span.hpp"
#include "util/thread_pool.hpp"

namespace hpu::core {
namespace {

/// FNV-1a over raw bytes; doubles enter as their bit patterns.
class Digest {
public:
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void str(const std::string& s) {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void absorb(Digest& d, const ExecReport& rep) {
    d.f64(rep.total);
    d.f64(rep.cpu_busy);
    d.f64(rep.gpu_busy);
    d.f64(rep.transfer);
    d.f64(rep.finish);
    d.u64(rep.levels_cpu);
    d.u64(rep.levels_gpu);
    d.f64(rep.alpha_effective);
    d.u64(rep.chunks);
    d.u64(rep.tasks_spawned);
    d.u64(rep.analysis.findings.size());
    for (const auto& f : rep.analysis.findings) d.str(f.message());
    d.u64(rep.analysis.launches_checked);
    d.u64(rep.analysis.launches_skipped);
    d.u64(rep.analysis.findings_suppressed);
    d.str(rep.verify.to_json());
    d.u64(rep.verify.checks_passed);
}

void absorb(Digest& d, const trace::TraceSession& ts) {
    d.u64(ts.spans().size());
    for (const trace::Span& s : ts.spans()) {
        d.u64(s.id);
        d.u64(s.parent);
        d.u64(static_cast<std::uint64_t>(s.kind));
        d.u64(static_cast<std::uint64_t>(s.unit));
        d.str(s.label);
        d.f64(s.start);
        d.f64(s.end);
        d.u64(s.attrs.level);
        d.u64(s.attrs.tasks);
        d.u64(s.attrs.items);
        d.u64(s.attrs.waves);
        d.f64(s.attrs.ops);
        d.f64(s.attrs.max_ops);
        d.f64(s.attrs.work);
        d.u64(s.attrs.bytes);
        d.u64(s.attrs.coalesced_transactions);
        d.u64(s.attrs.strided_transactions);
        d.u64(s.attrs.extent_words);
        d.f64(s.attrs.imbalance);
    }
}

/// Deliberately racy reduction (every task writes word 0) so the digests
/// also pin analysis findings and an unproven certificate.
struct RacyAlg final : LevelAlgorithm<std::int32_t> {
    std::string name() const override { return "racy"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }
    model::Recurrence recurrence() const override { return model::sum_recurrence(2.0); }
    void run_task(std::span<std::int32_t> data, std::uint64_t /*count*/, std::uint64_t j,
                  sim::OpCounter& ops) const override {
        data[0] = static_cast<std::int32_t>(j);
        ops.charge_compute(1);
        ops.charge_mem(1, sim::Pattern::kStrided);
        ops.log_write(0, 1);
    }
};

constexpr const char* kExecutors[] = {"sequential", "multicore", "gpu",
                                      "basic",      "advanced",  "pipelined"};

/// One machine/size point of the sweep, with the split schedulers' knobs.
struct Config {
    sim::HpuParams hw;
    std::uint32_t lg = 10;  ///< n = base · 2^lg
    double alpha = 0.3;
    std::uint64_t y = 2;
    std::uint64_t chunks = 4;
};

std::vector<Config> configs() {
    // Two HPU1-derived machines reach the pipelined paths HPU1/HPU2 do not
    // take at these sizes: g = 64 streams results back chunk by chunk, and
    // a 4-lane device at gamma = 1 settles on K > 1 with a merged stage.
    // Both keep gamma·g >= p, so the basic hybrid never falls back to the
    // multicore plan here.
    sim::HpuParams narrow = platforms::hpu1();
    narrow.gpu.g = 64;
    narrow.gpu.gamma = 1.0 / 16.0;
    sim::HpuParams tiny = platforms::hpu1();
    tiny.gpu.g = 4;
    tiny.gpu.gamma = 1.0;
    return {
        Config{platforms::hpu2(), 10, 0.3, 2, 4},
        Config{platforms::hpu1(), 12, 0.2, 8, 4},
        Config{narrow, 12, 0.3, 10, 4},
        Config{tiny, 10, 0.3, 3, 4},
    };
}

ExecOptions explicit_options(bool functional, trace::TraceSession* ts) {
    ExecOptions o;
    o.functional = functional;
    o.order = util::ListOrder::kArrival;
    o.validate = functional;
    o.trace = ts;
    o.profile = false;
    o.verify = true;
    o.race = analysis::RaceOptions{};
    o.observe = false;
    o.watchdog = obs::WatchdogThresholds{};
    o.merge_path = true;
    return o;
}

template <typename T>
void run_executor(sim::Hpu& h, int executor, const LevelAlgorithm<T>& alg, std::span<T> data,
                  const Config& c, const ExecOptions& opts, Digest& d) {
    switch (executor) {
        case 0: absorb(d, run_sequential(h.cpu(), alg, data, opts)); break;
        case 1: absorb(d, run_multicore(h.cpu(), alg, data, opts)); break;
        case 2: absorb(d, run_gpu(h, alg, data, opts)); break;
        case 3: absorb(d, run_basic_hybrid(h, alg, data, opts)); break;
        case 4: {
            AdvancedOptions adv;
            adv.split_tasks = 0;
            adv.exec = opts;
            absorb(d, run_advanced_hybrid(h, alg, data, c.alpha, c.y, adv));
            break;
        }
        default: {
            PipelinedOptions pip;
            pip.chunks = c.chunks;
            pip.split_tasks = 0;
            pip.exec = opts;
            absorb(d, run_pipelined_hybrid(h, alg, data, c.alpha, c.y, pip));
            break;
        }
    }
}

/// Digest of one (algorithm, executor, mode) cell over every config, with
/// the functional bodies run on `pool`.
template <typename T>
std::uint64_t cell_digest(util::ThreadPool* pool, int executor, const LevelAlgorithm<T>& alg,
                          std::uint64_t base, bool functional,
                          const std::function<std::vector<T>(std::uint64_t)>& make_input) {
    Digest d;
    for (const Config& c : configs()) {
        const std::uint64_t n = base << c.lg;
        std::vector<T> data = make_input(n);
        sim::Hpu h(c.hw, pool);
        trace::TraceSession ts;
        const ExecOptions opts = explicit_options(functional, &ts);
        run_executor(h, executor, alg, std::span<T>(data), c, opts, d);
        if (executor == 2) {
            // The gpu executor's transfer toggle (Fig. 9's second variant).
            std::vector<T> again = make_input(n);
            absorb(d, run_gpu(h, alg, std::span<T>(again), opts, /*include_transfers=*/false));
            d.bytes(again.data(), again.size() * sizeof(T));
        }
        absorb(d, ts);
        d.bytes(data.data(), data.size() * sizeof(T));
    }
    return d.value();
}

struct Golden {
    const char* alg;
    const char* executor;
    bool functional;
    std::uint64_t digest;
};

// Captured from the hand-written executors (sequential, multicore, gpu,
// basic, advanced, pipelined) before they became planners over core::Plan.
constexpr Golden kGolden[] = {
    {"mergesort", "sequential", true, 0x9b2282be58545479ull},
    {"mergesort", "multicore", true, 0x4168b9d0ee3eb459ull},
    {"mergesort", "gpu", true, 0x869573beec5f1d94ull},
    {"mergesort", "basic", true, 0x7c65c481a55cc004ull},
    {"mergesort", "advanced", true, 0xc75fa8d4dea99eb2ull},
    {"mergesort", "pipelined", true, 0x79bc29127d4b3b86ull},
    {"mergesort", "sequential", false, 0x2d43bba0acbe1c35ull},
    {"mergesort", "multicore", false, 0x25f014018952ea01ull},
    {"mergesort", "gpu", false, 0xd4e384a741302e20ull},
    {"mergesort", "basic", false, 0x81f670755dc43fc6ull},
    {"mergesort", "advanced", false, 0x12df3dac357fb1aeull},
    {"mergesort", "pipelined", false, 0x7d360c3e18c94839ull},
    {"mergesort-coalesced", "sequential", true, 0xcd35401636bee621ull},
    {"mergesort-coalesced", "multicore", true, 0x38c9fe31699f29f9ull},
    {"mergesort-coalesced", "gpu", true, 0x020d48333b274774ull},
    {"mergesort-coalesced", "basic", true, 0xc36f986b937b2412ull},
    {"mergesort-coalesced", "advanced", true, 0xfb36e02a0739a5e2ull},
    {"mergesort-coalesced", "pipelined", true, 0x5838213beadea37full},
    {"mergesort-coalesced", "sequential", false, 0xbf28af95de6f8d25ull},
    {"mergesort-coalesced", "multicore", false, 0x0f070959afa8d101ull},
    {"mergesort-coalesced", "gpu", false, 0x0349a9fc1380aa70ull},
    {"mergesort-coalesced", "basic", false, 0xa7e97ceef4e08625ull},
    {"mergesort-coalesced", "advanced", false, 0x97131d5acdbdc1d6ull},
    {"mergesort-coalesced", "pipelined", false, 0xdab8205f33f3474full},
    {"mergesort-blocked", "sequential", true, 0xa9a689c65efb8ba3ull},
    {"mergesort-blocked", "multicore", true, 0xee64cb11b81d74a3ull},
    {"mergesort-blocked", "gpu", true, 0xb8b091d82231cc19ull},
    {"mergesort-blocked", "basic", true, 0x4592af6755ad3cc3ull},
    {"mergesort-blocked", "advanced", true, 0xddec9958776ca2e2ull},
    {"mergesort-blocked", "pipelined", true, 0xc1ed64464bf76e07ull},
    {"mergesort-blocked", "sequential", false, 0x56d342abe7403775ull},
    {"mergesort-blocked", "multicore", false, 0xc284f08e994f5839ull},
    {"mergesort-blocked", "gpu", false, 0xa47a6f7f46b460cbull},
    {"mergesort-blocked", "basic", false, 0xe114d3aaf8d52737ull},
    {"mergesort-blocked", "advanced", false, 0xf36f4629199314a0ull},
    {"mergesort-blocked", "pipelined", false, 0xf5438610a501622cull},
    {"dc-sum", "sequential", true, 0xbd351a6fc57eb405ull},
    {"dc-sum", "multicore", true, 0xd668aedec53631bdull},
    {"dc-sum", "gpu", true, 0x0cef2ce93a75cbadull},
    {"dc-sum", "basic", true, 0xf22415aa4c911800ull},
    {"dc-sum", "advanced", true, 0xda1b119ab746dfeaull},
    {"dc-sum", "pipelined", true, 0x7cdc63ad9b76faf7ull},
    {"dc-sum", "sequential", false, 0xf33347b187e60533ull},
    {"dc-sum", "multicore", false, 0x974297aa87189943ull},
    {"dc-sum", "gpu", false, 0xd12e3081d1712dafull},
    {"dc-sum", "basic", false, 0xd14df19576bc991dull},
    {"dc-sum", "advanced", false, 0x63f08f124d27c06bull},
    {"dc-sum", "pipelined", false, 0x59690558a6b6d94full},
    {"dc-max", "sequential", true, 0xcd7994d31a6afa8dull},
    {"dc-max", "multicore", true, 0xcb96f764a7785009ull},
    {"dc-max", "gpu", true, 0x926d67c664e7ea05ull},
    {"dc-max", "basic", true, 0x8b58188fc4a2c09dull},
    {"dc-max", "advanced", true, 0xade8e1486e974535ull},
    {"dc-max", "pipelined", true, 0xf3c72eddf4c047c7ull},
    {"dc-max", "sequential", false, 0xae97ed97961c5647ull},
    {"dc-max", "multicore", false, 0xe0996590bb88f8c3ull},
    {"dc-max", "gpu", false, 0xf6e845a384371f53ull},
    {"dc-max", "basic", false, 0xed7dc35f7939bbb5ull},
    {"dc-max", "advanced", false, 0x6c7778fe926c2bc8ull},
    {"dc-max", "pipelined", false, 0xe73ef73b0baa257cull},
    {"dc-min", "sequential", true, 0xbba4f7fba3e50d63ull},
    {"dc-min", "multicore", true, 0xd5ee65b38f3e82d3ull},
    {"dc-min", "gpu", true, 0xc6c09f65a733b5b5ull},
    {"dc-min", "basic", true, 0xd2da9ddd2dff4dd3ull},
    {"dc-min", "advanced", true, 0x9f6e31680dcd2501ull},
    {"dc-min", "pipelined", true, 0xc2837b54a34eedf7ull},
    {"dc-min", "sequential", false, 0x2ec62fb0dde2b6e7ull},
    {"dc-min", "multicore", false, 0x29d54e411be25317ull},
    {"dc-min", "gpu", false, 0x81dffc95251b561full},
    {"dc-min", "basic", false, 0x8eea93d3a29284d1ull},
    {"dc-min", "advanced", false, 0xd26bc5017ff803baull},
    {"dc-min", "pipelined", false, 0x4795bd4b96b03506ull},
    {"dc-fft", "sequential", true, 0x6f58a693bc049eb7ull},
    {"dc-fft", "multicore", true, 0xaf39c8b1333e4953ull},
    {"dc-fft", "gpu", true, 0xe3e5308efb5c34edull},
    {"dc-fft", "basic", true, 0x8c0e46581e944254ull},
    {"dc-fft", "advanced", true, 0x5b6aa16f2659af59ull},
    {"dc-fft", "pipelined", true, 0x70707aa3288d9385ull},
    {"dc-fft", "sequential", false, 0xb74bc39fc7718fadull},
    {"dc-fft", "multicore", false, 0x96b0bedb6de0adbdull},
    {"dc-fft", "gpu", false, 0x835610e348baa6b9ull},
    {"dc-fft", "basic", false, 0x96204a7c71904bb3ull},
    {"dc-fft", "advanced", false, 0xf6b1aa01c54dbe37ull},
    {"dc-fft", "pipelined", false, 0x9365a4445c57e28dull},
    {"racy", "sequential", true, 0x8dd107abf913ef6full},
    {"racy", "multicore", true, 0x67cfb2f26894706full},
    {"racy", "gpu", true, 0x4164c0b79e9ccad1ull},
    {"racy", "basic", true, 0xca3b0827777abeb1ull},
    {"racy", "advanced", true, 0xcbe397bf92db6fabull},
    {"racy", "pipelined", true, 0xe15c5767d8f43375ull},
    {"racy", "sequential", false, 0x79c027796dc4782dull},
    {"racy", "multicore", false, 0xa68359e19b45b951ull},
    {"racy", "gpu", false, 0xddf766cfd2fde556ull},
    {"racy", "basic", false, 0xcb554aa81d42ff3dull},
    {"racy", "advanced", false, 0x8e7599dd92ba1707ull},
    {"racy", "pipelined", false, 0x5dcbb7031a2de03aull},
};

std::uint64_t expected(const std::string& alg, const char* executor, bool functional) {
    for (const Golden& g : kGolden) {
        if (alg == g.alg && std::string(executor) == g.executor && functional == g.functional) {
            return g.digest;
        }
    }
    return 0;
}

/// `pooled` also runs every cell across a pool and requires the same
/// digest (off for the racy algorithm, whose pooled output is a real race).
template <typename T>
void sweep(const LevelAlgorithm<T>& alg, std::uint64_t base,
           const std::function<std::vector<T>(std::uint64_t)>& make_input,
           bool pooled = true) {
    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(2);
    for (const bool functional : {true, false}) {
        for (int e = 0; e < 6; ++e) {
            const std::uint64_t want = expected(alg.name(), kExecutors[e], functional);
            const std::uint64_t got_inline =
                cell_digest(&inline_pool, e, alg, base, functional, make_input);
            const std::uint64_t got_pooled =
                pooled ? cell_digest(&pool, e, alg, base, functional, make_input) : got_inline;
            char row[160];
            std::snprintf(row, sizeof row, "    {\"%s\", \"%s\", %s, 0x%016llxull},",
                          alg.name().c_str(), kExecutors[e], functional ? "true" : "false",
                          static_cast<unsigned long long>(got_inline));
            EXPECT_EQ(got_inline, want) << row;
            EXPECT_EQ(got_pooled, got_inline) << "pooled run differs: " << row;
        }
    }
}

std::vector<std::int32_t> int_input(std::uint64_t n) {
    std::vector<std::int32_t> v(n);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = static_cast<std::int32_t>(x % 10000);
    }
    return v;
}

std::vector<std::complex<double>> complex_input(std::uint64_t n) {
    std::vector<std::complex<double>> v(n);
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (auto& e : v) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const double re = static_cast<double>(x % 2001) - 1000.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = {re / 64.0, (static_cast<double>(x % 2001) - 1000.0) / 64.0};
    }
    return v;
}

TEST(PlanGolden, MergesortPlain) {
    sweep<std::int32_t>(algos::MergesortPlain<std::int32_t>(), 1, int_input);
}

TEST(PlanGolden, MergesortCoalesced) {
    sweep<std::int32_t>(algos::MergesortCoalesced<std::int32_t>(), 1, int_input);
}

TEST(PlanGolden, MergesortBlocked) {
    sweep<std::int32_t>(algos::MergesortBlocked<std::int32_t>(4), 4, int_input);
}

TEST(PlanGolden, Reductions) {
    sweep<std::int32_t>(algos::make_sum<std::int32_t>(), 1, int_input);
    sweep<std::int32_t>(algos::make_max<std::int32_t>(), 1, int_input);
    sweep<std::int32_t>(algos::make_min<std::int32_t>(), 1, int_input);
}

TEST(PlanGolden, Fft) { sweep<std::complex<double>>(algos::DcFft(), 1, complex_input); }

TEST(PlanGolden, RacyFindings) { sweep<std::int32_t>(RacyAlg(), 1, int_input, false); }

// ------------------------------------------------------ irregular engine

/// Machines of the irregular sweep: HPU1 keeps most levels on the CPU; a
/// device-friendly machine (cheap link, fast lanes) splits levels, moves
/// the basic hybrid's frontier onto the device and back, and pipelines
/// wide levels in several chunks.
std::vector<Config> irregular_configs() {
    sim::HpuParams friendly = platforms::hpu1();
    friendly.name = "gpu-friendly";
    friendly.cpu.p = 4;
    friendly.cpu.contention = 0.0;
    friendly.gpu.g = 1024;
    friendly.gpu.gamma = 1.0;
    friendly.gpu.launch_overhead = 0.0;
    friendly.link.lambda = 5.0;
    friendly.link.delta = 0.01;
    // alpha and y are ignored on the dynamic path (the split is re-derived
    // per level); chunks = 4 caps the pipelined K.
    return {Config{platforms::hpu1(), 0, 0.5, 1, 4}, Config{friendly, 0, 0.5, 1, 4}};
}

/// Which branches of the per-level policy a sweep reached.
struct Coverage {
    std::uint64_t switch_in = 0;     ///< basic: frontier moved onto the device mid-tree
    std::uint64_t switch_out = 0;    ///< basic: frontier moved back to the host mid-tree
    std::uint64_t split_levels = 0;  ///< advanced: a level on both units
    std::uint64_t max_chunks = 0;    ///< pipelined: largest K of any level
    std::uint64_t gpu_boundary = 0;  ///< gpu: boundary transfers under the run root
    std::uint64_t gpu_bare = 0;      ///< gpu without transfers: runs with none
};

bool ends_with(const std::string& s, const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// Transfer spans labelled `what` directly under a sweep phase
/// (expand/combine) of `ts`, or under a run root when `roots` is set.
std::uint64_t count_transfers(const trace::TraceSession& ts, const char* what, bool roots) {
    std::uint64_t c = 0;
    for (const trace::Span& s : ts.spans()) {
        if (s.kind != trace::SpanKind::kTransfer || !ends_with(s.label, what)) continue;
        const trace::Span& parent = ts.span(s.parent);
        const bool sweep = parent.kind == trace::SpanKind::kPhase &&
                           (ends_with(parent.label, "/expand") ||
                            ends_with(parent.label, "/combine"));
        if (roots ? parent.kind == trace::SpanKind::kRun : sweep) ++c;
    }
    return c;
}

/// Levels (same sweep phase, same level index) with both a CPU and a GPU span.
std::uint64_t count_split_levels(const trace::TraceSession& ts) {
    std::uint64_t c = 0;
    for (const trace::Span& a : ts.spans()) {
        if (a.kind != trace::SpanKind::kLevel || a.unit != trace::Unit::kCpu) continue;
        for (const trace::Span& b : ts.spans()) {
            if (b.kind == trace::SpanKind::kLevel && b.unit == trace::Unit::kGpu &&
                b.parent == a.parent && b.attrs.level == a.attrs.level) {
                ++c;
                break;
            }
        }
    }
    return c;
}

template <typename T>
std::uint64_t irregular_cell(util::ThreadPool* pool, int executor, const LevelAlgorithm<T>& alg,
                             bool functional, const std::vector<T>& input, Coverage& cov) {
    Digest d;
    for (const Config& c : irregular_configs()) {
        std::vector<T> data = input;
        sim::Hpu h(c.hw, pool);
        trace::TraceSession ts;
        const ExecOptions opts = explicit_options(functional, &ts);
        switch (executor) {
            case 0: absorb(d, run_sequential(h.cpu(), alg, std::span<T>(data), opts)); break;
            case 1: absorb(d, run_multicore(h.cpu(), alg, std::span<T>(data), opts)); break;
            case 2: absorb(d, run_gpu(h, alg, std::span<T>(data), opts)); break;
            case 3: absorb(d, run_basic_hybrid(h, alg, std::span<T>(data), opts)); break;
            case 4: {
                AdvancedOptions adv;
                adv.split_tasks = 0;
                adv.exec = opts;
                absorb(d, run_advanced_hybrid(h, alg, std::span<T>(data), c.alpha, c.y, adv));
                break;
            }
            default: {
                PipelinedOptions pip;
                pip.chunks = c.chunks;
                pip.split_tasks = 0;
                pip.exec = opts;
                const ExecReport r =
                    run_pipelined_hybrid(h, alg, std::span<T>(data), c.alpha, c.y, pip);
                cov.max_chunks = std::max(cov.max_chunks, r.chunks);
                absorb(d, r);
                break;
            }
        }
        if (executor == 2) {
            cov.gpu_boundary += count_transfers(ts, "xfer-in", true) > 0 ? 1 : 0;
            trace::TraceSession bare;
            std::vector<T> again = input;
            const ExecReport r = run_gpu(h, alg, std::span<T>(again),
                                         explicit_options(functional, &bare),
                                         /*include_transfers=*/false);
            cov.gpu_bare += count_transfers(bare, "xfer-in", true) == 0 ? 1 : 0;
            absorb(d, r);
            absorb(d, bare);
            d.bytes(again.data(), again.size() * sizeof(T));
        }
        if (executor == 3) {
            cov.switch_in += count_transfers(ts, "xfer-in", false);
            cov.switch_out += count_transfers(ts, "xfer-out", false);
        }
        if (executor == 4) cov.split_levels += count_split_levels(ts);
        absorb(d, ts);
        d.bytes(data.data(), data.size() * sizeof(T));
    }
    return d.value();
}

// Captured from the hand-written irregular engine (run_level_functional /
// run_level_analytic) before it became a per-level planner over the
// core::Plan interpreter.
constexpr Golden kIrregularGolden[] = {
    {"quickhull", "sequential", true, 0xd0ed18fe7071c5bdull},
    {"quickhull", "multicore", true, 0x52b91ad6986ad589ull},
    {"quickhull", "gpu", true, 0xd6c9b07798f04050ull},
    {"quickhull", "basic", true, 0xde2c150e16446819ull},
    {"quickhull", "advanced", true, 0xa5e34a2196cacaddull},
    {"quickhull", "pipelined", true, 0x288ecd1e0d637832ull},
    {"quickhull", "sequential", false, 0x3027c5dd6f8055a9ull},
    {"quickhull", "multicore", false, 0xe72878e3fd9375d5ull},
    {"quickhull", "gpu", false, 0xa5deb2b204f97d8aull},
    {"quickhull", "basic", false, 0xe74ca7a46772d016ull},
    {"quickhull", "advanced", false, 0xf42ca27c7adffc65ull},
    {"quickhull", "pipelined", false, 0xff8fc5147b0c057cull},
    {"closest-pair", "sequential", true, 0x0b8e2a2f82e48d55ull},
    {"closest-pair", "multicore", true, 0x9875f85cc48623f1ull},
    {"closest-pair", "gpu", true, 0x0c17195656107df0ull},
    {"closest-pair", "basic", true, 0xfeb9cf995f0375bbull},
    {"closest-pair", "advanced", true, 0x3178ed016e1d177aull},
    {"closest-pair", "pipelined", true, 0xb526471cc9a9a8b5ull},
    {"closest-pair", "sequential", false, 0xaf47760b18851d47ull},
    {"closest-pair", "multicore", false, 0x5240adddbee85b95ull},
    {"closest-pair", "gpu", false, 0x3cc0b693044d6c28ull},
    {"closest-pair", "basic", false, 0x797fbe7b677f2cfeull},
    {"closest-pair", "advanced", false, 0x23e2d6f0723f5c2eull},
    {"closest-pair", "pipelined", false, 0xca00556065038ffeull},
    {"karatsuba", "sequential", true, 0xc0277a923d9c745dull},
    {"karatsuba", "multicore", true, 0xcd1fc62bdb395a3dull},
    {"karatsuba", "gpu", true, 0x29390ac607758b5bull},
    {"karatsuba", "basic", true, 0x90349a523813be56ull},
    {"karatsuba", "advanced", true, 0x56f9dc12611c1c18ull},
    {"karatsuba", "pipelined", true, 0x5382a3716dd7393full},
    {"karatsuba", "sequential", false, 0xd0ce130825b7c859ull},
    {"karatsuba", "multicore", false, 0x16a1b4e8597f788full},
    {"karatsuba", "gpu", false, 0x7a8442d380d83cd8ull},
    {"karatsuba", "basic", false, 0x3d441ab85d3dcebdull},
    {"karatsuba", "advanced", false, 0xf6e29910a2bc4dc8ull},
    {"karatsuba", "pipelined", false, 0x18db9ac67f9db674ull},
};

std::uint64_t irregular_expected(const std::string& alg, const char* executor, bool functional) {
    for (const Golden& g : kIrregularGolden) {
        if (alg == g.alg && std::string(executor) == g.executor && functional == g.functional) {
            return g.digest;
        }
    }
    return 0;
}

/// Sweeps one irregular algorithm; `cov[functional]` collects the branches
/// its inline runs reached.
template <typename T>
void irregular_sweep(const LevelAlgorithm<T>& alg, const std::vector<T>& input,
                     Coverage (&cov)[2]) {
    util::ThreadPool inline_pool(0);
    util::ThreadPool pool(2);
    for (const bool functional : {true, false}) {
        for (int e = 0; e < 6; ++e) {
            const std::uint64_t got_inline =
                irregular_cell(&inline_pool, e, alg, functional, input, cov[functional]);
            Coverage ignored;
            const std::uint64_t got_pooled =
                irregular_cell(&pool, e, alg, functional, input, ignored);
            char row[160];
            std::snprintf(row, sizeof row, "    {\"%s\", \"%s\", %s, 0x%016llxull},",
                          alg.name().c_str(), kExecutors[e], functional ? "true" : "false",
                          static_cast<unsigned long long>(got_inline));
            EXPECT_EQ(got_inline, irregular_expected(alg.name(), kExecutors[e], functional))
                << row;
            EXPECT_EQ(got_pooled, got_inline) << "pooled run differs: " << row;
        }
    }
}

/// `n` integer points on a thin ring: a hull of many vertices, so the
/// quickhull tree is deep and its middle levels wide.
std::vector<algos::Pt> ring_input(std::uint64_t n) {
    std::mt19937_64 rng(0x5eed0c0ffeeull);
    std::vector<algos::Pt> pts(n);
    for (auto& p : pts) {
        const double theta = 6.283185307179586 * static_cast<double>(rng() >> 11) * 0x1.0p-53;
        const double r = 100000.0 - static_cast<double>(rng() % 40);
        p.x = std::llround(r * std::cos(theta));
        p.y = std::llround(r * std::sin(theta));
    }
    return pts;
}

std::vector<algos::Pt> grid_input(std::uint64_t n) {
    std::mt19937_64 rng(0x0dd5eedull);
    std::vector<algos::Pt> pts(n);
    for (auto& p : pts) {
        p.x = static_cast<std::int64_t>(rng() % 4096);
        p.y = static_cast<std::int64_t>(rng() % 4096);
    }
    return pts;
}

std::vector<std::int64_t> operand_input(std::uint64_t half) {
    std::mt19937_64 rng(0xca4a75ull);
    std::vector<std::int64_t> v(2 * half);
    for (auto& x : v) x = static_cast<std::int64_t>(rng() % 201) - 100;
    return v;
}

TEST(PlanGolden, IrregularEngine) {
    Coverage cov[2];
    irregular_sweep(algos::Quickhull(), ring_input(1021), cov);
    irregular_sweep(algos::ClosestPair(), grid_input(999), cov);
    irregular_sweep(algos::KaratsubaArray(), operand_input(163), cov);
    // Every branch of the per-level policy, in both modes: a later config
    // change cannot silently drop coverage.
    for (const bool functional : {true, false}) {
        SCOPED_TRACE(functional ? "functional" : "analytic");
        const Coverage& c = cov[functional];
        EXPECT_GT(c.switch_in, 0u) << "no basic-hybrid residency switch onto the device";
        EXPECT_GT(c.switch_out, 0u) << "no basic-hybrid residency switch back to the host";
        EXPECT_GT(c.split_levels, 0u) << "no advanced-hybrid level split across both units";
        EXPECT_GE(c.max_chunks, 3u) << "no pipelined level of K >= 3 chunks";
        // Each of the three algorithms on each machine.
        EXPECT_EQ(c.gpu_boundary, 3 * irregular_configs().size()) << "gpu boundary transfers";
        EXPECT_EQ(c.gpu_bare, 3 * irregular_configs().size()) << "gpu without transfers";
    }
}

/// Re-emits one committed example trace exactly as `run_diff --emit` wrote
/// it (analytic mergesort-coalesced, n = 2^20, HPU1, model-optimal (α, y)).
trace::TraceSession emit_lg20(const std::string& executor) {
    const std::uint64_t n = 1 << 20;
    const sim::HpuParams hw = platforms::hpu1();
    algos::MergesortCoalesced<std::int32_t> alg;
    std::vector<std::int32_t> data(n);
    trace::TraceSession session;
    const ExecOptions opts = explicit_options(/*functional=*/false, &session);
    sim::Hpu machine(hw);
    const model::AdvancedModel m(hw, alg.recurrence(), static_cast<double>(n));
    const model::AdvancedPrediction plan = m.optimize();
    const auto y = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(std::max<std::int64_t>(1, std::llround(plan.y))), 20);
    if (executor == "basic") {
        run_basic_hybrid(machine, alg, std::span(data), opts);
    } else {
        AdvancedOptions adv;
        adv.exec = opts;
        run_advanced_hybrid(machine, alg, std::span(data), plan.alpha, y, adv);
    }
    return session;
}

TEST(PlanGolden, CommittedLg20TracesReEmitIdentically) {
    for (const std::string executor : {"basic", "advanced"}) {
        SCOPED_TRACE(executor);
        const obs::LoadedTrace committed = obs::load_chrome_trace(
            std::string(HPU_SOURCE_DIR) + "/bench/traces/" + executor + "_hpu1_lg20.json");
        ASSERT_TRUE(committed.ok()) << committed.error;
        const trace::TraceSession fresh = emit_lg20(executor);
        const obs::TraceDiff diff = obs::diff_traces(committed.session, fresh);
        EXPECT_TRUE(diff.identical(0.0)) << "delta " << diff.delta();
        EXPECT_EQ(committed.session.spans().size(), fresh.spans().size());
    }
}

}  // namespace
}  // namespace hpu::core
