// Merge-only microbench for the Merge Path kernel layer (DESIGN.md §15):
// times util::merge_segments in isolation — no simulator, no executors —
// so the kernel's serial blocked loop and its parallel segmentation can be
// tuned without the rest of the engine in the way.
//
// The sweep crosses total merged size 2^lgmin .. 2^lgmax (two runs of n/2
// each) with adversarial input classes and parts in {1, workers + 1}:
//
//   random     two independently sorted uniform runs (the generic case)
//   presorted  run A entirely <= run B — already merged, the copy_run
//              bulk tails dominate and memcpy throughput is the ceiling
//   reverse    run A entirely >  run B — the output is B then A, the
//              branchless loop drains one side before the tail kicks in
//   dups       keys from an 8-value range — equal keys everywhere, the
//              stability tie-break is on every comparison's hot path
//
// Emits BENCH_merge.json for tools/check_bench.py:
//
//   { "bench": "merge", "algo": "merge_segments", "platform": "host",
//     "host_concurrency": 8,
//     "entries": [ { "size": 1048576, "input": "random", "parts": 4,
//                    "workers": 3, "seconds": 0.0012 }, ... ] }
//
// Flags (subset of common.hpp's, plus):
//   --lgmin=<l>    smallest total size as log2(n)   (default 10)
//   --lgmax=<l>    largest total size as log2(n)    (default 24)
//   --step=<s>     log2 stride through the sweep    (default 2)
//   --repeats=<k>  min-of-k timing                  (default 3)
//   --out=<file>   JSON artifact path               (default BENCH_merge.json)
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/merge_path.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hpu;

struct Entry {
    std::uint64_t size = 0;
    std::string input;
    std::size_t parts = 0;
    std::size_t workers = 0;
    double seconds = 0.0;
};

constexpr const char* kInputs[] = {"random", "presorted", "reverse", "dups"};

/// Two sorted runs of n/2 each for the given input class, concatenated.
std::vector<std::int32_t> make_runs(const char* input, std::uint64_t n, util::Rng& rng) {
    const std::uint64_t half = n / 2;
    std::vector<std::int32_t> v(2 * half);
    const std::string cls(input);
    std::int64_t lo = 0, hi = static_cast<std::int64_t>(2 * n);
    if (cls == "dups") hi = 7;  // 8 distinct keys: ties on nearly every compare
    const auto fill = [&](std::uint64_t at, std::int64_t base) {
        for (std::uint64_t i = 0; i < half; ++i) {
            v[at + i] = static_cast<std::int32_t>(base + rng.uniform_int(lo, hi));
        }
        std::sort(v.begin() + static_cast<std::ptrdiff_t>(at),
                  v.begin() + static_cast<std::ptrdiff_t>(at + half));
    };
    if (cls == "presorted") {
        fill(0, 0);
        fill(half, hi + 1);  // every B key above every A key
    } else if (cls == "reverse") {
        fill(0, hi + 1);  // every A key above every B key
        fill(half, 0);
    } else {
        fill(0, 0);
        fill(half, 0);
    }
    return v;
}

void write_json(const std::string& path, std::size_t host_concurrency,
                const std::vector<Entry>& entries) {
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    os << "{\n";
    os << "  \"bench\": \"merge\",\n";
    os << "  \"algo\": \"merge_segments\",\n";
    os << "  \"platform\": \"host\",\n";
    os << "  \"host_concurrency\": " << host_concurrency << ",\n";
    os << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry& e = entries[i];
        os << "    {\"size\": " << e.size << ", \"input\": \"" << e.input
           << "\", \"parts\": " << e.parts << ", \"workers\": " << e.workers
           << ", \"seconds\": " << e.seconds << "}"
           << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "\nwrote " << entries.size() << " entries -> " << path << "\n";
}

}  // namespace

static int main_body(int argc, char** argv) {
    util::Cli cli(argc, argv);
    const std::size_t hc = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t workers = std::max<std::size_t>(1, bench::worker_threads(cli));
    const int lg_min = static_cast<int>(cli.get_int("lgmin", 10));
    const int lg_max = static_cast<int>(cli.get_int("lgmax", 24));
    const int step = static_cast<int>(cli.get_int("step", 2));
    const int reps = std::max(bench::repeats(cli), 3);
    const std::string out = bench::out_path(cli, cli.get("out", "BENCH_merge.json"));

    util::ThreadPool pool(workers);
    // parts = workers + 1: the caller thread merges a segment too, same
    // participant count merge_parts targets inside the engine.
    const std::size_t par_parts = workers + 1;

    std::cout << "merge microbench: sizes 2^" << lg_min << "..2^" << lg_max << ", parts {1, "
              << par_parts << "} (host concurrency " << hc << ")\n";
    util::Table t({"n", "input", "t serial (s)", "t parallel (s)", "speedup"}, 3);
    std::vector<Entry> entries;

    for (int lg = lg_min; lg <= lg_max; lg += step) {
        const std::uint64_t n = 1ull << lg;
        for (const char* input : kInputs) {
            util::Rng rng(bench::input_seed(cli, n) ^
                          static_cast<std::uint64_t>(input[0]) * 0x9e3779b97f4a7c15ull);
            const auto runs = make_runs(input, n, rng);
            const std::uint64_t half = runs.size() / 2;
            std::vector<std::int32_t> dst(runs.size());
            const auto time_parts = [&](std::size_t parts) {
                return bench::min_of(reps, [&] {
                    util::Stopwatch sw;
                    util::merge_segments(&pool, runs.data(), half, runs.data() + half,
                                         half, dst.data(), std::less<std::int32_t>{},
                                         parts);
                    return sw.seconds();
                });
            };
            const double t1 = time_parts(1);
            const double tp = time_parts(par_parts);
            entries.push_back({n, input, 1, workers, t1});
            entries.push_back({n, input, par_parts, workers, tp});
            t.add_row({static_cast<std::int64_t>(n), std::string(input), t1, tp,
                       tp > 0.0 ? t1 / tp : 1.0});
        }
    }

    bench::emit(t, cli);
    write_json(out, hc, entries);
    return 0;
}

int main(int argc, char** argv) { return hpu::util::run_main(argc, argv, main_body); }
