// A fixed-size thread pool used for the *functional* execution of CPU-side
// tasks and simulated GPU waves (the virtual clock handles performance
// accounting separately; see sim/cpu_unit.hpp and sim/device.hpp). The pool
// supports bulk parallel-for submission, which is the only pattern the
// breadth-first executors need: run m independent tasks of one recursion-
// tree level, then barrier.
//
// Work distribution is chunked claiming (the XKaapi-style steal-half idea
// collapsed to its essential: grab a contiguous index range with one atomic
// bump, not one index per mutex round-trip). A batch carries a single
// type-erased range invoker, so submitting N tasks costs one allocation-free
// function-pointer call per claimed chunk instead of N std::function
// dispatches. Workers and the submitting caller all claim chunks from the
// same atomic cursor; the mutex is only touched at chunk completion for the
// done/error accounting.
//
// Wall-clock telemetry: every participant (worker threads plus the
// submitting caller) accounts its busy time per claimed chunk, workers
// additionally account their idle (condition-wait) time, and two
// Log2Histograms record the claim-size and submit-to-first-claim-latency
// distributions. The accounting is always on — two now_ns() reads and a
// handful of relaxed atomic adds per grain-sized chunk — and is read out
// with telemetry() / reset_telemetry(). It observes the wall clock only;
// the virtual clock and the functional results are untouched (the
// pooled-vs-inline determinism sweep enforces that bit for bit).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/check.hpp"
#include "util/histogram.hpp"

namespace hpu::util {

/// Wall-clock account of one pool participant over the telemetry window.
struct PoolWorkerStats {
    std::uint64_t busy_ns = 0;   ///< time spent executing claimed chunks
    std::uint64_t idle_ns = 0;   ///< time spent waiting for work (workers only)
    std::uint64_t chunks = 0;    ///< chunks claimed and executed
    std::uint64_t indices = 0;   ///< indices executed across those chunks
};

/// Snapshot of the pool's telemetry since construction or the last
/// reset_telemetry(). Slots 0..workers-1 are the worker threads; the last
/// slot is the submitting caller, which drains chunks alongside them but
/// has no pool-idle account (it owns the batch and waits on completion,
/// not on work).
struct PoolTelemetry {
    std::size_t workers = 0;
    std::uint64_t window_ns = 0;  ///< wall time covered by this snapshot
    std::uint64_t batches = 0;    ///< parallel_for submissions in the window
    std::vector<PoolWorkerStats> per_worker;  ///< size workers + 1 (last = caller)
    HistogramSnapshot claim_size;         ///< indices per executed chunk
    HistogramSnapshot submit_latency_ns;  ///< submit -> participant's first claim

    /// Summed busy ns of the worker threads (caller slot excluded).
    std::uint64_t worker_busy_ns() const noexcept {
        std::uint64_t t = 0;
        for (std::size_t i = 0; i < workers && i < per_worker.size(); ++i) {
            t += per_worker[i].busy_ns;
        }
        return t;
    }
    /// Summed idle ns of the worker threads (caller slot excluded).
    std::uint64_t worker_idle_ns() const noexcept {
        std::uint64_t t = 0;
        for (std::size_t i = 0; i < workers && i < per_worker.size(); ++i) {
            t += per_worker[i].idle_ns;
        }
        return t;
    }
    /// (busy + idle) / (workers × window): how much of the workers' wall
    /// time the two accounts explain. The gap is pool overhead (claim
    /// loop, completion bookkeeping); ≈ 1 on a healthy pool.
    double accounted_share() const noexcept {
        if (workers == 0 || window_ns == 0) return 1.0;
        return static_cast<double>(worker_busy_ns() + worker_idle_ns()) /
               (static_cast<double>(workers) * static_cast<double>(window_ns));
    }
};

class ThreadPool {
public:
    /// Creates `workers` threads. workers == 0 means "run inline on the
    /// caller" — useful on single-core hosts and in unit tests that want
    /// deterministic single-threaded execution.
    explicit ThreadPool(std::size_t workers);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;
    ~ThreadPool();

    std::size_t worker_count() const noexcept { return threads_.size(); }

    /// True while a parallel_for batch is in flight. Task bodies consult
    /// this (via util::merge_parts) before splitting their own work across
    /// the pool: submitting from inside a batch is not allowed, so a
    /// mid-batch caller must fall back to its serial path.
    bool in_batch() const noexcept { return in_batch_.load(std::memory_order_relaxed); }

    /// Runs fn(i) for i in [0, count) across the pool and blocks until all
    /// complete. Rethrows the first task exception on the caller (later
    /// chunks are skipped once a failure is recorded; chunks already
    /// claimed still finish). Not reentrant: a task calling parallel_for
    /// on the same (non-inline) pool throws HpuError.
    ///
    /// `grain` is the number of indices handed out per atomic claim;
    /// 0 picks one automatically from count and the worker count (tiny
    /// levels floor at 1 index per chunk, so a level of two huge tasks
    /// still runs two-way parallel).
    template <typename Fn>
    void parallel_for(std::size_t count, Fn&& fn, std::size_t grain = 0) {
        parallel_ranges(
            count,
            [&fn](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) fn(i);
            },
            grain);
    }

    /// parallel_for handing each claimed chunk to fn(begin, end) whole, so
    /// a body can work on adjacent indices together (the device's tiled
    /// launches). An inline pool makes one call over [0, count).
    template <typename Fn>
    void parallel_ranges(std::size_t count, Fn&& fn, std::size_t grain = 0) {
        if (count == 0) return;
        if (threads_.empty()) {
            fn(std::size_t{0}, count);
            return;
        }
        auto* body = std::addressof(fn);
        run_batch(
            count, grain,
            [](void* ctx, std::size_t begin, std::size_t end) {
                (*static_cast<std::remove_reference_t<Fn>*>(ctx))(begin, end);
            },
            const_cast<void*>(static_cast<const void*>(body)));
    }

    /// Snapshot of the wall-clock telemetry accumulated since construction
    /// or the last reset_telemetry(). Consistent when the pool is quiescent
    /// (no batch in flight); during a batch the relaxed counters may be
    /// mid-update but never torn. A zero-worker pool runs inline and
    /// collects nothing (workers == 0, empty per-worker stats).
    PoolTelemetry telemetry() const;

    /// Zeroes all telemetry and restarts the window clock. Call between
    /// batches (not concurrently with parallel_for).
    void reset_telemetry();

private:
    /// Type-erased "run indices [begin, end)" callback of one batch.
    using RangeFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

    struct Batch {
        std::size_t count = 0;
        std::size_t grain = 1;
        RangeFn invoke = nullptr;
        void* ctx = nullptr;
        std::uint64_t submit_ns = 0;          // now_ns() at submission
        std::atomic<std::size_t> cursor{0};   // next index range to claim
        std::atomic<bool> abandon{false};     // a failure was recorded
        std::size_t done = 0;                 // completed indices (guarded by mu_)
        std::size_t active = 0;               // workers inside drain (guarded by mu_)
        std::exception_ptr error;             // first failure (guarded by mu_)
    };

    /// One participant's telemetry slot. Written with relaxed atomics by
    /// its owning thread only; read by telemetry().
    struct Slot {
        std::atomic<std::uint64_t> busy_ns{0};
        std::atomic<std::uint64_t> idle_ns{0};
        std::atomic<std::uint64_t> chunks{0};
        std::atomic<std::uint64_t> indices{0};
        /// now_ns() when this worker parked on the work condition (0 = not
        /// parked). Lets telemetry() count an in-progress wait and lets a
        /// wait spanning reset_telemetry() be clipped to the window.
        std::atomic<std::uint64_t> wait_since_ns{0};
    };

    void worker_loop(std::size_t slot);
    // Claims and runs grain-sized chunks until the cursor is exhausted,
    // accounting busy time into `slot`.
    void drain_batch(Batch& b, std::size_t slot);
    // Submits a batch, participates in draining it, waits for completion.
    void run_batch(std::size_t count, std::size_t grain, RangeFn invoke, void* ctx);

    std::vector<std::thread> threads_;
    std::mutex mu_;
    std::condition_variable work_cv_;   // signals workers: batch available / shutdown
    std::condition_variable done_cv_;   // signals submitter: batch complete
    Batch* batch_ = nullptr;            // non-null while a batch is in flight
    std::atomic<bool> in_batch_{false};  // mirrors batch_ for lock-free reads
    bool stop_ = false;

    // Telemetry (always on; relaxed atomics off the virtual-clock path).
    std::unique_ptr<Slot[]> slots_;     // workers + 1, last = caller
    Log2Histogram claim_size_;
    Log2Histogram submit_latency_ns_;
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> window_start_ns_{0};
};

}  // namespace hpu::util
