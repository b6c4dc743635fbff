// The paper's case study (§6): mergesort as a LevelAlgorithm, in two
// variants.
//
// MergesortPlain — the direct §4 translation (Alg. 7): task j of a level
// with `count` tasks merges the two sorted halves of its slice. The same
// body runs on a CPU core or as a GPU work-item; on the device its
// sequential slice walk is uncoalesced across the wave and pays the SIMT
// memory penalty.
//
// MergesortCoalesced — adds the §6.3 optimization: on the device, runs are
// kept in an interleaved layout (element k of run j at index k·runs + j) so
// that adjacent work-items touch adjacent words. Levels ping-pong between
// the data buffer and a scratch buffer; a final un-interleave restores
// row-major order before the array returns to the CPU — the optimization is
// transparent to the CPU side, exactly as in the paper.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "core/level_algorithm.hpp"
#include "util/check.hpp"
#include "util/transpose.hpp"

namespace hpu::algos {

template <typename T>
class MergesortPlain : public core::LevelAlgorithm<T> {
public:
    std::string name() const override { return "mergesort"; }
    std::uint64_t a() const override { return 2; }
    std::uint64_t b() const override { return 2; }

    model::Recurrence recurrence() const override {
        // Per output element: 1 comparison + 2.5 words (stage the left
        // half: 0.5, then read + write each element) — see run_task.
        return model::mergesort_recurrence(3.5);
    }

    void prepare(std::uint64_t n) const override { scratch_.resize(n); }

    void bind_exec(const util::MergeExec& exec) const override { exec_ = exec; }

    bool intra_task_parallel() const override { return exec_.parallel_ok(); }

    void run_task(std::span<T> data, std::uint64_t count, std::uint64_t j,
                  sim::OpCounter& ops) const override {
        merge_slice(data, count, j, ops, sim::Pattern::kStrided);
    }

    double device_ops_multiplier(const sim::DeviceParams& dev) const override {
        // CPU ops per element: 1 compute + 2.5 mem = 3.5. On the device
        // the words pay the strided penalty.
        return (1.0 + 2.5 * dev.strided_penalty) / 3.5;
    }

    std::optional<verify::TaskFootprint> footprint(
        const verify::FootprintQuery& /*query*/) const override {
        // Every phase reads and rewrites exactly its own slice
        // [j·sz, (j+1)·sz); the staging area is per-task private scratch
        // and never logged (see merge_slice).
        verify::SymAccess slice;
        slice.base = verify::Sym::lit(0);
        slice.jcoef = verify::Sym::size();
        slice.words = verify::Sym::size();
        slice.stride = verify::Sym::lit(1);
        verify::TaskFootprint fp;
        fp.reads.push_back(slice);
        fp.writes.push_back(slice);
        return fp;
    }

protected:
    /// Classic merge with the copy-left-half trick: stage [lo, mid) in
    /// scratch, then merge scratch and [mid, hi) back into [lo, hi).
    /// Charges: sz/2 staged words + per output element one compare, one
    /// read, one write.
    ///
    /// With a Merge Path binding, a large-enough merge instead stages the
    /// WHOLE slice in scratch and runs pool-parallel segments back into
    /// data (the serial in-place walk overlaps its output with the right
    /// run, which is racy under segment parallelism). Same stable merge
    /// (ties take the left run in both paths), same output bytes; the
    /// charges and logs below are closed-form in (sz, lo) and sit outside
    /// the path choice, so the virtual clock cannot move.
    void merge_slice(std::span<T> data, std::uint64_t count, std::uint64_t j,
                     sim::OpCounter& ops, sim::Pattern pattern) const {
        const std::uint64_t sz = data.size() / count;
        const std::uint64_t lo = j * sz, mid = lo + sz / 2, hi = lo + sz;
        HPU_CHECK(scratch_.size() >= data.size(), "prepare() was not called");
        const std::size_t parts =
            exec_.parallel_ok() ? util::merge_parts(sz, exec_.pool) : 1;
        if (parts > 1) {
            T* staged = scratch_.data() + lo;
            std::copy(data.begin() + static_cast<std::ptrdiff_t>(lo),
                      data.begin() + static_cast<std::ptrdiff_t>(hi), staged);
            util::merge_segments(exec_.pool, staged, mid - lo, staged + (mid - lo),
                                 hi - mid, data.data() + lo, std::less<T>{}, parts);
        } else if (mid > lo && data[mid] < data[mid - 1]) {  // else already in order
            T* left = scratch_.data() + lo;
            std::copy(data.begin() + static_cast<std::ptrdiff_t>(lo),
                      data.begin() + static_cast<std::ptrdiff_t>(mid), left);
            const std::uint64_t nl = mid - lo;
            const util::MergeCut c = util::merge_until_exhausted(
                left, nl, data.data() + mid, hi - mid, data.data() + lo, std::less<T>{});
            // The tail of the right run is already in place.
            for (std::uint64_t i = c.ai; i < nl; ++i) data[lo + c.bi + i] = left[i];
        }
        ops.charge_compute(sz);
        ops.charge_mem(sz / 2 + 2 * sz, pattern);
        // Declared footprint for the race detector: the task reads and
        // rewrites exactly its own slice (the staging area is per-slice
        // private scratch, invisible to other items).
        ops.log_read(lo, sz);
        ops.log_write(lo, sz);
    }

    mutable std::vector<T> scratch_;
    mutable util::MergeExec exec_;
};

template <typename T>
class MergesortCoalesced : public MergesortPlain<T> {
public:
    std::string name() const override { return "mergesort-coalesced"; }

    sim::Pattern device_pattern() const override { return sim::Pattern::kCoalesced; }

    double device_ops_multiplier(const sim::DeviceParams&) const override {
        // Device ops per element: 1 compute + 2 coalesced words = 3, vs
        // 3.5 CPU ops from the recurrence.
        return 3.0 / 3.5;
    }

    void before_gpu_levels(std::span<T> device_data, std::uint64_t deepest_count,
                           sim::OpCounter& ops) const override {
        // The deepest level to run merges 2·deepest_count sorted input runs.
        dscratch_.resize(device_data.size());
        const std::uint64_t runs_in = 2 * deepest_count;
        cur_is_scratch_ = false;
        // A slice too small for even one task at the deepest level runs no
        // device levels at all — keep the identity layout.
        if (runs_in == 0) {
            runs_ = device_data.size();
            return;
        }
        runs_ = runs_in;
        // Size-1 runs make the interleaved layout the identity — no
        // initial permutation cost, the layout simply *stays* interleaved
        // as the levels climb.
        if (runs_in == device_data.size()) return;
        // Mid-tree entry (the pipelined executor's merged shallow stage):
        // the runs arrive row-major, so physically interleave them first —
        // the inverse of the after_gpu_levels permutation, same tiled
        // transpose price.
        const std::uint64_t m = device_data.size() / runs_in;
        transpose_region(device_data.data(), m, dscratch_.data(), runs_in, runs_in, m);
        cur_is_scratch_ = true;
        ops.charge_mem(2 * device_data.size(), sim::Pattern::kCoalesced);
        ops.charge_compute(device_data.size() / 4);
    }

    void run_device_task(std::span<T> data, std::uint64_t count, std::uint64_t j,
                         sim::OpCounter& ops) const override {
        merge_tile(data, count, j, std::span<sim::OpCounter>(&ops, 1));
    }

    void run_device_tile(std::span<T> data, std::uint64_t count, std::uint64_t first,
                         std::span<sim::OpCounter> ops) const override {
        merge_tile(data, count, first, ops);
    }

    void after_gpu_level(std::span<T> /*device_data*/, std::uint64_t count,
                         sim::OpCounter& /*ops*/) const override {
        cur_is_scratch_ = !cur_is_scratch_;
        runs_ = count;
    }

    void after_gpu_levels(std::span<T> device_data, std::uint64_t count,
                          sim::OpCounter& ops) const override {
        HPU_CHECK(runs_ == count, "interleaved layout out of sync at readback");
        if (runs_ == device_data.size()) return;  // identity layout, nothing ran
        const std::uint64_t m = device_data.size() / runs_;
        // Un-interleave back to row-major so the CPU sees ordinary runs —
        // "the array is permuted back to the original arrangement" (§6.3).
        if (!cur_is_scratch_) {
            std::copy(device_data.begin(), device_data.end(), dscratch_.begin());
        }
        transpose_region(dscratch_.data(), runs_, device_data.data(), m, m, runs_);
        cur_is_scratch_ = false;
        // A tiled device transpose moves each word twice, coalesced.
        ops.charge_mem(2 * device_data.size(), sim::Pattern::kCoalesced);
        ops.charge_compute(device_data.size() / 4);
    }

    sim::OpCounter analytic_gpu_hook_ops(std::uint64_t region_elems) const override {
        // Transpose price of one non-identity layout hook: the final
        // un-interleave (after_gpu_levels), and for mid-tree entries also
        // the initial interleave (before_gpu_levels) — both cost the same.
        sim::OpCounter ops;
        ops.charge_mem(2 * region_elems, sim::Pattern::kCoalesced);
        ops.charge_compute(region_elems / 4);
        return ops;
    }

    std::optional<verify::TaskFootprint> footprint(
        const verify::FootprintQuery& query) const override {
        // The CPU body and the leaves are MergesortPlain's; only the
        // device walk differs: task j reads the interleaved columns 2j and
        // 2j+1 of the ping buffer (stride 2·count across sz/2 rows) and
        // writes column j of the pong buffer (stride count across sz
        // rows). Which buffer is ping is a runtime orientation the
        // conformance checker resolves; the prover only needs ping != pong.
        if (query.phase != verify::Phase::kDeviceTask) {
            return MergesortPlain<T>::footprint(query);
        }
        using verify::Region;
        using verify::Sym;
        verify::SymAccess even{Region::kPing, Sym::lit(0), Sym::lit(2), Sym::size(1, 2),
                               Sym::count(2)};
        verify::SymAccess odd = even;
        odd.base = Sym::lit(1);
        verify::SymAccess out{Region::kPong, Sym::lit(0), Sym::lit(1), Sym::size(),
                              Sym::count(1)};
        verify::TaskFootprint fp;
        fp.reads = {even, odd};
        fp.writes = {out};
        return fp;
    }

private:
    /// Staging budget of one host thread's tile, in bytes: the tile's 2B
    /// input columns and B output columns, row-major (4·B·m elements).
    static constexpr std::size_t kStageBytes = std::size_t{1} << 19;
    /// Elements per cache line: the widest tile (one whole line per output
    /// row write) and the shortest run worth staging.
    static constexpr std::uint64_t kLineElems =
        std::max<std::uint64_t>(1, util::kCacheLineBytes / sizeof(T));

    /// Columns merged per staged block at input run length m, or 0 to walk
    /// the columns in place: runs shorter than a cache line leave a tile
    /// few enough rows that they stream through the cache anyway, and a
    /// column pair that overflows the budget cannot be staged.
    static std::uint64_t tile_width(std::uint64_t m) {
        if (m < kLineElems) return 0;
        return std::min(kLineElems, kStageBytes / (4 * m * sizeof(T)));
    }

    /// util::transpose of a whole device region for the layout hooks, in
    /// row bands across the bound pool (the hooks run on the caller while
    /// the workers would idle). Each band writes its own columns of `out`,
    /// and bands are whole blocks. Wall-side only, like the tiles.
    void transpose_region(const T* in, std::size_t in_ld, T* out, std::size_t out_ld,
                          std::size_t rows, std::size_t cols) const {
        util::ThreadPool* pool = this->exec_.pool;
        if (pool == nullptr || pool->in_batch()) {
            util::transpose(in, in_ld, out, out_ld, rows, cols);
            return;
        }
        const std::size_t per_band = util::ceil_div(rows, pool->worker_count() + 1);
        const std::size_t step = util::ceil_div(per_band, kLineElems) * kLineElems;
        pool->parallel_for(
            util::ceil_div(rows, step),
            [&](std::size_t b) {
                const std::size_t r0 = b * step;
                util::transpose(in + r0 * in_ld, in_ld, out + r0, out_ld,
                                std::min(step, rows - r0), cols);
            },
            /*grain=*/1);
    }

    /// The device body of tasks [first, first + ops.size()): task j merges
    /// interleaved columns 2j and 2j+1 of the ping buffer into column j of
    /// the pong buffer. Blocks of B adjacent tasks are staged: each row
    /// read is 2B adjacent words, each column pair merges contiguously
    /// with util::merge_serial, each row write is B adjacent words. Launches
    /// narrower than the pool (merge_parts > 1), short runs and runs too
    /// long to stage merge in place through strided Merge Path views. Every path
    /// is the same stable merge (A wins ties), and the charges and logs
    /// are per task and path-independent.
    void merge_tile(std::span<T> data, std::uint64_t count, std::uint64_t first,
                    std::span<sim::OpCounter> ops) const {
        HPU_CHECK(runs_ == 2 * count, "interleaved layout out of sync with the level");
        const std::uint64_t in_runs = 2 * count;
        const std::uint64_t m = data.size() / in_runs;  // input run length
        const T* src = cur_is_scratch_ ? dscratch_.data() : data.data();
        T* dst = cur_is_scratch_ ? data.data() : dscratch_.data();
        const std::uint64_t end = first + ops.size();
        const std::size_t parts =
            this->exec_.parallel_ok() ? util::merge_parts(2 * m, this->exec_.pool) : 1;
        const std::uint64_t width = tile_width(m);
        if (parts > 1 || width == 0) {
            for (std::uint64_t j = first; j < end; ++j) {
                util::merge_segments_strided(
                    this->exec_.pool, util::Strided<const T>{src + 2 * j, in_runs}, m,
                    util::Strided<const T>{src + 2 * j + 1, in_runs}, m,
                    util::Strided<T>{dst + j, count}, std::less<T>{}, parts);
            }
        } else {
            thread_local std::vector<T> stage;  // at most kStageBytes per thread
            stage.resize(std::max<std::size_t>(stage.size(), 4 * width * m));
            for (std::uint64_t j0 = first; j0 < end; j0 += width) {
                const std::uint64_t b = std::min(width, end - j0);
                T* in = stage.data();      // 2b input runs of m
                T* out = in + 2 * b * m;   // b output runs of 2m
                util::transpose(src + 2 * j0, in_runs, in, m, m, 2 * b);
                for (std::uint64_t i = 0; i < b; ++i) {
                    util::merge_serial(in + 2 * i * m, m, in + (2 * i + 1) * m, m,
                                       out + 2 * i * m, std::less<T>{});
                }
                util::transpose(out, 2 * m, dst + j0, count, b, 2 * m);
            }
        }
        // Declared footprint: interleaved columns 2j, 2j+1 of src, column j
        // of dst. The ping-pong scratch lives in a disjoint address region
        // so data-vs-scratch accesses can never alias.
        const std::uint64_t src_base = cur_is_scratch_ ? verify::kScratchRegionBase : 0;
        const std::uint64_t dst_base = cur_is_scratch_ ? 0 : verify::kScratchRegionBase;
        for (std::uint64_t j = first; j < end; ++j) {
            sim::OpCounter& o = ops[j - first];
            // 1 compare + 2 coalesced words per output element.
            o.charge_compute(2 * m);
            o.charge_mem(4 * m, sim::Pattern::kCoalesced);
            o.log_read(src_base + 2 * j, m, in_runs);
            o.log_read(src_base + 2 * j + 1, m, in_runs);
            o.log_write(dst_base + j, 2 * m, count);
        }
    }

    mutable std::vector<T> dscratch_;
    mutable bool cur_is_scratch_ = false;
    mutable std::uint64_t runs_ = 0;
};

}  // namespace hpu::algos
