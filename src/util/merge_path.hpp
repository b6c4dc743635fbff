// Merge Path host kernel layer (DESIGN.md §15): splits one merge of two
// sorted runs into `parts` independent equal-output segments via diagonal
// binary search (Green/McColl/Bader; the paper's §6.5 comparator uses the
// same partitioning on the GPU) and runs the segments across the existing
// chunk-claiming util::ThreadPool — so the pool parallelizes *within* a
// merge, not just across the tasks of a level.
//
// Strictly a wall-clock layer: the kernel produces the same stable merge,
// byte for byte, as the element-at-a-time loops it replaces (A wins ties,
// matching every call site's tie-break), and the call sites charge their
// virtual-clock ops outside the path choice — ExecReports, traces, op
// categories, and analysis findings are bit-identical kernel-on vs
// kernel-off (pinned by tests/merge_path_test.cpp).
//
// The segment merge itself is branchless and cache-blocked: within a block
// whose length is bounded by both runs' remaining elements there are no
// exhaustion tests, each iteration consumes exactly one input via
// flag-indexed advances; the leftover run is moved with one std::memcpy
// when T is trivially copyable.
//
// Concurrency contract: merge_segments requires output disjoint from both
// inputs (callers stage through scratch where the serial loop merged in
// place), and merge_parts() returns 1 while the pool is inside a batch —
// a task body running pool-parallel must not recursively submit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <vector>

#include "util/thread_pool.hpp"

namespace hpu::util {

/// Output elements below which a merge is never worth partitioning.
inline constexpr std::size_t kMinParallelMerge = std::size_t{1} << 15;
/// Target minimum output elements per segment (amortizes the two diagonal
/// searches and the chunk-claim round trip per segment).
inline constexpr std::size_t kMinMergeSegment = std::size_t{1} << 13;
/// Inner-loop block: within a block both runs are known non-exhausted, so
/// the merge loop carries no bounds tests. Small enough that a block's
/// working set stays in L1.
inline constexpr std::size_t kMergeBlock = 128;

/// One Merge Path diagonal intersection: the merge's first `ai + bi`
/// outputs are exactly a[0, ai) and b[0, bi), with ai + bi = the diagonal.
struct MergeCut {
    std::size_t ai = 0;
    std::size_t bi = 0;
};

/// Diagonal binary search: how many elements of sorted run `a` lie among
/// the first `diag` outputs of the stable merge of `a` and `b` (A wins
/// ties — the cut keeps every a[i] that ties a b[k] on the A side, which
/// is the tie-break all the repo's serial merge loops implement). Views
/// need only operator[]; O(log min(na, diag)).
template <typename AView, typename BView, typename Less>
std::size_t merge_path_cut(const AView& a, std::size_t na, const BView& b, std::size_t nb,
                           std::size_t diag, Less less) {
    std::size_t lo = diag > nb ? diag - nb : 0;
    std::size_t hi = std::min(diag, na);
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        // a[mid] belongs to the first diag outputs iff it does not come
        // after b[diag - 1 - mid]; "not less than a" keeps ties on A.
        if (!less(b[diag - 1 - mid], a[mid])) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

/// Full partition of a merge into `parts` equal-output segments: returns
/// parts + 1 cuts with cut[0] = {0, 0} and cut[parts] = {na, nb}; segment
/// s produces outputs [diag(s), diag(s+1)) where diag(s) = total·s/parts.
template <typename AView, typename BView, typename Less>
std::vector<MergeCut> merge_path_partition(const AView& a, std::size_t na, const BView& b,
                                           std::size_t nb, std::size_t parts, Less less) {
    const std::size_t total = na + nb;
    std::vector<MergeCut> cuts(parts + 1);
    for (std::size_t s = 0; s <= parts; ++s) {
        const std::size_t diag = parts == 0 ? total : total * s / parts;
        cuts[s].ai = merge_path_cut(a, na, b, nb, diag, less);
        cuts[s].bi = diag - cuts[s].ai;
    }
    return cuts;
}

namespace merge_detail {

/// Moves `n` leftover elements of an exhausted-run tail; memcpy when the
/// type allows (the SIMD-friendly bulk path), element copy otherwise.
template <typename T>
void copy_run(const T* src, std::size_t n, T* out) {
    if (n == 0) return;
    if constexpr (std::is_trivially_copyable_v<T>) {
        std::memcpy(out, src, n * sizeof(T));
    } else {
        std::copy(src, src + n, out);
    }
}

}  // namespace merge_detail

/// The loop of the contiguous serial merges: merges a[0, na) and b[0, nb)
/// into out until one run is exhausted, A winning ties, and returns how
/// much of each run it consumed (the first ai + bi outputs are written).
/// Branchless cache-blocked inner loop: a block never exceeds either run's
/// remainder, so the hot loop has no exhaustion tests and the advance is a
/// flag add, not a branch. `out` may overlap b only as out + na == b (the
/// copy-left-half merge): every store then lands behind b's read cursor.
template <typename T, typename Less>
MergeCut merge_until_exhausted(const T* a, std::size_t na, const T* b, std::size_t nb, T* out,
                               Less less) {
    std::size_t ia = 0, ib = 0, k = 0;
    for (;;) {
        const std::size_t run = std::min(na - ia, nb - ib);
        if (run == 0) return {ia, ib};
        for (std::size_t i = 0, block = std::min(run, kMergeBlock); i < block; ++i) {
            const bool take_b = less(b[ib], a[ia]);
            out[k++] = take_b ? b[ib] : a[ia];
            ia += static_cast<std::size_t>(!take_b);
            ib += static_cast<std::size_t>(take_b);
        }
    }
}

/// Stable serial merge of a[0, na) and b[0, nb) into out[0, na + nb), A
/// wins ties: merge_until_exhausted, then the surviving tail as one bulk
/// copy. `out` must not overlap either input.
template <typename T, typename Less>
void merge_serial(const T* a, std::size_t na, const T* b, std::size_t nb, T* out, Less less) {
    const MergeCut c = merge_until_exhausted(a, na, b, nb, out, less);
    merge_detail::copy_run(a + c.ai, na - c.ai, out + c.ai + c.bi);
    merge_detail::copy_run(b + c.bi, nb - c.bi, out + na + c.bi);
}

/// Stable merge of a[0, na) and b[0, nb) into out, split into `parts`
/// equal-output Merge Path segments run across `pool`. Each segment
/// derives its own two cuts (two O(log) searches — no shared partition
/// state, no allocation) and merges independently; grain 1 keeps one
/// segment per claim. Falls back to the serial kernel for parts <= 1 or a
/// workerless pool. `out` must be disjoint from both inputs.
template <typename T, typename Less>
void merge_segments(ThreadPool* pool, const T* a, std::size_t na, const T* b, std::size_t nb,
                    T* out, Less less, std::size_t parts) {
    if (parts <= 1 || pool == nullptr || pool->worker_count() == 0) {
        merge_serial(a, na, b, nb, out, less);
        return;
    }
    const std::size_t total = na + nb;
    pool->parallel_for(
        parts,
        [&](std::size_t s) {
            const std::size_t d0 = total * s / parts;
            const std::size_t d1 = total * (s + 1) / parts;
            const std::size_t a0 = merge_path_cut(a, na, b, nb, d0, less);
            const std::size_t a1 = merge_path_cut(a, na, b, nb, d1, less);
            merge_serial(a + a0, a1 - a0, b + (d0 - a0), (d1 - a1) - (d0 - a0), out + d0,
                         less);
        },
        /*grain=*/1);
}

/// Constant-stride view over a column of an interleaved layout (the §6.3
/// coalesced mergesort keeps element k of run j at index k·runs + j).
/// Indexable like a pointer, so the partitioner and the generic merge
/// below work on interleaved runs unchanged.
template <typename T>
struct Strided {
    T* ptr = nullptr;
    std::size_t stride = 1;
    T& operator[](std::size_t i) const { return ptr[i * stride]; }
};

/// Stable serial merge over arbitrary indexable views (no bulk-copy tail —
/// strided columns are not contiguous). Same tie-break as merge_serial.
template <typename AView, typename BView, typename OutView, typename Less>
void merge_views_serial(const AView& a, std::size_t ia0, std::size_t na, const BView& b,
                        std::size_t ib0, std::size_t nb, const OutView& out, std::size_t k0,
                        Less less) {
    std::size_t ia = ia0, ib = ib0, k = k0;
    const std::size_t ea = ia0 + na, eb = ib0 + nb;
    while (ia < ea && ib < eb) {
        const bool take_b = less(b[ib], a[ia]);
        out[k++] = take_b ? b[ib] : a[ia];
        ia += static_cast<std::size_t>(!take_b);
        ib += static_cast<std::size_t>(take_b);
    }
    while (ia < ea) out[k++] = a[ia++];
    while (ib < eb) out[k++] = b[ib++];
}

/// merge_segments over strided views (interleave-aware: the coalesced
/// variant merges two interleaved columns into a third). Output cells must
/// be disjoint from both input columns.
template <typename T, typename Less>
void merge_segments_strided(ThreadPool* pool, Strided<const T> a, std::size_t na,
                            Strided<const T> b, std::size_t nb, Strided<T> out, Less less,
                            std::size_t parts) {
    if (parts <= 1 || pool == nullptr || pool->worker_count() == 0) {
        merge_views_serial(a, 0, na, b, 0, nb, out, 0, less);
        return;
    }
    const std::size_t total = na + nb;
    pool->parallel_for(
        parts,
        [&](std::size_t s) {
            const std::size_t d0 = total * s / parts;
            const std::size_t d1 = total * (s + 1) / parts;
            const std::size_t a0 = merge_path_cut(a, na, b, nb, d0, less);
            const std::size_t a1 = merge_path_cut(a, na, b, nb, d1, less);
            merge_views_serial(a, a0, a1 - a0, b, d0 - a0, (d1 - a1) - (d0 - a0), out, d0,
                               less);
        },
        /*grain=*/1);
}

/// How an algorithm's task bodies may use the merge kernel, bound by the
/// executor before a run (LevelAlgorithm::bind_exec). Wall-side only: the
/// binding must never change charges, logs, or output bytes.
struct MergeExec {
    ThreadPool* pool = nullptr;  ///< the run's functional pool (may be null)
    bool kernel = false;         ///< ExecOptions::merge_path && functional
    /// Whether a task body may split its merges across the pool at all
    /// (merge_parts still arbitrates per merge).
    bool parallel_ok() const noexcept {
        return kernel && pool != nullptr && pool->worker_count() > 0;
    }
};

/// Segment count for one merge of `total` output elements: 1 (serial)
/// when the pool is unusable (null, workerless, or mid-batch — the level
/// itself is running pool-parallel) or the merge is too small; otherwise
/// up to participants (workers + the submitting caller), floored so every
/// segment keeps at least kMinMergeSegment outputs.
std::size_t merge_parts(std::size_t total, const ThreadPool* pool);

/// HPU_MERGE_PATH environment default for ExecOptions::merge_path: ON
/// unless set to "0" / "off" / "false" / "no" (the kernel is a pure
/// wall-clock win, so unlike the validation flags it defaults enabled).
bool merge_path_env_default();

}  // namespace hpu::util
