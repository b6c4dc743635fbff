// Cache-blocked out-of-place matrix transpose, the one host routine behind
// every change between row-major runs and the §6.3 interleaved layout
// (algos/mergesort.hpp): the hooks' whole-array (un)interleave and the
// coalesced tile body's row gathers and scatters.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

namespace hpu::util {

/// Host cache line, in bytes: the unit the blocked layout helpers size
/// their blocks and tiles by.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Writes out[c·out_ld + r] = in[r·in_ld + c] for r < rows, c < cols: the
/// rows × cols matrix at `in` (row stride in_ld) lands transposed at `out`
/// (row stride out_ld). Works in square blocks of one cache line of T per
/// side, turned around in a local buffer, so every read and every write
/// is a whole line-sized row segment — also when the strides are powers of
/// two and a block's lines would all map to one cache set. `out` must not
/// overlap `in`.
template <typename T>
void transpose(const T* in, std::size_t in_ld, T* out, std::size_t out_ld, std::size_t rows,
               std::size_t cols) {
    constexpr std::size_t kBlock = std::max<std::size_t>(1, kCacheLineBytes / sizeof(T));
    // At most a block of rows: every output row is one short contiguous
    // write, and the input rows are a few sequential streams.
    if (rows <= kBlock) {
        for (std::size_t c = 0; c < cols; ++c) {
            for (std::size_t r = 0; r < rows; ++r) out[c * out_ld + r] = in[r * in_ld + c];
        }
        return;
    }
    std::array<T, kBlock * kBlock> buf;
    for (std::size_t r0 = 0; r0 < rows; r0 += kBlock) {
        const std::size_t nr = std::min(kBlock, rows - r0);
        for (std::size_t c0 = 0; c0 < cols; c0 += kBlock) {
            const std::size_t nc = std::min(kBlock, cols - c0);
            for (std::size_t r = 0; r < nr; ++r) {
                const T* row = in + (r0 + r) * in_ld + c0;
                for (std::size_t c = 0; c < nc; ++c) buf[c * kBlock + r] = row[c];
            }
            for (std::size_t c = 0; c < nc; ++c) {
                T* dst = out + (c0 + c) * out_ld + r0;
                for (std::size_t r = 0; r < nr; ++r) dst[r] = buf[c * kBlock + r];
            }
        }
    }
}

}  // namespace hpu::util
