#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/phases.hpp"

namespace gas::detail {

/// Host-side bodies shared by the bucketing kernels (gas.phase2_bucketing
/// and the fused ragged/pair kernel).
///
/// The scalar interpreter runs the paper's lane-major loops: every lane
/// re-reads the whole staged array against its own splitter pair (p * n
/// element visits per block).  Under ExecMode::Warp, with the sanitizer
/// detached and one lane per bucket, phase 2 runs once per block instead:
/// one splitter search per element, a histogram of the stored indices, and
/// one scatter pass over them; each warp then charges its lanes what the
/// lane-major body would.  The bytes match the scalar loops because the
/// intervals (sp[j], sp[j+1]] partition the key space under monotone
/// splitters (each bucket receives its elements in ascending index order,
/// as its lane would write them), and elements no bucket admits (NaN)
/// are dropped by both.

/// Destination bucket of `x` under monotone boundaries sp[0..p]: the first
/// j with x <= sp[j+1] (the first bucket whose hi admits the value, which
/// is where duplicates equal to a splitter land).  The caller must confirm
/// membership with in_bucket before writing — incomparable values (NaN)
/// resolve to 0 here but belong to no bucket.
///
/// This is std::lower_bound over sp[1, p) without branches: the halving
/// loop's trip count depends only on p, and each step advances by a
/// multiply the data cannot mispredict (about 3x faster than
/// std::lower_bound on uniform random floats at p = 50..200, x86-64, GCC 12).
template <typename T>
[[nodiscard]] inline std::size_t bucket_index(const T* sp, std::size_t p, T x) {
    const T* base = sp + 1;
    std::size_t len = p - 1;
    if (len == 0) return 0;
    while (len > 1) {
        const std::size_t half = len / 2;
        base += static_cast<std::size_t>(base[half - 1] < x) * half;
        len -= half;
    }
    return static_cast<std::size_t>(base - (sp + 1)) + static_cast<std::size_t>(*base < x);
}

/// Elements the cooperative lane-strided loop (i = lane, lane + threads,
/// ...) assigns to global lane `lane` of an n-element array.
[[nodiscard]] inline std::uint64_t strided_count(std::size_t n, unsigned lane,
                                                 unsigned threads) {
    return lane < n ? (n - lane - 1) / threads + 1 : 0;
}

/// Cooperative staging for one warp: the lane-strided copy pattern
/// (thread t copies t, t+T, ...) touches, per round, the contiguous run
/// [r*threads + lane_begin, r*threads + lane_end) — one bulk copy per round
/// instead of one element per lane visit.
template <typename T>
inline void warp_stage_rows(const T* src, T* dst, std::size_t n, unsigned threads,
                            unsigned lane_begin, unsigned width) {
    for (std::size_t base = lane_begin; base < n; base += threads) {
        const std::size_t count = std::min<std::size_t>(width, n - base);
        std::copy(src + base, src + base + count, dst + base);
    }
}

/// Bucket index of an element no bucket admits.
inline constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};

/// Per-worker host scratch of the one-pass phase 2: [0, n) holds the bucket
/// of each staged element, [n, n + p) the scatter cursors.  A block's two
/// passes run on one worker; the buffer grows to its largest row.
[[nodiscard]] inline std::vector<std::uint32_t>& bucket_scratch() {
    thread_local std::vector<std::uint32_t> scratch;
    return scratch;
}

/// One-pass phase 2, first half: stores every staged element's bucket
/// (one splitter search each) and writes the block histogram counts[0, p).
template <typename T>
inline void bucket_block(const T* staged, std::size_t n, const T* sp, std::size_t p,
                         std::uint32_t* counts) {
    std::vector<std::uint32_t>& scratch = bucket_scratch();
    if (scratch.size() < n + p) scratch.resize(n + p);
    std::fill(counts, counts + p, 0u);
    for (std::size_t i = 0; i < n; ++i) {
        const T x = staged[i];
        const std::size_t j = bucket_index(sp, p, x);
        const bool admitted = in_bucket(x, sp[j], sp[j + 1], j == 0);  // NaN: no bucket
        scratch[i] = admitted ? static_cast<std::uint32_t>(j) : kNoBucket;
        counts[j] += admitted ? 1u : 0u;
    }
}

/// One-pass phase 2, second half: replays the buckets bucket_block stored
/// for the same row through cursors seeded from the exclusive scan
/// starts[0, p); `emit(dst, i)` stores staged element i at position dst.
template <typename EmitFn>
inline void scatter_block(std::size_t n, const std::uint32_t* starts, std::size_t p,
                          const EmitFn& emit) {
    std::uint32_t* bucket = bucket_scratch().data();
    std::uint32_t* cursor = std::copy(starts, starts + p, bucket + n) - p;
    for (std::size_t i = 0; i < n; ++i) {
        if (bucket[i] != kNoBucket) emit(cursor[bucket[i]]++, i);
    }
}

}  // namespace gas::detail
