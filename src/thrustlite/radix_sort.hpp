#pragma once

#include <cstdint>

#include "thrustlite/device_vector.hpp"

namespace thrustlite {

/// Tuning knobs for the radix sorts.
struct RadixOptions {
    /// Skip digit passes the key range proves redundant.  A max-key
    /// reduction before the pass loop bounds the highest significant digit
    /// (all-zero high digits move nothing), and a pass whose histogram puts
    /// every key into a single digit bin is a stable identity permutation
    /// and is not scattered.  The sorted output is byte-identical to the
    /// full-pass sort (a coalesced copy-back restores buffer parity when an
    /// odd number of passes executed); only the pass count and modeled/wall
    /// cost change.  Default on — narrow-range keys (tags, bucket ids,
    /// 16-bit m/z bins) skip half or more of the passes.  The paper-figure
    /// benches (fig4-fig7, table1) turn this off: their STA baseline must
    /// stay faithful to Thrust's fixed sizeof(K)*8/4-pass sort.
    bool prune_passes = true;
};

/// Cost summary of one radix sort call.
struct RadixStats {
    unsigned passes = 0;            ///< scatter passes actually executed
    unsigned passes_skipped = 0;    ///< passes pruned by key range / degenerate histogram
    bool copy_back = false;         ///< odd executed passes -> one extra coalesced copy
    std::size_t scratch_bytes = 0;  ///< double buffers + histograms (the O(N) the paper cites)
    double modeled_ms = 0.0;
    double wall_ms = 0.0;
};

/// Stable LSD radix sort of 32-bit keys with an optional 32-bit payload,
/// 4-bit digits (8 passes), the classic GPU formulation:
/// per-pass histogram kernel -> offset scan kernel -> rank-and-scatter
/// kernel, double-buffered (this is the O(N) scratch the paper charges
/// against the STA technique).  The sort runs as one simt::Graph submit:
/// the max-key reduction is the root node, a planning host node bounds the
/// pass count, and each pass's histogram feeds a decision node that
/// enqueues that pass's offsets + scatter kernels (or prunes the pass).
///
/// This is the repo's stand-in for thrust::stable_sort_by_key, which the
/// paper's STA baseline is built from.  The spans must view device-resident
/// buffers (scratch is allocated on the same device).
RadixStats stable_sort_by_key(simt::Device& device, std::span<std::uint32_t> keys,
                              std::span<std::uint32_t> values, const RadixOptions& opts = {});

/// Keys-only variant.
RadixStats stable_sort(simt::Device& device, std::span<std::uint32_t> keys,
                       const RadixOptions& opts = {});

/// 64-bit key variants (16 digit passes): enables double-precision keys via
/// the double<->ordered-u64 transform in float_ordering.hpp.
RadixStats stable_sort_by_key(simt::Device& device, std::span<std::uint64_t> keys,
                              std::span<std::uint32_t> values, const RadixOptions& opts = {});
RadixStats stable_sort(simt::Device& device, std::span<std::uint64_t> keys,
                       const RadixOptions& opts = {});

/// device_vector conveniences.  An empty vector may have no device, so it
/// returns before touching one.
inline RadixStats stable_sort_by_key(device_vector<std::uint32_t>& keys,
                                     device_vector<std::uint32_t>& values,
                                     const RadixOptions& opts = {}) {
    if (keys.empty()) return {};
    return stable_sort_by_key(*keys.device(), keys.span(), values.span(), opts);
}
inline RadixStats stable_sort(device_vector<std::uint32_t>& keys,
                              const RadixOptions& opts = {}) {
    if (keys.empty()) return {};
    return stable_sort(*keys.device(), keys.span(), opts);
}

/// Device scratch bytes a sort of `count` keys of `key_bytes` each will
/// allocate (used by the Table 1 capacity model).  `with_values` adds the
/// 32-bit payload double buffer.  Defaults to 32-bit keys, the STA layout.
[[nodiscard]] std::size_t radix_scratch_bytes(std::size_t count, bool with_values,
                                              std::size_t key_bytes = sizeof(std::uint32_t));

}  // namespace thrustlite
