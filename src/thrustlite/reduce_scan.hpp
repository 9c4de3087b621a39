#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "simt/device.hpp"
#include "simt/graph.hpp"

namespace thrustlite {

/// Device reductions and scans — the rest of the Thrust surface a pipeline
/// built on the simulated device needs.  All spans view device-resident
/// buffers; scalar results come back to the host (like thrust::reduce).

/// Sum of all elements (two-stage tree reduction: per-block partials in
/// shared memory, host adds the partial vector).
[[nodiscard]] double reduce_sum(simt::Device& device, std::span<const float> data);

/// Minimum / maximum element.  Precondition: data non-empty.
[[nodiscard]] float reduce_min(simt::Device& device, std::span<const float> data);
[[nodiscard]] float reduce_max(simt::Device& device, std::span<const float> data);

/// Maximum radix key as a graph node (the radix sort's pass-pruning probe:
/// its bit width bounds the highest significant digit).  Per-block partial
/// maxima land in `partials` (sized by the builder); a downstream host node
/// max-reduces them, so the radix graph plans its pass chain without a host
/// round-trip per kernel.  Precondition: keys non-empty.
[[nodiscard]] simt::KernelSpec reduce_max_key_spec(
    std::span<const std::uint32_t> keys,
    std::shared_ptr<std::vector<std::uint32_t>> partials);
[[nodiscard]] simt::KernelSpec reduce_max_key_spec(
    std::span<const std::uint64_t> keys,
    std::shared_ptr<std::vector<std::uint64_t>> partials);

/// Number of elements <= threshold (predicated count, branch-free).
[[nodiscard]] std::size_t count_less_equal(simt::Device& device, std::span<const float> data,
                                           float threshold);

/// Exclusive prefix sum: out[i] = in[0] + ... + in[i-1], out[0] = 0.
/// Classic three-kernel GPU scan: per-block sums, spine scan, distribute.
/// in and out may alias.
void exclusive_scan(simt::Device& device, std::span<const std::uint32_t> in,
                    std::span<std::uint32_t> out);

/// dst[i] = src[indices[i]] (scattered reads, coalesced writes).
void gather(simt::Device& device, std::span<const std::uint32_t> indices,
            std::span<const float> src, std::span<float> dst);

/// data[i] = value for all i.
void fill(simt::Device& device, std::span<float> data, float value);

}  // namespace thrustlite
