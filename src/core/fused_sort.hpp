#pragma once

// Internal: the fused one-block-per-row sample sort behind gpu_ragged_sort,
// gpu_pair_sort and gpu_ragged_pair_sort.  Keys-only and key/value rows run
// the same kernel body; a value plane, when present, rides along through the
// staging, scatter and phase-3 steps.

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/options.hpp"
#include "core/sort_stats.hpp"
#include "simt/device.hpp"

namespace gas::detail {

/// Shared bytes one fused block needs: `planes` staged rows of `n` elements,
/// `threads + 1` splitters, and the per-bucket counts and cursors.
[[nodiscard]] constexpr std::size_t fused_shared_bytes(std::size_t n, std::size_t threads,
                                                       std::size_t planes,
                                                       std::size_t elem_size) {
    return planes * n * elem_size + (threads + 1) * elem_size +
           2 * threads * sizeof(std::uint32_t);
}

/// Sorts the rows `offsets` (N+1 entries, CSR) cuts out of `keys` in place,
/// with `values` permuted alongside when kPairs: offset and option checks,
/// host checksums, descending negation, the fused launch, and verify.
/// `where` names the caller in error messages; `verify_name` names the verify
/// kernel it launches under Options::verify_output.
template <typename T, bool kPairs>
SortStats sort_csr_on_device(simt::Device& device, std::span<T> keys, std::span<T> values,
                             std::span<const std::uint64_t> offsets, const Options& opts,
                             const char* where, const char* verify_name);

extern template SortStats sort_csr_on_device<float, false>(
    simt::Device&, std::span<float>, std::span<float>, std::span<const std::uint64_t>,
    const Options&, const char*, const char*);
extern template SortStats sort_csr_on_device<float, true>(
    simt::Device&, std::span<float>, std::span<float>, std::span<const std::uint64_t>,
    const Options&, const char*, const char*);
extern template SortStats sort_csr_on_device<double, true>(
    simt::Device&, std::span<double>, std::span<double>, std::span<const std::uint64_t>,
    const Options&, const char*, const char*);

}  // namespace gas::detail
