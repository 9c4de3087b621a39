#pragma once

#include <cstdint>
#include <span>

#include "core/options.hpp"
#include "core/sort_stats.hpp"
#include "simt/device.hpp"
#include "simt/device_buffer.hpp"

namespace gas {

/// Extension beyond the paper's uniform-n datasets: sorts N arrays of
/// *varying* sizes stored CSR-style (`offsets` has N+1 entries; array i
/// occupies values[offsets[i], offsets[i+1])), in place on the device.
///
/// Implementation note: because each block owns one array end to end, the
/// three phases fuse into a single kernel (`gas.ragged_fused`) whose
/// splitters, counts and bucket offsets never leave shared memory — zero
/// temporary global memory, an even stronger in-place property than the
/// uniform driver.  It is the keys-only instance of the fused kernel the
/// key/value sorters run (pair_sort.hpp), so it honours every Options field
/// they do: Descending order (negation around the launch), verify_output,
/// and std::invalid_argument for a zero bucket_target or a sampling_rate
/// outside (0, 1].  Requires every array to fit the 48 KB shared staging
/// area (about 10k floats after bookkeeping); throws std::invalid_argument
/// otherwise.
SortStats sort_ragged_on_device(simt::Device& device, simt::DeviceBuffer<float>& values,
                                std::span<const std::uint64_t> offsets,
                                const Options& opts = {});

/// True when a ragged row of `n` elements fits the fused kernel's
/// shared-memory staging area with `buffers` staged planes (2 for key/value
/// pairs).  Callers route rows that do not fit to a fallback path instead of
/// letting a fused launch throw.
[[nodiscard]] bool ragged_row_fits_shared(std::size_t n, const simt::DeviceProperties& props,
                                          std::size_t buffers = 1);

/// Host convenience wrapper (upload, sort, download).
SortStats gpu_ragged_sort(simt::Device& device, std::span<float> host_values,
                          std::span<const std::uint64_t> offsets, const Options& opts = {});

}  // namespace gas
