#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/options.hpp"
#include "core/sort_stats.hpp"
#include "simt/device.hpp"
#include "simt/device_buffer.hpp"

namespace gas {

/// Extension: key-value array sorting.  Sorts N arrays of (key, value) pairs
/// by key, in place, with keys and values in separate row-major buffers
/// (structure-of-arrays, the layout GPU code wants).  This is what the
/// mass-spectrometry pipeline needs to sort whole peaks — (intensity, m/z) —
/// on the device instead of re-sorting pairs on the host.
///
/// Implementation: the same three-phase sample sort as gpu_array_sort, fused
/// into one kernel (`gas.pair_sort_fused`) — the same kernel body as
/// gpu_ragged_sort with a second staged plane: splitters, counts and cursors
/// stay in shared memory, the value array is permuted alongside the keys,
/// and no temporary global memory is allocated.  Pairs with equal keys keep
/// no particular order (sample sort is not stable).  Requires each array
/// (keys + values) to fit the 48 KB shared staging area.
/// Instantiated for float and double (double covers high-resolution m/z).
template <typename T>
SortStats sort_pairs_on_device(simt::Device& device, simt::DeviceBuffer<T>& keys,
                               simt::DeviceBuffer<T>& values, std::size_t num_arrays,
                               std::size_t array_size, const Options& opts = {});

/// Host wrapper (upload, sort, download both buffers).
template <typename T>
SortStats gpu_pair_sort(simt::Device& device, std::span<T> host_keys,
                        std::span<T> host_values, std::size_t num_arrays,
                        std::size_t array_size, const Options& opts = {});

/// Container convenience.
template <typename T>
SortStats gpu_pair_sort(simt::Device& device, std::vector<T>& keys, std::vector<T>& values,
                        std::size_t num_arrays, std::size_t array_size,
                        const Options& opts = {}) {
    return gpu_pair_sort(device, std::span<T>(keys), std::span<T>(values), num_arrays,
                         array_size, opts);
}

/// Ragged variant: CSR offsets, arrays of varying size (spectra!).
template <typename T>
SortStats sort_ragged_pairs_on_device(simt::Device& device, simt::DeviceBuffer<T>& keys,
                                      simt::DeviceBuffer<T>& values,
                                      std::span<const std::uint64_t> offsets,
                                      const Options& opts = {});

/// Host wrapper for the ragged variant.
template <typename T>
SortStats gpu_ragged_pair_sort(simt::Device& device, std::span<T> host_keys,
                               std::span<T> host_values,
                               std::span<const std::uint64_t> offsets,
                               const Options& opts = {});

/// Container convenience for the ragged variant.
template <typename T>
SortStats gpu_ragged_pair_sort(simt::Device& device, std::vector<T>& keys,
                               std::vector<T>& values,
                               std::span<const std::uint64_t> offsets,
                               const Options& opts = {}) {
    return gpu_ragged_pair_sort(device, std::span<T>(keys), std::span<T>(values), offsets,
                                opts);
}

#define GAS_DECLARE_PAIR(T)                                                                \
    extern template SortStats sort_pairs_on_device<T>(                                     \
        simt::Device&, simt::DeviceBuffer<T>&, simt::DeviceBuffer<T>&, std::size_t,        \
        std::size_t, const Options&);                                                      \
    extern template SortStats gpu_pair_sort<T>(simt::Device&, std::span<T>, std::span<T>,  \
                                               std::size_t, std::size_t, const Options&);  \
    extern template SortStats sort_ragged_pairs_on_device<T>(                              \
        simt::Device&, simt::DeviceBuffer<T>&, simt::DeviceBuffer<T>&,                     \
        std::span<const std::uint64_t>, const Options&);                                   \
    extern template SortStats gpu_ragged_pair_sort<T>(                                     \
        simt::Device&, std::span<T>, std::span<T>, std::span<const std::uint64_t>,         \
        const Options&);
GAS_DECLARE_PAIR(float)
GAS_DECLARE_PAIR(double)
#undef GAS_DECLARE_PAIR

}  // namespace gas
