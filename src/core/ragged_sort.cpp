#include "core/ragged_sort.hpp"

#include "core/fused_sort.hpp"

namespace gas {

SortStats sort_ragged_on_device(simt::Device& device, simt::DeviceBuffer<float>& values,
                                std::span<const std::uint64_t> offsets, const Options& opts) {
    return detail::sort_csr_on_device<float, false>(device, values.span(), {}, offsets, opts,
                                                    "sort_ragged_on_device", "gas.verify_csr");
}

bool ragged_row_fits_shared(std::size_t n, const simt::DeviceProperties& props,
                            std::size_t buffers) {
    if (n == 0) return true;
    // The block width is the worst case the whole batch could reach (p grows
    // with the largest fused row), so a row admitted here can never make the
    // fused launch throw regardless of what it is batched with.
    return detail::fused_shared_bytes(n, props.max_threads_per_block, buffers,
                                      sizeof(float)) <= props.shared_memory_per_block;
}

SortStats gpu_ragged_sort(simt::Device& device, std::span<float> host_values,
                          std::span<const std::uint64_t> offsets, const Options& opts) {
    SortStats stats;
    if (offsets.size() < 2) return stats;
    simt::DeviceBuffer<float> values(device, host_values.size());
    const double h2d = simt::copy_to_device(std::span<const float>(host_values), values);
    stats = sort_ragged_on_device(device, values, offsets, opts);
    stats.h2d_ms = h2d;
    stats.d2h_ms = simt::copy_to_host(values, host_values);
    return stats;
}

}  // namespace gas
