#include "core/gpu_array_sort.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/resilient.hpp"
#include "core/sort_graph.hpp"
#include "core/validate.hpp"

namespace gas {

template <typename T>
SortStats sort_arrays_on_device(simt::Device& device, simt::DeviceBuffer<T>& data,
                                std::size_t num_arrays, std::size_t array_size,
                                const Options& opts) {
    if (data.size() < num_arrays * array_size) {
        throw std::invalid_argument("sort_arrays_on_device: buffer smaller than N x n");
    }
    if (num_arrays == 0 || array_size == 0) {
        SortStats stats;
        stats.num_arrays = num_arrays;
        stats.array_size = array_size;
        return stats;
    }

    UniformSortGraph<T> pipeline(device, data.span(), num_arrays, array_size, opts);
    const std::span<const T> span(data.span().data(), num_arrays * array_size);

    std::vector<T> before;
    if (opts.validate) before.assign(span.begin(), span.end());

    // End-to-end verification (gas::resilient): per-row multiset checksums
    // taken host-side from the freshly-staged span before the first launch
    // (a baseline no injected fault can poison — see host_row_checksums),
    // checked by one verify kernel with modeled cost right before returning.
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint64_t> expected;
    if (opts.verify_output) {
        offsets = resilient::uniform_offsets(num_arrays, array_size);
        expected = resilient::host_row_checksums<T>(span, {}, offsets);
    }

    SortStats stats = pipeline.run();

    if (opts.collect_bucket_sizes) {
        const auto z = pipeline.bucket_sizes();
        if (z.empty()) {  // small-array path: one bucket per array
            stats.bucket_sizes.assign(num_arrays, static_cast<std::uint32_t>(array_size));
        } else {
            stats.bucket_sizes.assign(z.begin(), z.end());
        }
    }

    if (opts.validate) {
        const bool ok = opts.order == SortOrder::Descending
                            ? all_arrays_sorted_descending(span, num_arrays, array_size)
                            : all_arrays_sorted(span, num_arrays, array_size);
        if (!ok) {
            throw std::logic_error("gpu_array_sort: validation failed, output not in " +
                                   to_string(opts.order) + " order");
        }
        if (!all_arrays_permuted(std::span<const T>(before), span, num_arrays, array_size)) {
            throw std::logic_error("gpu_array_sort: validation failed, output is not a "
                                   "per-array permutation of the input");
        }
    }

    if (opts.verify_output) {
        const auto vc = resilient::verify_rows_on_device<T>(device, "gas.verify", span, {},
                                                            offsets, opts.order, expected);
        stats.verify.modeled_ms += vc.modeled_ms;
        stats.verify.wall_ms += vc.wall_ms;
        if (!vc.ok()) {
            throw resilient::VerifyError("gpu_array_sort", vc.unsorted, vc.mismatched);
        }
    }
    return stats;
}

template <typename T>
SortStats gpu_array_sort(simt::Device& device, std::span<T> host_data,
                         std::size_t num_arrays, std::size_t array_size,
                         const Options& opts) {
    if (host_data.size() < num_arrays * array_size) {
        throw std::invalid_argument("gpu_array_sort: host span smaller than N x n");
    }
    SortStats stats;
    if (num_arrays == 0 || array_size == 0) {
        stats.num_arrays = num_arrays;
        stats.array_size = array_size;
        return stats;
    }

    simt::DeviceBuffer<T> data(device, num_arrays * array_size);
    const double h2d = simt::copy_to_device(std::span<const T>(host_data), data);
    stats = sort_arrays_on_device(device, data, num_arrays, array_size, opts);
    stats.h2d_ms = h2d;
    stats.d2h_ms = simt::copy_to_host(data, host_data);
    return stats;
}

std::size_t device_footprint_bytes(std::size_t num_arrays, std::size_t array_size,
                                   const Options& opts, const simt::DeviceProperties& props,
                                   std::size_t elem_size) {
    const SortPlan plan = make_plan(array_size, opts, props, elem_size);
    auto aligned = [](std::size_t b) {
        return (b + simt::DeviceMemory::kAlignment - 1) / simt::DeviceMemory::kAlignment *
               simt::DeviceMemory::kAlignment;
    };
    std::size_t total = aligned(num_arrays * array_size * elem_size);  // the data
    if (plan.buckets == 1) return total;  // small-array path: no temporaries
    total += aligned(num_arrays * plan.splitters_per_array * elem_size);       // S
    total += aligned(num_arrays * plan.buckets * sizeof(std::uint32_t));       // Z
    if (!plan.array_fits_shared) {
        const std::size_t rows =
            static_cast<std::size_t>(props.sm_count) * props.max_blocks_per_sm;
        total += aligned(std::min(rows, num_arrays) * array_size * elem_size);
    }
    return total;
}

#define GAS_INSTANTIATE_SORT(T)                                                            \
    template SortStats sort_arrays_on_device<T>(simt::Device&, simt::DeviceBuffer<T>&,     \
                                                std::size_t, std::size_t, const Options&); \
    template SortStats gpu_array_sort<T>(simt::Device&, std::span<T>, std::size_t,         \
                                         std::size_t, const Options&);
GAS_INSTANTIATE_SORT(float)
GAS_INSTANTIATE_SORT(double)
GAS_INSTANTIATE_SORT(std::uint32_t)
GAS_INSTANTIATE_SORT(std::int32_t)
#undef GAS_INSTANTIATE_SORT

}  // namespace gas
