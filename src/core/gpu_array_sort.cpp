#include "core/gpu_array_sort.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/device_ops.hpp"
#include "core/insertion_sort.hpp"
#include "core/phases.hpp"
#include "core/resilient.hpp"
#include "core/validate.hpp"

namespace gas {

namespace {

PhaseStats to_phase_stats(const simt::KernelStats& k) { return {k.modeled_ms, k.wall_ms}; }

simt::KernelStats launch(simt::Device& device, const detail::KernelSpec& spec) {
    return device.launch(spec.cfg, spec.body);
}

/// The descending-order negate kernel.  sort_arrays_on_device rejects
/// descending integral sorts first, so the integral branch is never reached.
template <typename T>
simt::KernelStats negate(simt::Device& device, std::span<T> data) {
    if constexpr (std::is_floating_point_v<T>) {
        return negate_on_device(device, data);
    } else {
        throw std::logic_error("gpu_array_sort: negate of an integral type");
    }
}

/// Small-array fast path: with a single bucket the three phases degenerate
/// to "one thread insertion-sorts the whole array".  Packing 256 arrays into
/// each block (instead of N one-thread blocks) fills the SMs.
template <typename T>
detail::KernelSpec small_array_spec(std::span<T> data, std::size_t num_arrays,
                                    std::size_t array_size) {
    constexpr unsigned kPack = 256;
    simt::LaunchConfig cfg{"gas.small_array_sort",
                           static_cast<unsigned>((num_arrays + kPack - 1) / kPack), kPack};
    auto body = [=](simt::BlockCtx& blk) {
        const auto sort_lane = [&](simt::ThreadCtx& tc) {
            const std::size_t a = static_cast<std::size_t>(blk.block_idx()) * kPack + tc.tid();
            if (a >= num_arrays) return;
            const std::span<T> row{data.data() + a * array_size, array_size};
            const InsertionCost cost = insertion_sort(row);
            tc.ops(cost.compares + cost.moves);
            tc.global_random(2ull * array_size);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(sort_lane); });
    };
    return {cfg, std::move(body)};
}

}  // namespace

template <typename T>
SortStats sort_arrays_on_device(simt::Device& device, simt::DeviceBuffer<T>& data,
                                std::size_t num_arrays, std::size_t array_size,
                                const Options& opts) {
    if (data.size() < num_arrays * array_size) {
        throw std::invalid_argument("sort_arrays_on_device: buffer smaller than N x n");
    }
    SortStats stats;
    stats.num_arrays = num_arrays;
    stats.array_size = array_size;
    if (num_arrays == 0 || array_size == 0) return stats;
    const bool descending = opts.order == SortOrder::Descending;
    if (descending && !std::is_floating_point_v<T>) {
        throw std::invalid_argument(
            "sort_arrays_on_device: descending order requires a floating-point element "
            "type (implemented via IEEE negation)");
    }

    const SortPlan plan = make_plan(array_size, opts, device.props(), sizeof(T));
    const std::span<T> span = data.span().first(num_arrays * array_size);

    // Run-time temporaries: S (splitters) and Z (bucket sizes) only — the
    // algorithm's in-place property.  A global scratch row per *resident*
    // block is added only for arrays too large to stage in shared memory.
    // Phase 2 picks its row by execution slot (< host_workers), so there are
    // never fewer rows than host workers, even for fewer arrays.  The
    // small-array path (one bucket per array) needs none of them.
    simt::DeviceBuffer<T> splitters;
    simt::DeviceBuffer<std::uint32_t> bucket_sizes;
    simt::DeviceBuffer<T> scratch;
    std::size_t scratch_rows = 0;
    if (plan.buckets > 1) {
        splitters = simt::DeviceBuffer<T>(device, num_arrays * plan.splitters_per_array);
        bucket_sizes = simt::DeviceBuffer<std::uint32_t>(device, num_arrays * plan.buckets);
        if (!plan.array_fits_shared) {
            const unsigned conc =
                device.cost_model().blocks_per_sm(plan.block_threads, /*shared_bytes=*/0);
            scratch_rows = std::max<std::size_t>(
                std::min<std::size_t>(num_arrays,
                                      static_cast<std::size_t>(device.props().sm_count) * conc),
                device.host_workers());
            scratch = simt::DeviceBuffer<T>(device, scratch_rows * array_size);
        }
    }

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

    // The pipeline: (negate) -> phase 1 -> phase 2 -> phase 3 (-> negate),
    // or (negate) -> packed small-array insertion sort (-> negate).
    // Descending order negates before and after: IEEE negation reverses
    // float order exactly.
    stats.data_bytes = num_arrays * array_size * sizeof(T);
    stats.buckets_per_array = plan.buckets;
    stats.sample_size = plan.sample_size;
    if (descending) stats.extra = to_phase_stats(negate(device, span));
    simt::KernelStats k3;
    if (plan.buckets == 1) {
        k3 = launch(device, small_array_spec(span, num_arrays, array_size));
    } else {
        stats.phase1 = to_phase_stats(launch(
            device, detail::splitter_phase_spec<T>(span, num_arrays, plan, splitters.span())));
        stats.phase2 = to_phase_stats(launch(
            device, detail::bucket_phase_spec<T>(span, num_arrays, plan, opts,
                                                 splitters.span(), bucket_sizes.span(),
                                                 scratch.span(), scratch_rows)));
        k3 = launch(device, detail::sort_phase_spec<T>(device.props(), span, num_arrays, plan,
                                                       bucket_sizes.span(), opts));
    }
    stats.phase3 = to_phase_stats(k3);
    stats.phase3_imbalance = k3.imbalance;
    if (descending) {
        const simt::KernelStats k = negate(device, span);
        stats.extra.modeled_ms += k.modeled_ms;
        stats.extra.wall_ms += k.wall_ms;
    }
    stats.peak_device_bytes = device.memory().peak_bytes_in_use();

    const std::span<const std::uint32_t> z = bucket_sizes.span();
    if (z.empty()) {  // small-array path: one bucket holding the whole array
        stats.min_bucket = static_cast<std::uint32_t>(array_size);
        stats.max_bucket = static_cast<std::uint32_t>(array_size);
        stats.avg_bucket = static_cast<double>(array_size);
        if (opts.collect_bucket_sizes) {
            stats.bucket_sizes.assign(num_arrays, static_cast<std::uint32_t>(array_size));
        }
    } else {
        const auto [mn, mx] = std::minmax_element(z.begin(), z.end());
        std::uint64_t sum = 0;
        for (const std::uint32_t v : z) sum += v;
        stats.min_bucket = *mn;
        stats.max_bucket = *mx;
        stats.avg_bucket = static_cast<double>(sum) / static_cast<double>(z.size());
        if (opts.collect_bucket_sizes) stats.bucket_sizes.assign(z.begin(), z.end());
    }

    if (opts.validate) {
        const std::span<const T> out = span;
        const bool ok = descending ? all_arrays_sorted_descending(out, num_arrays, array_size)
                                   : all_arrays_sorted(out, num_arrays, array_size);
        if (!ok) {
            throw std::logic_error("gpu_array_sort: validation failed, output not in " +
                                   to_string(opts.order) + " order");
        }
        if (!all_arrays_permuted(std::span<const T>(before), out, num_arrays, array_size)) {
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
