#include <stdexcept>
#include <string>

#include "core/hybrid_phase3.hpp"
#include "core/insertion_sort.hpp"
#include "core/phases.hpp"

namespace gas::detail {

template <typename T>
KernelSpec sort_phase_spec(simt::DeviceProperties props, std::span<T> data,
                           std::size_t num_arrays, const SortPlan& plan,
                           std::span<const std::uint32_t> bucket_sizes,
                           const Options& opts) {
    const std::size_t n = plan.array_size;
    const std::size_t p = plan.buckets;

    simt::LaunchConfig cfg{"gas.phase3_sort", static_cast<unsigned>(num_arrays),
                           static_cast<unsigned>(p)};
    auto kernel = [=](simt::BlockCtx& blk) {
        auto offsets = blk.shared_alloc<std::uint32_t>(p + 1);
        const std::size_t a = blk.block_idx();
        auto array = blk.global_view(data.subspan(a * n, n));
        auto z_row = blk.global_view(bucket_sizes.subspan(a * p, p));

        // Region 1: thread 0 derives the bucket pointers from Z (the kernel
        // receives Z and computes starting/ending pointers per section 5.3).
        // The hybrid path additionally tracks the largest bucket to pick its
        // code path; a corrupt Z row (sum != n) fails loudly in debug builds
        // before any bucket is indexed.
        std::uint32_t k_max = 0;
        blk.single_thread([&](simt::ThreadCtx& tc) {
            std::uint32_t running = 0;
            std::uint64_t sum = 0;
            for (std::size_t j = 0; j < p; ++j) {
                offsets[j] = running;
                const std::uint32_t z = z_row[j];
                running += z;
                sum += z;
                if (opts.hybrid_phase3) k_max = std::max(k_max, z);
            }
            offsets[p] = running;
#ifndef NDEBUG
            if (sum != n) {
                throw std::logic_error("gas.phase3_sort: Z row of array " +
                                       std::to_string(a) + " sums to " +
                                       std::to_string(sum) + ", expected " +
                                       std::to_string(n));
            }
#else
            (void)sum;
#endif
            tc.global_coalesced(p * sizeof(std::uint32_t));
            tc.shared(p + 1);
            tc.ops(opts.hybrid_phase3 ? 2 * p : p);
        });

        if (opts.hybrid_phase3 && k_max > opts.phase3_small_cutoff) {
            hybrid_phase3_block</*kPairs=*/false, T>(
                blk, props, array, /*values=*/{}, p,
                [&](std::size_t j) -> std::uint32_t { return offsets[j]; }, opts);
            return;
        }

        // Region 2 (legacy / all-tiny fast path): thread j insertion-sorts
        // bucket j in place.  Because the buckets of one array are
        // contiguous, the concatenation of sorted buckets is the sorted
        // array — no merge phase (sample-sort property).  Memory model:
        // each element is fetched and stored once from DRAM (scattered
        // across lanes); the sort's shuffles then hit cache, so they cost
        // ALU/latency (ops) only.
        const auto sort_lane = [&](simt::ThreadCtx& tc) {
            const std::size_t j = tc.tid();
            const std::uint32_t begin = offsets[j];
            const std::uint32_t end = offsets[j + 1];
            const auto bucket = array.subspan(begin, end - begin);
            const InsertionCost cost = insertion_sort_seq(bucket);
            tc.ops(cost.compares + cost.moves);
            tc.global_random(2ull * bucket.size());
            tc.shared(2);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(sort_lane); });
    };
    return {cfg, std::move(kernel)};
}

#define GAS_INSTANTIATE(T)                                                                 \
    template KernelSpec sort_phase_spec<T>(simt::DeviceProperties, std::span<T>,           \
                                           std::size_t, const SortPlan&,                   \
                                           std::span<const std::uint32_t>,                 \
                                           const Options&);
GAS_INSTANTIATE(float)
GAS_INSTANTIATE(double)
GAS_INSTANTIATE(std::uint32_t)
GAS_INSTANTIATE(std::int32_t)
#undef GAS_INSTANTIATE

}  // namespace gas::detail
