#include "core/insertion_sort.hpp"
#include "core/phases.hpp"

namespace gas::detail {

template <typename T>
KernelSpec splitter_phase_spec(std::span<const T> data, std::size_t num_arrays,
                               const SortPlan& plan, std::span<T> splitters) {
    const std::size_t n = plan.array_size;
    const std::size_t sample_size = plan.sample_size;
    const std::size_t p = plan.buckets;
    const std::size_t spa = plan.splitters_per_array;
    const std::size_t sample_stride = n / sample_size;    // >= 1 by plan
    const std::size_t splitter_stride = sample_size / p;  // >= 1 by plan

    simt::LaunchConfig cfg{"gas.phase1_splitters", static_cast<unsigned>(num_arrays), 1};
    auto body = [=](simt::BlockCtx& blk) {
        auto samples = blk.shared_alloc<T>(sample_size);
        const std::size_t a = blk.block_idx();
        auto array = blk.global_view(data.subspan(a * n, n));
        auto out = blk.global_view(splitters.subspan(a * spa, spa));

        blk.single_thread([&](simt::ThreadCtx& tc) {
            // Regular sampling (Algorithm 1's obtainSamples): strided global
            // reads are not warp-coalesced -> each costs a DRAM segment.
            for (std::size_t k = 0; k < sample_size; ++k) {
                samples[k] = array[k * sample_stride];
            }
            tc.global_random(sample_size);
            tc.shared(sample_size);
            tc.ops(sample_size * 2);

            const InsertionCost cost = insertion_sort_seq(samples);
            tc.ops(cost.compares + cost.moves);
            tc.shared(2 * (cost.compares + cost.moves));

            // Gather q = p - 1 splitters at regular intervals, then add the
            // two sentinels of Definition 5 so splitter pairs cannot overlap.
            out[0] = low_sentinel<T>();
            for (std::size_t j = 0; j + 1 < p; ++j) {
                out[j + 1] = samples[(j + 1) * splitter_stride];
            }
            out[p] = high_sentinel<T>();
            tc.shared(p > 0 ? p - 1 : 0);
            tc.global_random(p + 1);
            tc.ops(p + 1);
        });
    };
    return {cfg, std::move(body)};
}

#define GAS_INSTANTIATE(T)                                                                 \
    template KernelSpec splitter_phase_spec<T>(std::span<const T>, std::size_t,            \
                                               const SortPlan&, std::span<T>);
GAS_INSTANTIATE(float)
GAS_INSTANTIATE(double)
GAS_INSTANTIATE(std::uint32_t)
GAS_INSTANTIATE(std::int32_t)
#undef GAS_INSTANTIATE

}  // namespace gas::detail
