#include "core/phases.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "simt/device_buffer.hpp"
#include "workload/generators.hpp"

namespace {

using gas::Options;
using gas::SortPlan;

simt::Device make_device() { return simt::Device(simt::tiny_device(256 << 20)); }


struct Staged {
    simt::DeviceBuffer<float> data;
    simt::DeviceBuffer<float> splitters;
    simt::DeviceBuffer<std::uint32_t> sizes;
    SortPlan plan;
};

Staged stage(simt::Device& dev, const workload::Dataset& ds, const Options& opts) {
    Staged s{simt::DeviceBuffer<float>(dev, ds.values.size()), {}, {}, {}};
    simt::copy_to_device(std::span<const float>(ds.values), s.data);
    s.plan = gas::make_plan(ds.array_size, opts, dev.props());
    s.splitters = simt::DeviceBuffer<float>(dev, ds.num_arrays * s.plan.splitters_per_array);
    s.sizes = simt::DeviceBuffer<std::uint32_t>(dev, ds.num_arrays * s.plan.buckets);
    return s;
}

// Each phase's spec builder, launched on its own.
void phase1(simt::Device& dev, Staged& s, std::size_t num_arrays) {
    const auto spec = gas::detail::splitter_phase_spec<float>(s.data.span(), num_arrays,
                                                              s.plan, s.splitters.span());
    dev.launch(spec.cfg, spec.body);
}

void phase2(simt::Device& dev, Staged& s, std::size_t num_arrays, const Options& opts,
            std::span<float> scratch = {}, std::size_t scratch_rows = 0) {
    const auto spec = gas::detail::bucket_phase_spec<float>(
        s.data.span(), num_arrays, s.plan, opts, s.splitters.span(), s.sizes.span(), scratch,
        scratch_rows);
    dev.launch(spec.cfg, spec.body);
}

void phase3(simt::Device& dev, Staged& s, std::size_t num_arrays) {
    const auto spec = gas::detail::sort_phase_spec<float>(dev.props(), s.data.span(),
                                                          num_arrays, s.plan, s.sizes.span());
    dev.launch(spec.cfg, spec.body);
}

TEST(SplitterPhase, EmitsSentinelsAndSortedInteriorSplitters) {
    auto dev = make_device();
    const auto ds = workload::make_dataset(20, 500, workload::Distribution::Uniform, 1);
    const Options opts;
    auto s = stage(dev, ds, opts);

    phase1(dev, s, ds.num_arrays);

    const auto sp = s.splitters.span();
    for (std::size_t a = 0; a < ds.num_arrays; ++a) {
        const auto row = sp.subspan(a * s.plan.splitters_per_array, s.plan.splitters_per_array);
        EXPECT_EQ(row.front(), gas::detail::low_sentinel<float>()) << a;
        EXPECT_EQ(row.back(), gas::detail::high_sentinel<float>()) << a;
        EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "splitter row " << a;
        // Interior splitters must be actual array values.
        for (std::size_t j = 1; j + 1 < row.size(); ++j) {
            const float* arr = ds.array(a);
            EXPECT_NE(std::find(arr, arr + ds.array_size, row[j]), arr + ds.array_size)
                << "splitter not from array";
        }
    }
}

TEST(BucketPredicate, PartitionsExactlyOnce) {
    // Property: for any splitter row and any value, exactly one bucket
    // accepts it.
    const std::vector<float> splitters = {gas::detail::low_sentinel<float>(), 1.0f, 5.0f, 5.0f,
                                          gas::detail::high_sentinel<float>()};
    const std::vector<float> probes = {-1e30f, 0.0f, 1.0f, 2.0f, 5.0f, 6.0f, 1e30f,
                                       -std::numeric_limits<float>::infinity(),
                                       std::numeric_limits<float>::infinity()};
    for (float x : probes) {
        int accepting = 0;
        for (std::size_t j = 0; j + 1 < splitters.size(); ++j) {
            if (gas::detail::in_bucket(x, splitters[j], splitters[j + 1], j == 0)) {
                ++accepting;
            }
        }
        EXPECT_EQ(accepting, 1) << "value " << x;
    }
}

TEST(BucketPhase, BucketSizesSumToArraySizeAndPartitionIsOrdered) {
    auto dev = make_device();
    const auto ds = workload::make_dataset(15, 800, workload::Distribution::Uniform, 2);
    const Options opts;
    auto s = stage(dev, ds, opts);

    phase1(dev, s, ds.num_arrays);
    phase2(dev, s, ds.num_arrays, opts);

    const auto z = s.sizes.span();
    const auto sp = s.splitters.span();
    const auto data = s.data.span();
    for (std::size_t a = 0; a < ds.num_arrays; ++a) {
        const auto zrow = z.subspan(a * s.plan.buckets, s.plan.buckets);
        const std::uint64_t total = std::accumulate(zrow.begin(), zrow.end(), std::uint64_t{0});
        EXPECT_EQ(total, ds.array_size) << "array " << a;

        // After write-back, elements of bucket j must lie within the j-th
        // splitter pair's range, and the concatenation must be a permutation
        // of the original array.
        const auto sprow = sp.subspan(a * s.plan.splitters_per_array,
                                      s.plan.splitters_per_array);
        const auto row = data.subspan(a * ds.array_size, ds.array_size);
        std::size_t pos = 0;
        for (std::size_t j = 0; j < s.plan.buckets; ++j) {
            for (std::uint32_t k = 0; k < zrow[j]; ++k, ++pos) {
                ASSERT_TRUE(gas::detail::in_bucket(row[pos], sprow[j], sprow[j + 1], j == 0))
                    << "array " << a << " bucket " << j;
            }
        }
        std::vector<float> got(row.begin(), row.end());
        std::vector<float> want(ds.array(a), ds.array(a) + ds.array_size);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "array " << a << " lost elements";
    }
}

TEST(BucketPhase, GlobalScratchFallbackMatchesSharedPath) {
    // Same dataset bucketed via the shared-staging path and via a forced
    // global-scratch path must produce identical arrays.
    const auto ds = workload::make_dataset(6, 600, workload::Distribution::Normal, 3);
    const Options opts;

    auto run = [&](bool force_global) {
        auto dev = make_device();
        auto s = stage(dev, ds, opts);
        if (force_global) s.plan.array_fits_shared = false;
        phase1(dev, s, ds.num_arrays);
        simt::DeviceBuffer<float> scratch;
        std::size_t rows = 0;
        if (force_global) {
            rows = 4;
            scratch = simt::DeviceBuffer<float>(dev, rows * ds.array_size);
        }
        phase2(dev, s, ds.num_arrays, opts, scratch.span(), rows);
        return std::vector<float>(s.data.span().begin(), s.data.span().end());
    };

    EXPECT_EQ(run(false), run(true));
}

TEST(SortPhase, ProducesFullySortedArrays) {
    auto dev = make_device();
    const auto ds = workload::make_dataset(12, 1000, workload::Distribution::Uniform, 4);
    const Options opts;
    auto s = stage(dev, ds, opts);

    phase1(dev, s, ds.num_arrays);
    phase2(dev, s, ds.num_arrays, opts);
    phase3(dev, s, ds.num_arrays);

    const auto data = s.data.span();
    for (std::size_t a = 0; a < ds.num_arrays; ++a) {
        const auto row = data.subspan(a * ds.array_size, ds.array_size);
        ASSERT_TRUE(std::is_sorted(row.begin(), row.end())) << "array " << a;
    }
}

TEST(Phases, KernelNamesAreLogged) {
    auto dev = make_device();
    const auto ds = workload::make_dataset(3, 100, workload::Distribution::Uniform, 5);
    const Options opts;
    auto s = stage(dev, ds, opts);
    dev.clear_kernel_log();

    phase1(dev, s, ds.num_arrays);
    phase2(dev, s, ds.num_arrays, opts);
    phase3(dev, s, ds.num_arrays);

    ASSERT_EQ(dev.kernel_log().size(), 3u);
    EXPECT_EQ(dev.kernel_log()[0].name, "gas.phase1_splitters");
    EXPECT_EQ(dev.kernel_log()[1].name, "gas.phase2_bucketing");
    EXPECT_EQ(dev.kernel_log()[2].name, "gas.phase3_sort");
    EXPECT_EQ(dev.kernel_log()[0].block_dim, 1u);  // single thread per block
    EXPECT_EQ(dev.kernel_log()[1].block_dim, s.plan.block_threads);
}

}  // namespace
