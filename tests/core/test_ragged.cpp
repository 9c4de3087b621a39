#include "core/ragged_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/generators.hpp"

namespace {

simt::Device make_device() { return simt::Device(simt::tiny_device(256 << 20)); }

std::vector<float> sorted_rows(const workload::RaggedDataset& ds) {
    auto expected = ds.values;
    for (std::size_t a = 0; a < ds.num_arrays(); ++a) {
        std::sort(expected.begin() + static_cast<std::ptrdiff_t>(ds.offsets[a]),
                  expected.begin() + static_cast<std::ptrdiff_t>(ds.offsets[a + 1]));
    }
    return expected;
}

TEST(RaggedSort, SortsVariableSizedArrays) {
    auto dev = make_device();
    auto ds = workload::make_ragged_dataset(60, 5, 900, workload::Distribution::Uniform, 1);
    const auto expected = sorted_rows(ds);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::gpu_ragged_sort(dev, ds.values, offsets);
    EXPECT_EQ(ds.values, expected);
}

TEST(RaggedSort, HandlesEmptyArraysInTheMix) {
    auto dev = make_device();
    std::vector<float> values = {3.0f, 1.0f, 2.0f, 9.0f, 8.0f};
    std::vector<std::uint64_t> offsets = {0, 3, 3, 5};  // middle array empty
    gas::gpu_ragged_sort(dev, values, offsets);
    EXPECT_EQ(values, (std::vector<float>{1.0f, 2.0f, 3.0f, 8.0f, 9.0f}));
}

TEST(RaggedSort, UsesZeroTemporaryGlobalMemory) {
    auto dev = make_device();
    auto ds = workload::make_ragged_dataset(40, 100, 500, workload::Distribution::Normal, 2);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());

    simt::DeviceBuffer<float> values(dev, ds.values.size());
    simt::copy_to_device(std::span<const float>(ds.values), values);
    const std::size_t before_peak = dev.memory().peak_bytes_in_use();
    gas::sort_ragged_on_device(dev, values, offsets);
    // The fused kernel allocates nothing: peak must not move.
    EXPECT_EQ(dev.memory().peak_bytes_in_use(), before_peak);
}

TEST(RaggedSort, RejectsNonAscendingOffsets) {
    auto dev = make_device();
    std::vector<float> values(10);
    simt::DeviceBuffer<float> buf(dev, values.size());
    std::vector<std::uint64_t> bad = {0, 7, 5, 10};
    EXPECT_THROW(gas::sort_ragged_on_device(dev, buf, bad), std::invalid_argument);
}

TEST(RaggedSort, RejectsOversizedArrays) {
    auto dev = make_device();
    const std::size_t huge = 13000;  // > 48 KB of floats once bookkeeping counted
    std::vector<float> values(huge, 1.0f);
    simt::DeviceBuffer<float> buf(dev, values.size());
    std::vector<std::uint64_t> offsets = {0, huge};
    EXPECT_THROW(gas::sort_ragged_on_device(dev, buf, offsets), std::invalid_argument);
}

TEST(RaggedSort, RejectsUnusableOptions) {
    auto dev = make_device();
    std::vector<float> values = {5, 1, 4, 2, 3, 9, 7, 8};
    const std::vector<std::uint64_t> offsets = {0, 5, 8};
    gas::Options no_buckets;
    no_buckets.bucket_target = 0;
    EXPECT_THROW(gas::gpu_ragged_sort(dev, values, offsets, no_buckets), std::invalid_argument);
    for (const double rate : {0.0, -0.5, 1.5}) {
        gas::Options bad_rate;
        bad_rate.sampling_rate = rate;
        EXPECT_THROW(gas::gpu_ragged_sort(dev, values, offsets, bad_rate), std::invalid_argument)
            << rate;
    }
}

TEST(RaggedSort, SortsDescending) {
    auto dev = make_device();
    std::vector<float> values = {5, 1, 4, 2, 3, 9, 7, 8};
    const std::vector<std::uint64_t> offsets = {0, 5, 8};
    gas::Options opts;
    opts.order = gas::SortOrder::Descending;
    opts.verify_output = true;
    gas::gpu_ragged_sort(dev, values, offsets, opts);
    EXPECT_EQ(values, (std::vector<float>{5, 4, 3, 2, 1, 9, 8, 7}));
}

TEST(RaggedSort, RejectsUndersizedValueBuffer) {
    auto dev = make_device();
    simt::DeviceBuffer<float> buf(dev, 5);
    std::vector<std::uint64_t> offsets = {0, 10};
    EXPECT_THROW(gas::sort_ragged_on_device(dev, buf, offsets), std::invalid_argument);
}

TEST(RaggedSort, EmptyOffsetListIsNoOp) {
    auto dev = make_device();
    std::vector<float> values;
    std::vector<std::uint64_t> offsets;
    EXPECT_NO_THROW(gas::gpu_ragged_sort(dev, values, offsets));
    offsets = {0};
    EXPECT_NO_THROW(gas::gpu_ragged_sort(dev, values, offsets));
}

TEST(RaggedSort, AllDistributionsSweep) {
    for (auto dist : workload::all_distributions()) {
        auto dev = make_device();
        auto ds = workload::make_ragged_dataset(25, 1, 400, dist, 5);
        const auto expected = sorted_rows(ds);
        std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
        gas::gpu_ragged_sort(dev, ds.values, offsets);
        ASSERT_EQ(ds.values, expected) << workload::to_string(dist);
    }
}

TEST(RaggedSort, ReverseLaneOrderAgrees) {
    auto run = [](simt::ThreadOrder order) {
        simt::Device dev(simt::tiny_device(128 << 20));
        dev.set_thread_order(order);
        auto ds = workload::make_ragged_dataset(20, 10, 300, workload::Distribution::Uniform, 6);
        std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
        gas::gpu_ragged_sort(dev, ds.values, offsets);
        return ds.values;
    };
    EXPECT_EQ(run(simt::ThreadOrder::Forward), run(simt::ThreadOrder::Reverse));
}

}  // namespace
