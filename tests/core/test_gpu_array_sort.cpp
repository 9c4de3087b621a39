#include "core/gpu_array_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/validate.hpp"
#include "workload/generators.hpp"

namespace {

using gas::gpu_array_sort;
using gas::Options;

simt::Device make_device() { return simt::Device(simt::tiny_device(512 << 20)); }

TEST(GpuArraySort, SortsUniformDataset) {
    auto dev = make_device();
    auto ds = workload::make_dataset(100, 1000, workload::Distribution::Uniform, 1);
    const auto before = ds.values;

    Options opts;
    opts.validate = true;  // driver itself checks sortedness + permutation
    const auto stats = gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);

    EXPECT_TRUE(gas::all_arrays_sorted(ds.values, ds.num_arrays, ds.array_size));
    EXPECT_TRUE(gas::all_arrays_permuted(before, ds.values, ds.num_arrays, ds.array_size));
    EXPECT_EQ(stats.buckets_per_array, 50u);
    EXPECT_GT(stats.modeled_kernel_ms(), 0.0);
    EXPECT_GT(stats.h2d_ms, 0.0);
    EXPECT_GT(stats.d2h_ms, 0.0);
}

TEST(GpuArraySort, MatchesStdSortRowByRow) {
    auto dev = make_device();
    auto ds = workload::make_dataset(50, 777, workload::Distribution::Normal, 2);
    auto expected = ds.values;
    for (std::size_t a = 0; a < ds.num_arrays; ++a) {
        std::sort(expected.begin() + static_cast<std::ptrdiff_t>(a * ds.array_size),
                  expected.begin() + static_cast<std::ptrdiff_t>((a + 1) * ds.array_size));
    }
    gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    EXPECT_EQ(ds.values, expected);
}

TEST(GpuArraySort, InPlaceMemoryOverheadIsSmall) {
    auto dev = make_device();
    auto ds = workload::make_dataset(200, 1000, workload::Distribution::Uniform, 3);
    const auto stats = gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    // Temporaries are S ((p+1) floats) + Z (p u32) per array: ~10% of data
    // for n = 1000, nothing like STA's ~3x.
    EXPECT_LT(stats.overhead_fraction(), 0.15);
    EXPECT_GE(stats.peak_device_bytes, stats.data_bytes);
}

TEST(GpuArraySort, DeviceMemoryFullyReleasedAfterHostCall) {
    auto dev = make_device();
    auto ds = workload::make_dataset(20, 500, workload::Distribution::Uniform, 4);
    gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    EXPECT_EQ(dev.memory().bytes_in_use(), 0u);
}

TEST(GpuArraySort, ZeroArraysAndZeroSizeAreNoOps) {
    auto dev = make_device();
    std::vector<float> empty;
    EXPECT_NO_THROW(gpu_array_sort(dev, empty, 0, 0));
    std::vector<float> data(10, 1.0f);
    EXPECT_NO_THROW(gpu_array_sort(dev, data, 10, 0));
    EXPECT_NO_THROW(gpu_array_sort(dev, data, 0, 10));
}

TEST(GpuArraySort, UndersizedSpanThrows) {
    auto dev = make_device();
    std::vector<float> data(10);
    EXPECT_THROW(gpu_array_sort(dev, data, 2, 10), std::invalid_argument);
}

TEST(GpuArraySort, SingleArraySingleElement) {
    auto dev = make_device();
    std::vector<float> data = {42.0f};
    gpu_array_sort(dev, data, 1, 1);
    EXPECT_EQ(data[0], 42.0f);
}

TEST(GpuArraySort, ArraysSmallerThanBucketTarget) {
    auto dev = make_device();
    auto ds = workload::make_dataset(30, 7, workload::Distribution::Uniform, 5);
    Options opts;
    opts.validate = true;
    const auto stats = gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    EXPECT_EQ(stats.buckets_per_array, 1u);
    EXPECT_TRUE(gas::all_arrays_sorted(ds.values, ds.num_arrays, ds.array_size));
}

TEST(GpuArraySort, InfinitiesSurviveSorting) {
    auto dev = make_device();
    auto ds = workload::make_dataset(4, 100, workload::Distribution::Uniform, 6);
    ds.values[0] = std::numeric_limits<float>::infinity();
    ds.values[1] = -std::numeric_limits<float>::infinity();
    ds.values[150] = -std::numeric_limits<float>::infinity();
    const auto before = ds.values;
    gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    EXPECT_TRUE(gas::all_arrays_sorted(ds.values, ds.num_arrays, ds.array_size));
    EXPECT_TRUE(gas::all_arrays_permuted(before, ds.values, ds.num_arrays, ds.array_size));
    EXPECT_EQ(ds.values[0], -std::numeric_limits<float>::infinity());
}

TEST(GpuArraySort, BucketDiagnosticsAreConsistent) {
    auto dev = make_device();
    auto ds = workload::make_dataset(40, 1000, workload::Distribution::Uniform, 7);
    const auto stats = gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    EXPECT_LE(stats.min_bucket, stats.max_bucket);
    EXPECT_NEAR(stats.avg_bucket,
                static_cast<double>(ds.array_size) /
                    static_cast<double>(stats.buckets_per_array),
                1e-9);
}

TEST(GpuArraySort, ValidateRejectsNaNLoss) {
    // NaNs violate the documented precondition: the bucketing predicate drops
    // them, which validation must catch rather than silently corrupt data.
    auto dev = make_device();
    auto ds = workload::make_dataset(2, 200, workload::Distribution::Uniform, 8);
    ds.values[5] = std::numeric_limits<float>::quiet_NaN();
    Options opts;
    opts.validate = true;
    EXPECT_THROW(gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts),
                 std::logic_error);
}

TEST(GpuArraySort, LargeArraysUseGlobalScratchFallback) {
    auto dev = make_device();
    // 20000 floats = 80 KB > 48 KB shared: the fallback path must engage and
    // still sort correctly.
    auto ds = workload::make_dataset(3, 20000, workload::Distribution::Uniform, 9);
    Options opts;
    opts.validate = true;
    const auto stats = gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    EXPECT_TRUE(gas::all_arrays_sorted(ds.values, ds.num_arrays, ds.array_size));
    EXPECT_EQ(stats.buckets_per_array, 1000u);
}

TEST(GpuArraySort, GlobalScratchRowsStayPrivateWithMoreWorkersThanArrays) {
    // Two arrays on four workers: the two phase-2 blocks can run on slots
    // whose indices collide modulo the two scratch rows.  A shared row is a
    // cross-block race, which the strict sanitizer turns into a throw.
    auto dev = make_device();
    dev.set_host_workers(4);
    auto sopts = simt::sanitize::SanitizeOptions::all();
    sopts.strict = true;
    dev.set_sanitize_options(sopts);
    for (const auto order : {simt::ThreadOrder::Forward, simt::ThreadOrder::Reverse}) {
        dev.set_thread_order(order);
        auto ds = workload::make_dataset(2, 20000, workload::Distribution::Uniform, 9);
        EXPECT_NO_THROW(gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size));
        EXPECT_TRUE(gas::all_arrays_sorted(ds.values, ds.num_arrays, ds.array_size));
    }
}

TEST(GpuArraySort, OutOfMemoryRaisesDeviceBadAlloc) {
    simt::Device dev(simt::tiny_device(1 << 20));  // 1 MB device
    auto ds = workload::make_dataset(300, 1000, workload::Distribution::Uniform, 10);
    EXPECT_THROW(gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size),
                 simt::DeviceBadAlloc);
}

TEST(GpuArraySort, FootprintModelMatchesAllocatorPeak) {
    auto dev = make_device();
    auto ds = workload::make_dataset(64, 1000, workload::Distribution::Uniform, 11);
    simt::DeviceBuffer<float> data(dev, ds.values.size());
    simt::copy_to_device(std::span<const float>(ds.values), data);
    const auto stats = gas::sort_arrays_on_device(dev, data, ds.num_arrays, ds.array_size);
    const std::size_t predicted =
        gas::device_footprint_bytes(ds.num_arrays, ds.array_size, Options{}, dev.props());
    EXPECT_EQ(stats.peak_device_bytes, predicted);
}

TEST(GpuArraySort, RepeatedSortIsIdempotent) {
    auto dev = make_device();
    auto ds = workload::make_dataset(10, 300, workload::Distribution::Uniform, 12);
    gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    const auto once = ds.values;
    gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    EXPECT_EQ(ds.values, once);
}

TEST(SortArraysOnDevice, RejectsDescendingIntegralAndShortBuffers) {
    auto dev = make_device();
    simt::DeviceBuffer<std::int32_t> data(dev, 100);
    Options descending;
    descending.order = gas::SortOrder::Descending;
    EXPECT_THROW(gas::sort_arrays_on_device(dev, data, 2, 50, descending),
                 std::invalid_argument);
    EXPECT_THROW(gas::sort_arrays_on_device(dev, data, 3, 50), std::invalid_argument);
    // An empty batch is a no-op: nothing is allocated or launched.
    EXPECT_NO_THROW(gas::sort_arrays_on_device(dev, data, 0, 50));
    EXPECT_TRUE(dev.kernel_log().empty());
}

}  // namespace
