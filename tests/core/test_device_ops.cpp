#include "core/device_ops.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/gpu_array_sort.hpp"
#include "core/resilient.hpp"
#include "core/validate.hpp"
#include "simt/device_buffer.hpp"
#include "workload/generators.hpp"

namespace {

simt::Device make_device() { return simt::Device(simt::tiny_device(128 << 20)); }

// The device row check over `num_arrays` uniform rows of `array_size`
// elements of `buf`, against checksums of the rows as they are now.
gas::resilient::VerifyCounts check_rows(simt::Device& dev, const simt::DeviceBuffer<float>& buf,
                                        std::size_t num_arrays, std::size_t array_size) {
    const auto offsets = gas::resilient::uniform_offsets(num_arrays, array_size);
    const std::span<const float> keys = buf.span();
    const auto expected = gas::resilient::host_row_checksums<float>(keys, {}, offsets);
    return gas::resilient::verify_rows_on_device<float>(
        dev, "gas.verify", keys, {}, offsets, gas::SortOrder::Ascending, expected);
}

TEST(DeviceOps, NegateIsAnInvolution) {
    auto dev = make_device();
    const auto original = workload::make_values(10000, workload::Distribution::Normal, 1);
    simt::DeviceBuffer<float> buf(dev, original.size());
    simt::copy_to_device(std::span<const float>(original), buf);

    gas::negate_on_device(dev, buf.span());
    for (std::size_t i = 0; i < original.size(); ++i) {
        ASSERT_EQ(buf.span()[i], -original[i]);
    }
    gas::negate_on_device(dev, buf.span());
    std::vector<float> back(original.size());
    simt::copy_to_host(buf, std::span<float>(back));
    EXPECT_EQ(back, original);
}

TEST(DeviceOps, SortednessCheckAcceptsSortedRows) {
    auto dev = make_device();
    auto ds = workload::make_dataset(20, 333, workload::Distribution::Sorted, 2);
    simt::DeviceBuffer<float> buf(dev, ds.values.size());
    simt::copy_to_device(std::span<const float>(ds.values), buf);
    const auto counts = check_rows(dev, buf, 20, 333);
    EXPECT_EQ(counts.rows, 20u);
    EXPECT_TRUE(counts.ok());
}

TEST(DeviceOps, SortednessCheckCountsUnsortedRows) {
    auto dev = make_device();
    auto ds = workload::make_dataset(10, 100, workload::Distribution::Sorted, 3);
    // Break rows 2 and 7.
    ds.values[2 * 100 + 50] = -1.0f;
    ds.values[7 * 100 + 99] = -1.0f;
    simt::DeviceBuffer<float> buf(dev, ds.values.size());
    simt::copy_to_device(std::span<const float>(ds.values), buf);
    EXPECT_EQ(check_rows(dev, buf, 10, 100).unsorted, 2u);
}

TEST(DeviceOps, SortednessCheckIsRowLocal) {
    // Row boundaries must not leak: [5,6] | [1,2] is sorted per-row even
    // though the flat sequence descends at the boundary.
    auto dev = make_device();
    std::vector<float> data = {5, 6, 1, 2};
    simt::DeviceBuffer<float> buf(dev, data.size());
    simt::copy_to_device(std::span<const float>(data), buf);
    EXPECT_TRUE(check_rows(dev, buf, 2, 2).ok());
}

TEST(DeviceOps, SortednessCheckDegenerateSizes) {
    auto dev = make_device();
    std::vector<float> data = {3, 1, 2};
    simt::DeviceBuffer<float> buf(dev, data.size());
    simt::copy_to_device(std::span<const float>(data), buf);
    EXPECT_EQ(check_rows(dev, buf, 3, 1).unsorted, 0u);  // single elems
    const auto none = check_rows(dev, buf, 0, 100);
    EXPECT_EQ(none.rows, 0u);
    EXPECT_EQ(none.unsorted, 0u);
}

TEST(DeviceOps, ChecksSortResultsEndToEnd) {
    auto dev = make_device();
    auto ds = workload::make_dataset(30, 400, workload::Distribution::Uniform, 4);
    simt::DeviceBuffer<float> buf(dev, ds.values.size());
    simt::copy_to_device(std::span<const float>(ds.values), buf);
    const auto offsets = gas::resilient::uniform_offsets(30, 400);
    const auto expected = gas::resilient::host_row_checksums<float>(ds.values, {}, offsets);
    const auto check = [&] {
        return gas::resilient::verify_rows_on_device<float>(
            dev, "gas.verify", buf.span(), {}, offsets, gas::SortOrder::Ascending, expected);
    };
    EXPECT_EQ(check().unsorted, 30u);
    gas::sort_arrays_on_device(dev, buf, 30, 400);
    EXPECT_TRUE(check().ok());
}

TEST(Descending, UniformSortDescends) {
    auto dev = make_device();
    auto ds = workload::make_dataset(25, 600, workload::Distribution::Uniform, 5);
    const auto before = ds.values;
    gas::Options opts;
    opts.order = gas::SortOrder::Descending;
    opts.validate = true;  // driver validates descending order itself
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    EXPECT_TRUE(gas::all_arrays_sorted_descending(ds.values, ds.num_arrays, ds.array_size));
    EXPECT_TRUE(gas::all_arrays_permuted(before, ds.values, ds.num_arrays, ds.array_size));
}

TEST(Descending, MatchesReversedAscending) {
    auto ds = workload::make_dataset(10, 321, workload::Distribution::Normal, 6);
    auto asc = ds.values;
    auto desc = ds.values;

    simt::Device dev1(simt::tiny_device(64 << 20));
    gas::gpu_array_sort(dev1, asc, ds.num_arrays, ds.array_size);

    simt::Device dev2(simt::tiny_device(64 << 20));
    gas::Options opts;
    opts.order = gas::SortOrder::Descending;
    gas::gpu_array_sort(dev2, desc, ds.num_arrays, ds.array_size, opts);

    for (std::size_t a = 0; a < ds.num_arrays; ++a) {
        for (std::size_t i = 0; i < ds.array_size; ++i) {
            ASSERT_EQ(desc[a * ds.array_size + i],
                      asc[a * ds.array_size + (ds.array_size - 1 - i)])
                << "array " << a << " index " << i;
        }
    }
}

TEST(Descending, ExtraKernelTimeIsAccounted) {
    auto dev = make_device();
    auto ds = workload::make_dataset(10, 200, workload::Distribution::Uniform, 7);
    gas::Options opts;
    opts.order = gas::SortOrder::Descending;
    const auto stats = gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    EXPECT_GT(stats.extra.modeled_ms, 0.0);
    EXPECT_GT(stats.modeled_kernel_ms(),
              stats.phase1.modeled_ms + stats.phase2.modeled_ms + stats.phase3.modeled_ms);
}

TEST(Descending, InfinitiesLandAtTheEnds) {
    auto dev = make_device();
    auto ds = workload::make_dataset(2, 50, workload::Distribution::Uniform, 8);
    ds.values[3] = std::numeric_limits<float>::infinity();
    ds.values[60] = -std::numeric_limits<float>::infinity();
    gas::Options opts;
    opts.order = gas::SortOrder::Descending;
    gas::gpu_array_sort(dev, ds.values, 2, 50, opts);
    EXPECT_EQ(ds.values[0], std::numeric_limits<float>::infinity());
    EXPECT_EQ(ds.values[99], -std::numeric_limits<float>::infinity());
}

}  // namespace
