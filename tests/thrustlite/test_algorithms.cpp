#include "thrustlite/algorithms.hpp"

#include <gtest/gtest.h>

#include "workload/generators.hpp"

namespace {

simt::Device make_device() { return simt::Device(simt::tiny_device(64 << 20)); }

TEST(Algorithms, SequenceFillsIota) {
    auto dev = make_device();
    thrustlite::device_vector<std::uint32_t> v(dev, 10000);
    thrustlite::sequence(dev, v);
    const auto host = v.to_host();
    for (std::size_t i = 0; i < host.size(); ++i) ASSERT_EQ(host[i], i);
}

TEST(Algorithms, MakeTagsMatchesDefinition6) {
    auto dev = make_device();
    const std::size_t n = 37;   // deliberately not a tile multiple
    const std::size_t N = 113;
    thrustlite::device_vector<std::uint32_t> tags(dev, N * n);
    thrustlite::make_tags(dev, tags.span(), n);
    const auto host = tags.to_host();
    for (std::size_t i = 0; i < host.size(); ++i) ASSERT_EQ(host[i], i / n) << i;
}

TEST(Algorithms, InplaceConversionRoundTrips) {
    auto dev = make_device();
    const auto original = workload::make_values(4096 * 3 + 17, workload::Distribution::Normal, 4);
    simt::DeviceBuffer<float> buf(dev, original.size());
    simt::copy_to_device(std::span<const float>(original), buf);

    auto keys = thrustlite::to_ordered_inplace(dev, buf.span());
    EXPECT_EQ(keys.size(), original.size());
    thrustlite::from_ordered_inplace(dev, buf.span());

    std::vector<float> back(original.size());
    simt::copy_to_host(buf, std::span<float>(back));
    EXPECT_EQ(original, back);
}

TEST(Algorithms, ElementwiseKernelsReportCoalescedTraffic) {
    auto dev = make_device();
    thrustlite::device_vector<std::uint32_t> v(dev, 100000);
    dev.clear_kernel_log();
    thrustlite::sequence(dev, v);
    ASSERT_EQ(dev.kernel_log().size(), 1u);
    const auto& k = dev.kernel_log().front();
    EXPECT_EQ(k.totals.coalesced_bytes, 100000u * sizeof(std::uint32_t));
    EXPECT_EQ(k.totals.random_accesses, 0u);
}

TEST(Algorithms, EmptyInputsAreNoOps) {
    auto dev = make_device();
    thrustlite::device_vector<std::uint32_t> v;
    EXPECT_NO_THROW(thrustlite::sequence(dev, v));
    EXPECT_NO_THROW(thrustlite::to_ordered_inplace(dev, {}));
    EXPECT_TRUE(dev.kernel_log().empty());
}

}  // namespace
