// Pins the fusion invariant gas::serve relies on: a request's rows sorted as
// part of a fused batch are bit-identical to the same rows sorted by a direct
// gas::gpu_*_sort call (see serve/server.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/gpu_array_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/ragged_sort.hpp"
#include "simt/device_buffer.hpp"
#include "workload/generators.hpp"

namespace {

simt::Device make_device() { return simt::Device(simt::tiny_device(256 << 20)); }

TEST(SortBatch, UniformFusedMatchesDirectPerSlice) {
    const std::size_t n = 128;
    auto a = workload::make_dataset(6, n, workload::Distribution::Uniform, 1).values;
    auto b = workload::make_dataset(10, n, workload::Distribution::Normal, 2).values;

    // Direct: each request sorted standalone.
    auto direct_a = a;
    auto direct_b = b;
    {
        auto dev = make_device();
        gas::gpu_array_sort(dev, direct_a, 6, n);
        gas::gpu_array_sort(dev, direct_b, 10, n);
    }

    // Fused: one concatenated launch over both requests.
    auto dev = make_device();
    std::vector<float> fused = a;
    fused.insert(fused.end(), b.begin(), b.end());
    simt::DeviceBuffer<float> buf(dev, fused.size());
    simt::copy_to_device(std::span<const float>(fused), buf);
    gas::sort_arrays_on_device(dev, buf, 16, n);
    simt::copy_to_host(buf, std::span<float>(fused));

    EXPECT_TRUE(std::equal(direct_a.begin(), direct_a.end(), fused.begin()));
    EXPECT_TRUE(std::equal(direct_b.begin(), direct_b.end(), fused.begin() + 6 * n));
}

TEST(SortBatch, RaggedFusedMatchesDirectPerSlice) {
    auto a = workload::make_ragged_dataset(12, 5, 400, workload::Distribution::Uniform, 3);
    auto b = workload::make_ragged_dataset(7, 1, 300, workload::Distribution::Exponential, 4);

    auto direct_a = a.values;
    auto direct_b = b.values;
    {
        auto dev = make_device();
        std::vector<std::uint64_t> oa(a.offsets.begin(), a.offsets.end());
        std::vector<std::uint64_t> ob(b.offsets.begin(), b.offsets.end());
        gas::gpu_ragged_sort(dev, direct_a, oa);
        gas::gpu_ragged_sort(dev, direct_b, ob);
    }

    auto dev = make_device();
    std::vector<float> fused = a.values;
    fused.insert(fused.end(), b.values.begin(), b.values.end());
    std::vector<std::uint64_t> offsets(a.offsets.begin(), a.offsets.end());
    for (std::size_t i = 1; i < b.offsets.size(); ++i) {
        offsets.push_back(a.values.size() + b.offsets[i]);
    }
    simt::DeviceBuffer<float> buf(dev, fused.size());
    simt::copy_to_device(std::span<const float>(fused), buf);
    gas::sort_ragged_on_device(dev, buf, offsets);
    simt::copy_to_host(buf, std::span<float>(fused));

    EXPECT_TRUE(std::equal(direct_a.begin(), direct_a.end(), fused.begin()));
    EXPECT_TRUE(std::equal(direct_b.begin(), direct_b.end(),
                           fused.begin() + static_cast<std::ptrdiff_t>(a.values.size())));
}

TEST(SortBatch, PairsFusedMatchesDirectPerSlice) {
    const std::size_t n = 96;
    // Distinct keys per row: the pair sort leaves tie order unspecified, so
    // bit-identity is only promised for unique keys.
    auto make_pairs = [&](std::size_t num, unsigned seed, std::vector<float>& keys,
                          std::vector<float>& vals) {
        auto ds = workload::make_dataset(num, n, workload::Distribution::Uniform, seed);
        keys = ds.values;
        for (std::size_t a = 0; a < num; ++a) {  // de-duplicate within each row
            for (std::size_t i = 0; i < n; ++i) {
                keys[a * n + i] += static_cast<float>(i) * 1e-3f;
            }
        }
        vals.resize(num * n);
        for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<float>(i);
    };
    std::vector<float> ka, va, kb, vb;
    make_pairs(5, 7, ka, va);
    make_pairs(9, 8, kb, vb);

    auto dka = ka, dva = va, dkb = kb, dvb = vb;
    {
        auto dev = make_device();
        gas::gpu_pair_sort(dev, dka, dva, 5, n);
        gas::gpu_pair_sort(dev, dkb, dvb, 9, n);
    }

    auto dev = make_device();
    std::vector<float> keys = ka, vals = va;
    keys.insert(keys.end(), kb.begin(), kb.end());
    vals.insert(vals.end(), vb.begin(), vb.end());
    simt::DeviceBuffer<float> kbuf(dev, keys.size());
    simt::DeviceBuffer<float> vbuf(dev, vals.size());
    simt::copy_to_device(std::span<const float>(keys), kbuf);
    simt::copy_to_device(std::span<const float>(vals), vbuf);
    gas::sort_pairs_on_device(dev, kbuf, vbuf, 14, n);
    simt::copy_to_host(kbuf, std::span<float>(keys));
    simt::copy_to_host(vbuf, std::span<float>(vals));

    EXPECT_TRUE(std::equal(dka.begin(), dka.end(), keys.begin()));
    EXPECT_TRUE(std::equal(dva.begin(), dva.end(), vals.begin()));
    EXPECT_TRUE(std::equal(dkb.begin(), dkb.end(), keys.begin() + 5 * n));
    EXPECT_TRUE(std::equal(dvb.begin(), dvb.end(), vals.begin() + 5 * n));
}

TEST(SortBatch, RaggedRowFitsSharedMatchesKernelLimit) {
    const auto props = simt::tiny_device(64 << 20);
    EXPECT_TRUE(gas::ragged_row_fits_shared(0, props));
    EXPECT_TRUE(gas::ragged_row_fits_shared(1000, props));
    // 13 000 floats overflow the 48 KB shared budget (cf. RaggedSort.RejectsOversizedArrays).
    EXPECT_FALSE(gas::ragged_row_fits_shared(13000, props));
    // Pairs stage two planes, halving the admissible row.
    const std::size_t edge = 6000;
    EXPECT_TRUE(gas::ragged_row_fits_shared(edge, props, 1));
    EXPECT_FALSE(gas::ragged_row_fits_shared(edge, props, 2));
}

}  // namespace
