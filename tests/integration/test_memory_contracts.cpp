// Memory contracts: every public entry point must release all device memory
// it allocated (no leaks across the whole API surface), and peak usage must
// never exceed the documented footprint models.

#include <gtest/gtest.h>

#include <numeric>

#include "baseline/sequential_sort.hpp"
#include "baseline/sta_sort.hpp"
#include "core/gpu_array_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/ragged_sort.hpp"
#include "msdata/pipeline.hpp"
#include "msdata/precursor_index.hpp"
#include "msdata/quality.hpp"
#include "msdata/synth.hpp"
#include "ooc/out_of_core.hpp"
#include "thrustlite/radix_sort.hpp"
#include "workload/generators.hpp"

namespace {

TEST(MemoryContracts, EveryHostApiReleasesEverything) {
    simt::Device dev(simt::tiny_device(256 << 20));
    auto ds = workload::make_dataset(30, 500, workload::Distribution::Uniform, 1);
    auto ragged = workload::make_ragged_dataset(20, 10, 300, workload::Distribution::Uniform, 2);
    std::vector<std::uint64_t> offsets(ragged.offsets.begin(), ragged.offsets.end());
    std::vector<float> pair_vals(ds.values.size());
    std::iota(pair_vals.begin(), pair_vals.end(), 0.0f);

    {
        auto copy = ds.values;
        gas::gpu_array_sort(dev, copy, ds.num_arrays, ds.array_size);
        EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "gpu_array_sort leaked";
    }
    {
        auto copy = ds.values;
        sta::sta_sort(dev, copy, ds.num_arrays, ds.array_size);
        EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "sta_sort leaked";
    }
    {
        auto copy = ds.values;
        baseline::sequential_sort(dev, copy, ds.num_arrays, ds.array_size);
        EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "sequential_sort leaked";
    }
    {
        auto values = ragged.values;
        gas::gpu_ragged_sort(dev, values, offsets);
        EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "gpu_ragged_sort leaked";
    }
    {
        auto keys = ds.values;
        auto vals = pair_vals;
        gas::gpu_pair_sort(dev, keys, vals, ds.num_arrays, ds.array_size);
        EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "gpu_pair_sort leaked";
    }
    {
        auto copy = ds.values;
        ooc::out_of_core_sort(dev, copy, ds.num_arrays, ds.array_size);
        EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "out_of_core_sort leaked";
    }
}

TEST(MemoryContracts, MsdataPipelinesReleaseEverything) {
    simt::Device dev(simt::tiny_device(128 << 20));
    msdata::SynthOptions opts;
    opts.min_peaks = 10;
    opts.max_peaks = 100;
    auto set = msdata::generate_spectra(25, opts);

    msdata::sort_spectra_by_intensity(dev, set);
    EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "sort_spectra leaked";
    msdata::reduce_spectra(dev, set, 0.5);
    EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "reduce_spectra leaked";
    (void)msdata::compute_quality(dev, set);
    EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "compute_quality leaked";
    { const msdata::PrecursorIndex index(dev, set); }
    EXPECT_EQ(dev.memory().bytes_in_use(), 0u) << "PrecursorIndex leaked";
}

TEST(MemoryContracts, ThrustliteAlgorithmsReleaseScratch) {
    simt::Device dev(simt::tiny_device(64 << 20));
    simt::DeviceBuffer<std::uint32_t> keys(dev, 50000);
    simt::DeviceBuffer<std::uint32_t> vals(dev, 50000);
    const std::size_t baseline_bytes = dev.memory().bytes_in_use();

    thrustlite::stable_sort_by_key(dev, keys.span(), vals.span());
    EXPECT_EQ(dev.memory().bytes_in_use(), baseline_bytes) << "radix scratch leaked";
}

TEST(MemoryContracts, PeakNeverExceedsFootprintModel) {
    for (const std::size_t n : {100u, 1000u, 4000u}) {
        simt::Device dev(simt::tiny_device(512 << 20));
        auto ds = workload::make_dataset(40, n, workload::Distribution::Uniform, n);
        simt::DeviceBuffer<float> data(dev, ds.values.size());
        simt::copy_to_device(std::span<const float>(ds.values), data);
        gas::sort_arrays_on_device(dev, data, ds.num_arrays, n);
        EXPECT_LE(dev.memory().peak_bytes_in_use(),
                  gas::device_footprint_bytes(ds.num_arrays, n, gas::Options{}, dev.props()))
            << "n=" << n;
    }
}

TEST(MemoryContracts, StaPeakMatchesItsModel) {
    simt::Device dev(simt::tiny_device(512 << 20));
    auto ds = workload::make_dataset(50, 1000, workload::Distribution::Uniform, 9);
    const auto stats = sta::sta_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    EXPECT_LE(stats.peak_device_bytes,
              sta::sta_footprint_bytes(ds.num_arrays, ds.array_size));
}

}  // namespace
