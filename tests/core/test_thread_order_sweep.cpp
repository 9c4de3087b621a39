// Thread-order sweep: every paper kernel must produce identical output when
// the simulator executes each block's lanes forward vs. reverse.  The
// barrier-synchronous contract (no lane reads what another lane wrote in the
// same thread region) makes results order-invariant; a kernel that fails
// this sweep has an intra-region race — the dynamic counterpart of the
// sanitizer's racecheck.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/gpu_array_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/ragged_sort.hpp"
#include "simt/device.hpp"
#include "thrustlite/device_vector.hpp"
#include "thrustlite/radix_sort.hpp"
#include "workload/generators.hpp"

namespace {

/// Runs `fn(device)` under both thread orders and asserts the returned
/// payloads are identical.
template <typename F>
void sweep(F fn) {
    const auto run = [&fn](simt::ThreadOrder order) {
        simt::Device dev(simt::tiny_device(256 << 20));
        dev.set_thread_order(order);
        return fn(dev);
    };
    const auto forward = run(simt::ThreadOrder::Forward);
    const auto reverse = run(simt::ThreadOrder::Reverse);
    EXPECT_EQ(forward, reverse);
}

TEST(ThreadOrderSweep, ArraySortFloat) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_dataset(16, 500);
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
        return ds.values;
    });
}

TEST(ThreadOrderSweep, ArraySortUint32) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_dataset(8, 300);
        std::vector<std::uint32_t> data(ds.values.size());
        for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = static_cast<std::uint32_t>(static_cast<std::int64_t>(ds.values[i] * 1e6f));
        }
        gas::gpu_array_sort(dev, data, ds.num_arrays, ds.array_size);
        return data;
    });
}

TEST(ThreadOrderSweep, ArraySortDescending) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_dataset(8, 300, workload::Distribution::Normal);
        gas::Options opts;
        opts.order = gas::SortOrder::Descending;
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
        return ds.values;
    });
}

TEST(ThreadOrderSweep, ArraySortBinarySearchStrategy) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_dataset(8, 500);
        gas::Options opts;
        opts.strategy = gas::BucketingStrategy::BinarySearch;
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
        return ds.values;
    });
}

TEST(ThreadOrderSweep, SmallArrayFastPath) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_dataset(32, 8);
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
        return ds.values;
    });
}

TEST(ThreadOrderSweep, GlobalScratchFallback) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_dataset(4, 20000);  // 80 KB rows: > 48 KB shared
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
        return ds.values;
    });
}

TEST(ThreadOrderSweep, PairSort) {
    sweep([](simt::Device& dev) {
        auto keys = workload::make_dataset(8, 400, workload::Distribution::Uniform, 7);
        auto vals = workload::make_dataset(8, 400, workload::Distribution::Uniform, 8);
        gas::gpu_pair_sort(dev, keys.values, vals.values, 8, 400);
        auto out = keys.values;
        out.insert(out.end(), vals.values.begin(), vals.values.end());
        return out;
    });
}

TEST(ThreadOrderSweep, RaggedSort) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_ragged_dataset(12, 16, 512);
        std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
        gas::gpu_ragged_sort(dev, ds.values, offsets);
        return ds.values;
    });
}

TEST(ThreadOrderSweep, RaggedPairSort) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_ragged_dataset(10, 16, 256, workload::Distribution::Uniform, 5);
        auto vs = ds.values;
        std::reverse(vs.begin(), vs.end());
        std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
        gas::gpu_ragged_pair_sort(dev, std::span<float>(ds.values), std::span<float>(vs),
                                  offsets);
        auto out = ds.values;
        out.insert(out.end(), vs.begin(), vs.end());
        return out;
    });
}

/// Hybrid phase-3 paths (size-binned scheduling + cooperative bitonic) on
/// the single-hot-bucket adversary, cutovers forced low so the new kernels'
/// every class executes under both lane orders.
gas::Options hybrid_forced() {
    gas::Options opts;
    opts.phase3_small_cutoff = 16;
    opts.phase3_bitonic_cutoff = 64;
    return opts;
}

TEST(ThreadOrderSweep, HybridSkewArraySort) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_dataset(8, 600, workload::Distribution::ZipfHot, 3);
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, hybrid_forced());
        return ds.values;
    });
}

TEST(ThreadOrderSweep, HybridSkewRaggedSort) {
    sweep([](simt::Device& dev) {
        auto ds = workload::make_ragged_dataset(10, 64, 512,
                                                workload::Distribution::ZipfHot, 6);
        std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
        gas::gpu_ragged_sort(dev, ds.values, offsets, hybrid_forced());
        return ds.values;
    });
}

TEST(ThreadOrderSweep, HybridSkewPairSort) {
    sweep([](simt::Device& dev) {
        auto keys = workload::make_dataset(6, 500, workload::Distribution::ZipfHot, 7);
        auto vals = workload::make_dataset(6, 500, workload::Distribution::Uniform, 8);
        gas::gpu_pair_sort(dev, keys.values, vals.values, 6, 500, hybrid_forced());
        auto out = keys.values;
        out.insert(out.end(), vals.values.begin(), vals.values.end());
        return out;
    });
}

std::vector<std::uint32_t> pseudo_u32(std::size_t count, std::uint64_t seed) {
    std::vector<std::uint32_t> v(count);
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
    for (auto& x : v) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x = static_cast<std::uint32_t>(state >> 32);
    }
    return v;
}

TEST(ThreadOrderSweep, RadixSortU32) {
    for (const bool prune : {false, true}) {
        sweep([prune](simt::Device& dev) {
            thrustlite::device_vector<std::uint32_t> keys(dev, pseudo_u32(10001, 1));
            thrustlite::RadixOptions opts;
            opts.prune_passes = prune;
            thrustlite::stable_sort(dev, keys.span(), opts);
            return keys.to_host();
        });
    }
}

TEST(ThreadOrderSweep, RadixSortU64) {
    for (const bool prune : {false, true}) {
        sweep([prune](simt::Device& dev) {
            const auto seed32 = pseudo_u32(8192, 2);
            std::vector<std::uint64_t> host(seed32.size());
            for (std::size_t i = 0; i < host.size(); ++i) {
                host[i] = (static_cast<std::uint64_t>(seed32[i]) << 20) | i;
            }
            thrustlite::device_vector<std::uint64_t> keys(dev, host);
            thrustlite::RadixOptions opts;
            opts.prune_passes = prune;
            thrustlite::stable_sort(dev, keys.span(), opts);
            return keys.to_host();
        });
    }
}

TEST(ThreadOrderSweep, RadixSortByKey) {
    sweep([](simt::Device& dev) {
        const auto host_keys = pseudo_u32(9000, 3);
        std::vector<std::uint32_t> host_vals(host_keys.size());
        for (std::size_t i = 0; i < host_vals.size(); ++i) {
            host_vals[i] = static_cast<std::uint32_t>(i);
        }
        thrustlite::device_vector<std::uint32_t> keys(dev, host_keys);
        thrustlite::device_vector<std::uint32_t> vals(dev, host_vals);
        thrustlite::stable_sort_by_key(dev, keys.span(), vals.span());
        auto out = keys.to_host();
        const auto v = vals.to_host();
        out.insert(out.end(), v.begin(), v.end());
        return out;
    });
}

}  // namespace
