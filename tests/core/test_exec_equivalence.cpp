// Execution-mode equivalence sweeps.
//
// 1. ExecEquivalence: every paper kernel must be bit-identical between the
//    scalar reference interpreter and the warp-vectorized fast path
//    (SIMT_EXEC=warp) — identical output bytes AND identical KernelStats
//    (every deterministic field; only wall_ms may differ).
// 2. GraphEquivalence: each workload's output bytes and kernel log must hash
//    to its golden FNV-1a digest, in both exec modes.  A digest changes only
//    when a kernel's bytes or deterministic KernelStats change.
//
// Both sweeps cross both ThreadOrders and sanitizer off/strict, so the warp
// fast paths' tracked fallbacks and the analytic counter charges are
// exercised, and the golden sweep runs on a 2-worker device, so the pool's
// parallel launch path is exercised too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/gpu_array_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/ragged_sort.hpp"
#include "simt/device.hpp"
#include "thrustlite/device_vector.hpp"
#include "thrustlite/radix_sort.hpp"
#include "workload/generators.hpp"

namespace {

/// Compares every deterministic KernelStats field.  wall_ms is the only
/// field allowed to differ between execution modes — it measures host time,
/// which the fast path exists to change.
void expect_logs_equal(const std::vector<simt::KernelStats>& scalar,
                       const std::vector<simt::KernelStats>& warp) {
    ASSERT_EQ(scalar.size(), warp.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
        const auto& s = scalar[i];
        const auto& w = warp[i];
        SCOPED_TRACE("kernel #" + std::to_string(i) + ": " + s.name);
        EXPECT_EQ(s.name, w.name);
        EXPECT_EQ(s.grid_dim, w.grid_dim);
        EXPECT_EQ(s.block_dim, w.block_dim);
        EXPECT_EQ(s.shared_bytes_per_block, w.shared_bytes_per_block);
        EXPECT_EQ(s.totals.ops, w.totals.ops);
        EXPECT_EQ(s.totals.shared_accesses, w.totals.shared_accesses);
        EXPECT_EQ(s.totals.coalesced_bytes, w.totals.coalesced_bytes);
        EXPECT_EQ(s.totals.random_accesses, w.totals.random_accesses);
        EXPECT_EQ(s.traffic_bytes, w.traffic_bytes);
        EXPECT_EQ(s.compute_ms, w.compute_ms);
        EXPECT_EQ(s.memory_ms, w.memory_ms);
        EXPECT_EQ(s.modeled_ms, w.modeled_ms);
        EXPECT_EQ(s.warp_max_cycles, w.warp_max_cycles);
        EXPECT_EQ(s.warp_mean_cycles, w.warp_mean_cycles);
        EXPECT_EQ(s.imbalance, w.imbalance);
    }
}

void configure_sweep_device(simt::Device& dev, simt::ThreadOrder order,
                            simt::ExecMode mode, bool sanitized) {
    dev.set_thread_order(order);
    dev.set_exec_mode(mode);
    if (sanitized) {
        auto opts = simt::sanitize::SanitizeOptions::all();
        opts.strict = true;  // any finding fails the launch loudly
        dev.set_sanitize_options(opts);
    }
}

/// Runs `fn(device)` under scalar and warp execution, for both ThreadOrders
/// and with the sanitizer off and strict-all, asserting identical payload
/// bytes and identical kernel logs.
template <typename F>
void exec_sweep(F fn) {
    for (const auto order : {simt::ThreadOrder::Forward, simt::ThreadOrder::Reverse}) {
        for (const bool sanitized : {false, true}) {
            const auto run = [&](simt::ExecMode mode) {
                simt::Device dev(simt::tiny_device(256 << 20));
                configure_sweep_device(dev, order, mode, sanitized);
                auto payload = fn(dev);
                return std::pair{std::move(payload), dev.kernel_log()};
            };
            SCOPED_TRACE(std::string(order == simt::ThreadOrder::Forward ? "Forward"
                                                                         : "Reverse") +
                         (sanitized ? " sanitized" : " unsanitized"));
            const auto scalar = run(simt::ExecMode::Scalar);
            const auto warp = run(simt::ExecMode::Warp);
            // Bytes, not values: NaN payloads never compare equal.
            ASSERT_EQ(scalar.first.size(), warp.first.size());
            EXPECT_EQ(std::memcmp(scalar.first.data(), warp.first.data(),
                                  scalar.first.size() * sizeof(scalar.first[0])),
                      0);
            expect_logs_equal(scalar.second, warp.second);
        }
    }
}

/// FNV-1a over raw bytes.
struct Fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

/// Digest of one run: the output bytes and every kernel-log entry's
/// integral fields.  The double-valued times are left out so the digest
/// does not depend on the compiler's floating-point contraction;
/// traffic_bytes is a sum of whole byte counts and is hashed as an integer.
template <typename T>
std::uint64_t run_digest(const std::vector<T>& out, const std::vector<simt::KernelStats>& log) {
    Fnv1a f;
    f.u64(out.size());
    f.bytes(out.data(), out.size() * sizeof(T));
    for (const auto& k : log) {
        f.u64(k.name.size());
        f.bytes(k.name.data(), k.name.size());
        f.u64(k.grid_dim);
        f.u64(k.block_dim);
        f.u64(k.shared_bytes_per_block);
        f.u64(k.totals.ops);
        f.u64(k.totals.shared_accesses);
        f.u64(k.totals.coalesced_bytes);
        f.u64(k.totals.random_accesses);
        f.u64(static_cast<std::uint64_t>(k.traffic_bytes));
    }
    return f.h;
}

/// Runs `fn(device)` in both exec modes with the sanitizer off and strict,
/// on devices with an explicit worker count (scratch sizing reads it).  Each
/// configuration folds the Forward and the Reverse ThreadOrder run into one
/// digest — the binary-search bucketing's within-bucket order, and so the
/// phase-3 counters, legitimately depend on lane order — which must equal
/// `golden`, the loop-of-launches digest.
template <typename F>
void golden_sweep(F fn, std::uint64_t golden) {
    constexpr unsigned kWorkers = 2;
    for (const bool sanitized : {false, true}) {
        for (const auto mode : {simt::ExecMode::Scalar, simt::ExecMode::Warp}) {
            Fnv1a f;
            for (const auto order : {simt::ThreadOrder::Forward, simt::ThreadOrder::Reverse}) {
                simt::Device dev(simt::tiny_device(256 << 20));
                configure_sweep_device(dev, order, mode, sanitized);
                dev.set_host_workers(kWorkers);
                const auto payload = fn(dev);
                f.u64(run_digest(payload, dev.kernel_log()));
            }
            SCOPED_TRACE(std::string(sanitized ? "sanitized" : "unsanitized") +
                         (mode == simt::ExecMode::Warp ? " warp" : " scalar"));
            EXPECT_EQ(f.h, golden);
        }
    }
}

// --- the 17 sweep workloads, shared by both sweeps -------------------------

std::vector<float> wl_array_sort_verify(simt::Device& dev) {
    auto ds = workload::make_dataset(16, 500);
    gas::Options opts;
    opts.verify_output = true;  // covers the gas.verify* streaming kernels
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    return ds.values;
}

std::vector<std::uint32_t> wl_array_sort_u32(simt::Device& dev) {
    auto ds = workload::make_dataset(8, 300);
    std::vector<std::uint32_t> data(ds.values.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint32_t>(static_cast<std::int64_t>(ds.values[i] * 1e6f));
    }
    gas::Options opts;
    gas::gpu_array_sort(dev, data, ds.num_arrays, ds.array_size, opts);
    return data;
}

std::vector<float> wl_array_sort_descending(simt::Device& dev) {
    auto ds = workload::make_dataset(8, 300, workload::Distribution::Normal);
    gas::Options opts;
    opts.order = gas::SortOrder::Descending;
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    return ds.values;
}

std::vector<float> wl_array_sort_binary_search(simt::Device& dev) {
    auto ds = workload::make_dataset(8, 500);
    gas::Options opts;
    opts.strategy = gas::BucketingStrategy::BinarySearch;
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    return ds.values;
}

std::vector<float> wl_array_sort_tpb(simt::Device& dev) {
    // tpb > 1 strides each bucket over several lanes — the warp fast path
    // must take its reference fallback and still match exactly.
    auto ds = workload::make_dataset(8, 500);
    gas::Options opts;
    opts.threads_per_bucket = 2;
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    return ds.values;
}

std::vector<float> wl_small_array(simt::Device& dev) {
    auto ds = workload::make_dataset(32, 8);
    gas::Options opts;
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    return ds.values;
}

std::vector<float> wl_global_scratch(simt::Device& dev) {
    auto ds = workload::make_dataset(2, 20000);  // 80 KB rows: > 48 KB shared
    gas::Options opts;
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    return ds.values;
}

std::vector<float> wl_pair_sort(simt::Device& dev) {
    auto keys = workload::make_dataset(8, 400, workload::Distribution::Uniform, 7);
    auto vals = workload::make_dataset(8, 400, workload::Distribution::Uniform, 8);
    gas::Options opts;
    gas::gpu_pair_sort(dev, keys.values, vals.values, 8, 400, opts);
    auto out = keys.values;
    out.insert(out.end(), vals.values.begin(), vals.values.end());
    return out;
}

std::vector<float> wl_ragged_sort(simt::Device& dev) {
    auto ds = workload::make_ragged_dataset(12, 16, 512);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::Options opts;
    gas::gpu_ragged_sort(dev, ds.values, offsets, opts);
    return ds.values;
}

std::vector<float> wl_ragged_pair_sort(simt::Device& dev) {
    auto ds =
        workload::make_ragged_dataset(10, 16, 256, workload::Distribution::Uniform, 5);
    auto vs = ds.values;
    std::reverse(vs.begin(), vs.end());
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::Options opts;
    gas::gpu_ragged_pair_sort(dev, std::span<float>(ds.values), std::span<float>(vs),
                              offsets, opts);
    auto out = ds.values;
    out.insert(out.end(), vs.begin(), vs.end());
    return out;
}

std::vector<float> wl_ragged_sort_verify(simt::Device& dev) {
    auto ds = workload::make_ragged_dataset(12, 16, 512, workload::Distribution::Normal, 9);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::Options opts;
    opts.verify_output = true;  // covers gas.verify_csr
    gas::gpu_ragged_sort(dev, ds.values, offsets, opts);
    return ds.values;
}

std::vector<double> wl_ragged_pair_sort_double_descending(simt::Device& dev) {
    auto ds =
        workload::make_ragged_dataset(10, 16, 256, workload::Distribution::Uniform, 11);
    std::vector<double> keys(ds.values.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        // Sub-float-precision offsets make the double keys matter.
        keys[i] = static_cast<double>(ds.values[i]) + 1e-12 * static_cast<double>(i);
    }
    std::vector<double> vals(keys.rbegin(), keys.rend());
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::Options opts;
    opts.order = gas::SortOrder::Descending;
    opts.verify_output = true;  // covers gas.verify_pairs_csr
    gas::gpu_ragged_pair_sort(dev, std::span<double>(keys), std::span<double>(vals), offsets,
                              opts);
    keys.insert(keys.end(), vals.begin(), vals.end());
    return keys;
}

gas::Options hybrid_forced() {
    gas::Options opts;
    opts.phase3_small_cutoff = 16;
    opts.phase3_bitonic_cutoff = 64;
    return opts;
}

std::vector<float> wl_hybrid_skew_array(simt::Device& dev) {
    auto ds = workload::make_dataset(8, 600, workload::Distribution::ZipfHot, 3);
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size,
                        hybrid_forced());
    return ds.values;
}

std::vector<float> wl_hybrid_skew_ragged(simt::Device& dev) {
    auto ds = workload::make_ragged_dataset(10, 64, 512, workload::Distribution::ZipfHot, 6);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::gpu_ragged_sort(dev, ds.values, offsets, hybrid_forced());
    return ds.values;
}

std::vector<float> wl_hybrid_skew_pair(simt::Device& dev) {
    auto keys = workload::make_dataset(6, 500, workload::Distribution::ZipfHot, 7);
    auto vals = workload::make_dataset(6, 500, workload::Distribution::Uniform, 8);
    gas::gpu_pair_sort(dev, keys.values, vals.values, 6, 500, hybrid_forced());
    auto out = keys.values;
    out.insert(out.end(), vals.values.begin(), vals.values.end());
    return out;
}

// --- one-pass phase 2 edge cases (ExecEquivalence only) -------------------

std::vector<float> wl_array_sort_nan(simt::Device& dev) {
    // NaN keys belong to no bucket: both modes must drop them identically.
    // They sit off the phase-1 sampling stride (n / sample = 10 here), so
    // the splitters stay monotone.
    auto ds = workload::make_dataset(6, 500, workload::Distribution::Uniform, 13);
    for (std::size_t a = 0; a < ds.num_arrays; a += 2) {
        for (std::size_t i = 3; i < ds.array_size; i += 70) {
            ds.values[a * ds.array_size + i] = std::numeric_limits<float>::quiet_NaN();
        }
    }
    gas::Options opts;
    opts.validate = false;  // the lost NaNs would fail validation
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    return ds.values;
}

std::vector<float> wl_array_sort_few_distinct(simt::Device& dev) {
    // Eight distinct values: most keys equal a splitter.
    auto ds = workload::make_dataset(6, 700, workload::Distribution::FewDistinct, 17);
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, gas::Options{});
    return ds.values;
}

std::vector<float> wl_ragged_sort_few_distinct(simt::Device& dev) {
    auto ds =
        workload::make_ragged_dataset(10, 32, 1500, workload::Distribution::FewDistinct, 19);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::gpu_ragged_sort(dev, ds.values, offsets, gas::Options{});
    return ds.values;
}

std::vector<float> wl_array_sort_partial_warp(simt::Device& dev) {
    // n = 1340 gives p = 67 buckets: two full warps and one of 3 lanes.
    auto ds = workload::make_dataset(4, 1340, workload::Distribution::Uniform, 23);
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, gas::Options{});
    return ds.values;
}

/// Rows of very different lengths: the block is sized for the longest row
/// (p = 100, four warps), so short rows leave whole warps idle.
std::vector<std::uint64_t> mixed_row_offsets() {
    const std::size_t lengths[] = {2000, 5, 40, 0, 700, 1, 1300, 33, 650, 64};
    std::vector<std::uint64_t> offsets{0};
    for (const std::size_t n : lengths) offsets.push_back(offsets.back() + n);
    return offsets;
}

std::vector<float> wl_ragged_sort_idle_warps(simt::Device& dev) {
    const auto offsets = mixed_row_offsets();
    auto keys = workload::make_values(offsets.back(), workload::Distribution::Uniform, 29);
    gas::gpu_ragged_sort(dev, keys, offsets, gas::Options{});
    return keys;
}

std::vector<float> wl_ragged_pair_sort_idle_warps(simt::Device& dev) {
    const auto offsets = mixed_row_offsets();
    auto keys = workload::make_values(offsets.back(), workload::Distribution::Normal, 31);
    auto vals = workload::make_values(offsets.back(), workload::Distribution::Uniform, 37);
    gas::gpu_ragged_pair_sort(dev, std::span<float>(keys), std::span<float>(vals), offsets,
                              gas::Options{});
    keys.insert(keys.end(), vals.begin(), vals.end());
    return keys;
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

template <bool kPrune>
std::vector<std::uint32_t> wl_radix_u32(simt::Device& dev) {
    thrustlite::device_vector<std::uint32_t> keys(dev, pseudo_u32(10001, 1));
    thrustlite::RadixOptions opts;
    opts.prune_passes = kPrune;
    thrustlite::stable_sort(dev, keys.span(), opts);
    return keys.to_host();
}

std::vector<std::uint32_t> wl_radix_by_key(simt::Device& dev) {
    const auto host_keys = pseudo_u32(9000, 3);
    std::vector<std::uint32_t> host_vals(host_keys.size());
    for (std::size_t i = 0; i < host_vals.size(); ++i) {
        host_vals[i] = static_cast<std::uint32_t>(i);
    }
    thrustlite::device_vector<std::uint32_t> keys(dev, host_keys);
    thrustlite::device_vector<std::uint32_t> vals(dev, host_vals);
    thrustlite::RadixOptions opts;
    thrustlite::stable_sort_by_key(dev, keys.span(), vals.span(), opts);
    auto out = keys.to_host();
    const auto v = vals.to_host();
    out.insert(out.end(), v.begin(), v.end());
    return out;
}

// --- scalar vs warp --------------------------------------------------------

TEST(ExecEquivalence, ArraySortFloatWithVerify) { exec_sweep(wl_array_sort_verify); }
TEST(ExecEquivalence, ArraySortUint32) { exec_sweep(wl_array_sort_u32); }
TEST(ExecEquivalence, ArraySortDescending) { exec_sweep(wl_array_sort_descending); }
TEST(ExecEquivalence, ArraySortBinarySearchStrategy) {
    exec_sweep(wl_array_sort_binary_search);
}
TEST(ExecEquivalence, ArraySortThreadsPerBucket) { exec_sweep(wl_array_sort_tpb); }
TEST(ExecEquivalence, SmallArrayFastPath) { exec_sweep(wl_small_array); }
TEST(ExecEquivalence, GlobalScratchFallback) { exec_sweep(wl_global_scratch); }
TEST(ExecEquivalence, PairSort) { exec_sweep(wl_pair_sort); }
TEST(ExecEquivalence, RaggedSort) { exec_sweep(wl_ragged_sort); }
TEST(ExecEquivalence, RaggedPairSort) { exec_sweep(wl_ragged_pair_sort); }
TEST(ExecEquivalence, RaggedSortWithVerify) { exec_sweep(wl_ragged_sort_verify); }
TEST(ExecEquivalence, RaggedPairSortDoubleDescending) {
    exec_sweep(wl_ragged_pair_sort_double_descending);
}
TEST(ExecEquivalence, HybridSkewArraySort) { exec_sweep(wl_hybrid_skew_array); }
TEST(ExecEquivalence, HybridSkewRaggedSort) { exec_sweep(wl_hybrid_skew_ragged); }
TEST(ExecEquivalence, HybridSkewPairSort) { exec_sweep(wl_hybrid_skew_pair); }
TEST(ExecEquivalence, ArraySortNaNKeysDropped) { exec_sweep(wl_array_sort_nan); }
TEST(ExecEquivalence, ArraySortFewDistinct) { exec_sweep(wl_array_sort_few_distinct); }
TEST(ExecEquivalence, RaggedSortFewDistinct) { exec_sweep(wl_ragged_sort_few_distinct); }
TEST(ExecEquivalence, ArraySortPartialLastWarp) { exec_sweep(wl_array_sort_partial_warp); }
TEST(ExecEquivalence, RaggedSortIdleWarps) { exec_sweep(wl_ragged_sort_idle_warps); }
TEST(ExecEquivalence, RaggedPairSortIdleWarps) { exec_sweep(wl_ragged_pair_sort_idle_warps); }
TEST(ExecEquivalence, RadixSortU32) {
    exec_sweep(wl_radix_u32<false>);
    exec_sweep(wl_radix_u32<true>);
}
TEST(ExecEquivalence, RadixSortByKey) { exec_sweep(wl_radix_by_key); }

// --- graph output vs the loop-of-launches golden digests -------------------

TEST(GraphEquivalence, ArraySortFloatWithVerify) {
    golden_sweep(wl_array_sort_verify, 0x16a13761790f05f5ull);
}
TEST(GraphEquivalence, ArraySortUint32) {
    golden_sweep(wl_array_sort_u32, 0xa8f3c8534a00fea5ull);
}
TEST(GraphEquivalence, ArraySortDescending) {
    golden_sweep(wl_array_sort_descending, 0x4f874b967370bfc9ull);
}
TEST(GraphEquivalence, ArraySortBinarySearchStrategy) {
    golden_sweep(wl_array_sort_binary_search, 0x36ccda7491adf0fbull);
}
TEST(GraphEquivalence, ArraySortThreadsPerBucket) {
    golden_sweep(wl_array_sort_tpb, 0xe988b199249392d9ull);
}
TEST(GraphEquivalence, SmallArrayFastPath) {
    golden_sweep(wl_small_array, 0x19421cb5685e255dull);
}
TEST(GraphEquivalence, GlobalScratchFallback) {
    golden_sweep(wl_global_scratch, 0xced69872a9ca7711ull);
}
TEST(GraphEquivalence, PairSort) { golden_sweep(wl_pair_sort, 0x985a517d4d30636dull); }
TEST(GraphEquivalence, RaggedSort) { golden_sweep(wl_ragged_sort, 0x479eef9ebce1e649ull); }
TEST(GraphEquivalence, RaggedPairSort) {
    golden_sweep(wl_ragged_pair_sort, 0xa9e6f1c843daab59ull);
}
TEST(GraphEquivalence, RaggedSortWithVerify) {
    golden_sweep(wl_ragged_sort_verify, 0xd4532550e2b649c5ull);
}
TEST(GraphEquivalence, RaggedPairSortDoubleDescending) {
    golden_sweep(wl_ragged_pair_sort_double_descending, 0x0110ffab5afebed9ull);
}
TEST(GraphEquivalence, HybridSkewArraySort) {
    golden_sweep(wl_hybrid_skew_array, 0x2def1f21057fc591ull);
}
TEST(GraphEquivalence, HybridSkewRaggedSort) {
    golden_sweep(wl_hybrid_skew_ragged, 0x1ea75e3771fe018dull);
}
TEST(GraphEquivalence, HybridSkewPairSort) {
    golden_sweep(wl_hybrid_skew_pair, 0xaba691d41ba908d5ull);
}
TEST(GraphEquivalence, RadixSortU32) {
    // Both pruning modes on one device, one digest.
    golden_sweep(
        [](simt::Device& dev) {
            auto out = wl_radix_u32<false>(dev);
            const auto pruned = wl_radix_u32<true>(dev);
            out.insert(out.end(), pruned.begin(), pruned.end());
            return out;
        },
        0xa29b76c2d2aa4465ull);
}
TEST(GraphEquivalence, RadixSortByKey) {
    golden_sweep(wl_radix_by_key, 0x33131205c34987a5ull);
}

}  // namespace
