// Hybrid skew-aware phase-3 sorter (DESIGN.md section 8): bitonic-network
// property tests against the insertion-sort reference, binary-insertion
// equivalence, cutover autotuning, and end-to-end equality / speedup /
// worker-invariance checks on the single-hot-bucket adversary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/bitonic.hpp"
#include "core/gpu_array_sort.hpp"
#include "core/insertion_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/phases.hpp"
#include "core/plan.hpp"
#include "core/ragged_sort.hpp"
#include "core/tune.hpp"
#include "core/validate.hpp"
#include "simt/device.hpp"
#include "workload/generators.hpp"

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Duplicate-heavy NaN-free float data (integers scaled, so comparisons are
/// exact and equal keys are common — the regime phase 3 actually sees).
std::vector<float> bucket_data(std::size_t k, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> pick(0, static_cast<int>(k / 3) + 1);
    std::vector<float> v(k);
    for (auto& x : v) x = static_cast<float>(pick(rng)) * 0.5f;
    return v;
}

gas::Options forced_hybrid() {
    gas::Options opts;
    opts.phase3_small_cutoff = 16;  // force the mid + cooperative classes
    opts.phase3_bitonic_cutoff = 64;
    return opts;
}

TEST(BitonicSchedule, PaddingAndStepCounts) {
    using gas::detail::bitonic_padded_size;
    using gas::detail::bitonic_step_count;
    EXPECT_EQ(bitonic_padded_size(0), 1u);
    EXPECT_EQ(bitonic_padded_size(1), 1u);
    EXPECT_EQ(bitonic_padded_size(2), 2u);
    EXPECT_EQ(bitonic_padded_size(129), 256u);
    EXPECT_EQ(bitonic_padded_size(256), 256u);
    EXPECT_EQ(bitonic_step_count(1), 0u);
    EXPECT_EQ(bitonic_step_count(2), 1u);
    EXPECT_EQ(bitonic_step_count(256), 36u);  // L = 8 -> L(L+1)/2
}

TEST(BitonicNetwork, MatchesInsertionSortForEveryBucketSize) {
    for (std::size_t k = 1; k <= 256; ++k) {
        const auto data = bucket_data(k, k * 7919 + 1);
        const std::size_t m = gas::detail::bitonic_padded_size(k);

        std::vector<float> padded(data);
        padded.resize(m, kInf);  // physical high-sentinel padding
        gas::detail::bitonic_sort_network(std::span<float>(padded));

        std::vector<float> ref(data);
        gas::insertion_sort_seq(std::span<float>(ref));

        ASSERT_TRUE(std::equal(ref.begin(), ref.end(), padded.begin()))
            << "bitonic output differs from insertion sort at k = " << k;
        for (std::size_t e = k; e < m; ++e) {
            ASSERT_EQ(padded[e], kInf) << "padding slot " << e << " corrupted at k = " << k;
        }
    }
}

TEST(BitonicNetwork, StaggerRuleTilesAllBanksForAnyContiguousPairWindow) {
    // The lockstep bank model co-issues the t-th shared access of each lane;
    // a warp's lanes hold 32 contiguous pair indices (aligned or not, since
    // blocks need not be a multiple of 32 wide).  Both co-issue slots of the
    // compare-exchange must then touch 32 distinct banks.
    for (const std::uint32_t d : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        for (std::uint32_t start = 0; start < 96; ++start) {
            std::set<std::uint32_t> first_banks;
            std::set<std::uint32_t> second_banks;
            for (std::uint32_t pr = start; pr < start + 32; ++pr) {
                const auto [i, j] = gas::detail::bitonic_pair(pr, d);
                const bool j_first = gas::detail::bitonic_swap_first(pr, d);
                first_banks.insert((j_first ? j : i) % 32);
                second_banks.insert((j_first ? i : j) % 32);
            }
            ASSERT_EQ(first_banks.size(), 32u) << "d = " << d << " start = " << start;
            ASSERT_EQ(second_banks.size(), 32u) << "d = " << d << " start = " << start;
        }
    }
}

TEST(BinaryInsertion, BitIdenticalToPlainInsertion) {
    for (std::size_t k = 0; k <= 200; k += 7) {
        auto plain = bucket_data(k, k + 31);
        auto binary = plain;
        const auto pc = gas::insertion_sort_seq(std::span<float>(plain));
        const auto bc = gas::binary_insertion_sort_seq(std::span<float>(binary));
        ASSERT_EQ(plain, binary) << "k = " << k;
        EXPECT_EQ(pc.moves, bc.moves) << "k = " << k;  // same shifts, fewer probes
        if (k >= 64) {
            EXPECT_LT(bc.compares, pc.compares) << "k = " << k;
        }
    }
}

TEST(BinaryInsertion, PairsVariantMatchesPlainPairs) {
    for (std::size_t k = 1; k <= 150; k += 11) {
        const auto keys = bucket_data(k, k + 77);
        std::vector<float> vals(k);
        for (std::size_t i = 0; i < k; ++i) vals[i] = static_cast<float>(i);
        auto k1 = keys;
        auto v1 = vals;
        auto k2 = keys;
        auto v2 = vals;
        gas::insertion_sort_pairs_seq(std::span<float>(k1), std::span<float>(v1));
        gas::binary_insertion_sort_pairs_seq(std::span<float>(k2), std::span<float>(v2));
        ASSERT_EQ(k1, k2) << "k = " << k;
        ASSERT_EQ(v1, v2) << "k = " << k;  // both stable -> same value order
    }
}

TEST(Tune, K40cAutotuneMatchesOptionDefaults) {
    const auto t = gas::tune_sort_phase(simt::tesla_k40c());
    const gas::Options defaults;
    EXPECT_EQ(t.small_cutoff, defaults.phase3_small_cutoff);
    EXPECT_EQ(t.bitonic_cutoff, defaults.phase3_bitonic_cutoff);
    EXPECT_EQ(t.small_cutoff, 120u);  // 6x the 20-element bucket target
    EXPECT_EQ(t.bitonic_cutoff, 240u);
    // The model itself must prefer each algorithm in its class.
    const auto props = simt::tesla_k40c();
    EXPECT_LT(gas::modeled_binary_insertion_cycles(512, props),
              gas::modeled_insertion_cycles(512, props));
    EXPECT_LT(gas::modeled_bitonic_cycles(2048, 32, props),
              gas::modeled_binary_insertion_cycles(2048, props));
}

TEST(HybridPhase3, MatchesBaselineOnEveryDistribution) {
    for (const auto dist : workload::all_distributions()) {
        const auto ds = workload::make_dataset(6, 400, dist, 9);

        auto base = ds.values;
        simt::Device dev_base(simt::tiny_device(256 << 20));
        gas::Options off;
        off.hybrid_phase3 = false;
        gas::gpu_array_sort(dev_base, base, ds.num_arrays, ds.array_size, off);

        auto hyb = ds.values;
        simt::Device dev_hyb(simt::tiny_device(256 << 20));
        gas::gpu_array_sort(dev_hyb, hyb, ds.num_arrays, ds.array_size, forced_hybrid());

        ASSERT_EQ(base, hyb) << "distribution " << workload::to_string(dist);
        EXPECT_TRUE(gas::all_arrays_sorted(hyb, ds.num_arrays, ds.array_size));
    }
}

TEST(HybridPhase3, ZipfHotSpeedupAndLaneBalance) {
    const auto ds = workload::make_dataset(32, 1000, workload::Distribution::ZipfHot, 4);

    auto base = ds.values;
    simt::Device dev_base(simt::tiny_device(256 << 20));
    gas::Options off;
    off.hybrid_phase3 = false;
    const auto sb = gas::gpu_array_sort(dev_base, base, ds.num_arrays, ds.array_size, off);

    auto hyb = ds.values;
    simt::Device dev_hyb(simt::tiny_device(256 << 20));
    const auto sh =
        gas::gpu_array_sort(dev_hyb, hyb, ds.num_arrays, ds.array_size, gas::Options{});

    ASSERT_EQ(base, hyb);
    // Acceptance gate: modeled phase-3 makespan at least 3x better on the
    // single-hot-bucket adversary, and the divergence metric must show the
    // lanes actually rebalanced.
    EXPECT_GE(sb.phase3.modeled_ms / sh.phase3.modeled_ms, 3.0);
    EXPECT_GT(sb.phase3_imbalance, 5.0);
    EXPECT_LT(sh.phase3_imbalance, sb.phase3_imbalance / 2.0);
}

TEST(HybridPhase3, DisabledFlagIsBitIdenticalRegardlessOfCutoffs) {
    // With hybrid_phase3 off the kernel must be the paper's phase 3
    // bit-for-bit: the cutover knobs may not leak into any modeled stat.
    const auto ds = workload::make_dataset(8, 600, workload::Distribution::ZipfHot, 5);
    const auto run = [&](std::size_t small, std::size_t bitonic) {
        auto values = ds.values;
        simt::Device dev(simt::tiny_device(256 << 20));
        gas::Options opts;
        opts.hybrid_phase3 = false;
        opts.phase3_small_cutoff = small;
        opts.phase3_bitonic_cutoff = bitonic;
        gas::gpu_array_sort(dev, values, ds.num_arrays, ds.array_size, opts);
        return std::vector<simt::KernelStats>(dev.kernel_log().begin(),
                                              dev.kernel_log().end());
    };
    const auto a = run(1, 2);
    const auto b = run(400, 800);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].totals.ops, b[i].totals.ops);
        EXPECT_EQ(a[i].totals.shared_accesses, b[i].totals.shared_accesses);
        EXPECT_EQ(a[i].totals.coalesced_bytes, b[i].totals.coalesced_bytes);
        EXPECT_EQ(a[i].totals.random_accesses, b[i].totals.random_accesses);
        EXPECT_EQ(a[i].modeled_ms, b[i].modeled_ms);
        EXPECT_EQ(a[i].imbalance, b[i].imbalance);
    }
}

TEST(HybridPhase3, WorkerCountInvariance) {
    const auto ds = workload::make_dataset(8, 800, workload::Distribution::ZipfHot, 6);
    const auto run = [&](unsigned workers) {
        auto values = ds.values;
        simt::Device dev(simt::tiny_device(256 << 20), simt::DeviceMemory::Mode::Backed,
                         workers);
        const auto s =
            gas::gpu_array_sort(dev, values, ds.num_arrays, ds.array_size, forced_hybrid());
        return std::pair{values, std::pair{s.phase3.modeled_ms, s.phase3_imbalance}};
    };
    const auto one = run(1);
    const auto three = run(3);
    EXPECT_EQ(one.first, three.first);
    EXPECT_EQ(one.second.first, three.second.first);    // modeled phase-3 ms
    EXPECT_EQ(one.second.second, three.second.second);  // imbalance metric
}

TEST(HybridPhase3, PairSortKeepsPairsTogetherThroughBitonicPath) {
    const std::size_t num_arrays = 4;
    const std::size_t n = 600;
    auto keys = workload::make_dataset(num_arrays, n, workload::Distribution::ZipfHot, 7);
    std::vector<float> vals(num_arrays * n);
    for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<float>(i);

    std::vector<std::multiset<std::pair<float, float>>> before(num_arrays);
    for (std::size_t a = 0; a < num_arrays; ++a) {
        for (std::size_t i = 0; i < n; ++i) {
            before[a].insert({keys.values[a * n + i], vals[a * n + i]});
        }
    }

    simt::Device dev(simt::tiny_device(256 << 20));
    gas::gpu_pair_sort(dev, std::span<float>(keys.values), std::span<float>(vals),
                       num_arrays, n, forced_hybrid());

    EXPECT_TRUE(gas::all_arrays_sorted(keys.values, num_arrays, n));
    for (std::size_t a = 0; a < num_arrays; ++a) {
        std::multiset<std::pair<float, float>> after;
        for (std::size_t i = 0; i < n; ++i) {
            after.insert({keys.values[a * n + i], vals[a * n + i]});
        }
        ASSERT_EQ(before[a], after) << "array " << a << " lost (key, value) pairing";
    }
}

TEST(HybridPhase3, RaggedSkewMatchesBaseline) {
    const auto ds =
        workload::make_ragged_dataset(10, 64, 600, workload::Distribution::ZipfHot, 8);
    const std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());

    auto base = ds.values;
    simt::Device dev_base(simt::tiny_device(256 << 20));
    gas::Options off;
    off.hybrid_phase3 = false;
    gas::gpu_ragged_sort(dev_base, base, offsets, off);

    auto hyb = ds.values;
    simt::Device dev_hyb(simt::tiny_device(256 << 20));
    gas::gpu_ragged_sort(dev_hyb, hyb, offsets, forced_hybrid());

    EXPECT_EQ(base, hyb);
    for (std::size_t a = 0; a + 1 < offsets.size(); ++a) {
        EXPECT_TRUE(std::is_sorted(hyb.begin() + static_cast<std::ptrdiff_t>(offsets[a]),
                                   hyb.begin() + static_cast<std::ptrdiff_t>(offsets[a + 1])));
    }
}

#ifndef NDEBUG
TEST(HybridPhase3, CorruptBucketTableThrowsInDebugBuilds) {
    // The debug guard fires before any bucket is indexed: a Z row that does
    // not sum to n is a phase-2 contract violation.
    simt::Device dev(simt::tiny_device(64 << 20));
    const auto ds = workload::make_dataset(1, 400);
    simt::DeviceBuffer<float> data(dev, ds.values.size());
    simt::copy_to_device(std::span<const float>(ds.values), data);
    const gas::Options opts;
    const gas::SortPlan plan = gas::make_plan(ds.array_size, opts, dev.props());
    ASSERT_GT(plan.buckets, 1u);
    std::vector<std::uint32_t> z(plan.buckets, 1);  // sums to p, not n
    simt::DeviceBuffer<std::uint32_t> zbuf(dev, z.size());
    simt::copy_to_device(std::span<const std::uint32_t>(z), zbuf);
    const auto spec =
        gas::detail::sort_phase_spec<float>(dev.props(), data.span(), 1, plan, zbuf.span(), opts);
    EXPECT_THROW(dev.launch(spec.cfg, spec.body), std::logic_error);
}
#endif

}  // namespace
