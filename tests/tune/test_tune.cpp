// gas::tune test suite (ISSUE 9): the adaptive autotuner's three layers and
// their serve wiring.
//
// 1. Sketch determinism: the sketch is a pure function of the input bytes,
//    so it must be bit-identical across ExecMode (scalar/warp), host worker
//    counts and ThreadOrders — the axes the execution substrate varies.
// 2. Planner properties: regime classification, cost-model monotonicity,
//    and every candidate plan sorting correctly.
// 3. Controller: convergence on a stationary stream, hysteresis against
//    flapping, and equal-mass key bands from the aggregate sketch.
// 4. auto_tune=off bit-identity: with the flag off (at either level) the
//    direct path, tuned_sort, and the server must reproduce the pre-tune
//    bytes AND kernel log bit-for-bit, across the 15 equivalence workloads.
// 5. Serve integration: tuned server correctness, the "tune" stats block,
//    and fleet key bands.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/gpu_array_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/ragged_sort.hpp"
#include "core/resilient.hpp"
#include "fleet/fleet.hpp"
#include "serve/server.hpp"
#include "simt/device.hpp"
#include "thrustlite/device_vector.hpp"
#include "thrustlite/radix_sort.hpp"
#include "tune/controller.hpp"
#include "tune/planner.hpp"
#include "tune/sketch.hpp"
#include "workload/generators.hpp"

namespace {

using workload::Distribution;

/// Compares every deterministic KernelStats field (wall_ms measures host
/// time and is the only field allowed to differ).
void expect_logs_equal(const std::vector<simt::KernelStats>& a,
                       const std::vector<simt::KernelStats>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("kernel #" + std::to_string(i) + ": " + a[i].name);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].grid_dim, b[i].grid_dim);
        EXPECT_EQ(a[i].block_dim, b[i].block_dim);
        EXPECT_EQ(a[i].shared_bytes_per_block, b[i].shared_bytes_per_block);
        EXPECT_EQ(a[i].totals.ops, b[i].totals.ops);
        EXPECT_EQ(a[i].totals.shared_accesses, b[i].totals.shared_accesses);
        EXPECT_EQ(a[i].totals.coalesced_bytes, b[i].totals.coalesced_bytes);
        EXPECT_EQ(a[i].totals.random_accesses, b[i].totals.random_accesses);
        EXPECT_EQ(a[i].traffic_bytes, b[i].traffic_bytes);
        EXPECT_EQ(a[i].modeled_ms, b[i].modeled_ms);
    }
}

bool rows_sorted(const std::vector<float>& v, std::size_t rows, std::size_t n) {
    for (std::size_t a = 0; a < rows; ++a) {
        if (!std::is_sorted(v.begin() + static_cast<std::ptrdiff_t>(a * n),
                            v.begin() + static_cast<std::ptrdiff_t>((a + 1) * n))) {
            return false;
        }
    }
    return true;
}

/// Output must be the per-row sorted permutation of the input.
void expect_row_permutation(const std::vector<float>& input,
                            const std::vector<float>& output, std::size_t rows,
                            std::size_t n) {
    ASSERT_EQ(input.size(), output.size());
    for (std::size_t a = 0; a < rows; ++a) {
        std::vector<float> want(input.begin() + static_cast<std::ptrdiff_t>(a * n),
                                input.begin() + static_cast<std::ptrdiff_t>((a + 1) * n));
        std::sort(want.begin(), want.end());
        const std::vector<float> got(
            output.begin() + static_cast<std::ptrdiff_t>(a * n),
            output.begin() + static_cast<std::ptrdiff_t>((a + 1) * n));
        ASSERT_EQ(want, got) << "row " << a;
    }
}

gas::tune::Sketch sketch_of(Distribution dist, std::size_t rows = 8,
                            std::size_t n = 2000, std::uint64_t seed = 42) {
    const auto ds = workload::make_dataset(rows, n, dist, seed);
    return gas::tune::sketch_values(ds.values, rows, n);
}

// --- 1. sketch determinism across the execution axes -----------------------

TEST(Sketch, DeterministicAcrossExecModeWorkersAndThreadOrder) {
    const auto ds = workload::make_dataset(8, 1500, Distribution::ZipfHot, 9);
    struct Observed {
        gas::tune::Sketch sketch;
        std::string candidate;
        std::vector<float> bytes;
    };
    std::vector<Observed> runs;
    for (const auto mode : {simt::ExecMode::Scalar, simt::ExecMode::Warp}) {
        for (const unsigned workers : {1u, 4u}) {
            for (const auto order :
                 {simt::ThreadOrder::Forward, simt::ThreadOrder::Reverse}) {
                simt::Device dev(simt::tiny_device(256 << 20));
                dev.set_exec_mode(mode);
                dev.set_host_workers(workers);
                dev.set_thread_order(order);
                auto values = ds.values;
                const auto r = gas::tune::tuned_sort(dev, values, 8, 1500, {});
                runs.push_back({r.sketch, r.plan.candidate, std::move(values)});
            }
        }
    }
    const auto& ref = runs.front();
    for (std::size_t i = 1; i < runs.size(); ++i) {
        SCOPED_TRACE("config #" + std::to_string(i));
        EXPECT_EQ(ref.sketch.histogram, runs[i].sketch.histogram);
        EXPECT_EQ(ref.sketch.min_key, runs[i].sketch.min_key);
        EXPECT_EQ(ref.sketch.max_key, runs[i].sketch.max_key);
        EXPECT_EQ(ref.sketch.sampled, runs[i].sketch.sampled);
        EXPECT_EQ(ref.sketch.distinct_ratio, runs[i].sketch.distinct_ratio);
        EXPECT_EQ(ref.sketch.distinct_keys, runs[i].sketch.distinct_keys);
        EXPECT_EQ(ref.sketch.sortedness, runs[i].sketch.sortedness);
        EXPECT_EQ(ref.candidate, runs[i].candidate);
        EXPECT_EQ(ref.bytes, runs[i].bytes);
    }
}

TEST(Sketch, MergeIsBinWiseAndEmptySafe) {
    const auto a = sketch_of(Distribution::Uniform, 4, 1000, 1);
    const auto b = sketch_of(Distribution::Uniform, 4, 1000, 2);
    gas::tune::Sketch m = a;
    m.merge(b);
    EXPECT_EQ(m.sampled, a.sampled + b.sampled);
    EXPECT_EQ(m.elements, a.elements + b.elements);
    for (std::size_t i = 0; i < gas::tune::Sketch::kBins; ++i) {
        EXPECT_EQ(m.histogram[i], a.histogram[i] + b.histogram[i]);
    }
    gas::tune::Sketch empty;
    gas::tune::Sketch copy = a;
    copy.merge(empty);  // no-op
    EXPECT_EQ(copy.sampled, a.sampled);
    empty.merge(a);  // copies
    EXPECT_EQ(empty.sampled, a.sampled);
    EXPECT_EQ(empty.histogram, a.histogram);
}

TEST(Sketch, SignalsTrackTheirDistributions) {
    EXPECT_GT(sketch_of(Distribution::ZipfHot).hot_fraction(),
              sketch_of(Distribution::Uniform).hot_fraction());
    EXPECT_LT(sketch_of(Distribution::FewDistinct).distinct_ratio, 0.05);
    EXPECT_GT(sketch_of(Distribution::Uniform).distinct_ratio, 0.9);
    EXPECT_GT(sketch_of(Distribution::Sorted).sortedness, 0.99);
    EXPECT_LT(sketch_of(Distribution::Uniform).sortedness, 0.7);
}

// --- 2. planner -------------------------------------------------------------

TEST(Planner, ClassifiesTheFourRegimes) {
    using gas::tune::Regime;
    EXPECT_EQ(gas::tune::classify(sketch_of(Distribution::Uniform)), Regime::Uniform);
    EXPECT_EQ(gas::tune::classify(sketch_of(Distribution::ZipfHot, 16)), Regime::Skewed);
    EXPECT_EQ(gas::tune::classify(sketch_of(Distribution::FewDistinct)),
              Regime::FewDistinct);
    EXPECT_EQ(gas::tune::classify(sketch_of(Distribution::NearlySorted)),
              Regime::NearlySorted);
    // Duplicate density outranks sortedness: constant data is "sorted" too,
    // but its plan must come from the few-distinct family.
    EXPECT_EQ(gas::tune::classify(sketch_of(Distribution::Constant)),
              Regime::FewDistinct);
}

TEST(Planner, CostPerElementGrowsWithArraySizeAtPaperDefaults) {
    // Phase 1's per-array serial sample sort is quadratic in the sample, so
    // at the paper's 10% sampling rate the modeled cost per element must be
    // non-decreasing in n.
    const simt::Device dev(simt::tiny_device(64 << 20));
    const auto sketch = sketch_of(Distribution::Uniform);
    double prev = 0.0;
    for (const std::size_t n : {500u, 1000u, 2000u, 4000u}) {
        const double c =
            gas::tune::predicted_cost_per_element(sketch, n, {}, dev.props());
        EXPECT_GT(c, 0.0);
        EXPECT_GE(c, prev) << "n=" << n;
        prev = c;
    }
}

TEST(Planner, CostPerElementGrowsWithSamplingRate) {
    const simt::Device dev(simt::tiny_device(64 << 20));
    const auto sketch = sketch_of(Distribution::Uniform);
    double prev = 0.0;
    for (const double rate : {0.05, 0.1, 0.2}) {
        gas::Options opts;
        opts.sampling_rate = rate;
        const double c =
            gas::tune::predicted_cost_per_element(sketch, 2000, opts, dev.props());
        EXPECT_GE(c, prev) << "rate=" << rate;
        prev = c;
    }
}

TEST(Planner, PicksHotSplitForThePeriodicAdversary) {
    // ZipfHot hides a hot band from every composite sampling stride; only
    // the prime-stride hot-split candidate resolves it.  With the hybrid
    // phase 3 off (the paper-classic configuration) the unresolved bucket
    // goes quadratic, so the planner must pick hot-split.
    const simt::Device dev(simt::tiny_device(64 << 20));
    gas::Options base;
    base.hybrid_phase3 = false;
    const auto plan =
        gas::tune::plan_sort(sketch_of(Distribution::ZipfHot, 16, 4000), 4000, base,
                             dev.props());
    EXPECT_EQ(plan.candidate, "hot-split");
    EXPECT_EQ(plan.regime, gas::tune::Regime::Skewed);
}

TEST(Planner, BeatsPaperDefaultOnEveryRegime) {
    const simt::Device dev(simt::tiny_device(64 << 20));
    gas::Options base;
    base.hybrid_phase3 = false;
    for (const auto dist : {Distribution::Uniform, Distribution::ZipfHot,
                            Distribution::FewDistinct, Distribution::NearlySorted}) {
        const auto plan = gas::tune::plan_sort(sketch_of(dist, 16, 4000), 4000, base,
                                               dev.props());
        SCOPED_TRACE(workload::to_string(dist));
        EXPECT_NE(plan.candidate, "paper-default");
        double default_cost = 0.0;
        for (const auto& c : plan.considered) {
            if (c.name == "paper-default") default_cost = c.predicted_cost;
        }
        EXPECT_LT(plan.predicted_cost, default_cost);
    }
}

TEST(Planner, EveryCandidatePlanSortsCorrectly) {
    for (const auto dist : {Distribution::Uniform, Distribution::ZipfHot,
                            Distribution::FewDistinct, Distribution::NearlySorted}) {
        SCOPED_TRACE(workload::to_string(dist));
        const auto ds = workload::make_dataset(4, 1200, dist, 5);
        const simt::Device probe(simt::tiny_device(64 << 20));
        const auto candidates = gas::tune::make_candidates(
            gas::tune::sketch_values(ds.values, 4, 1200), 1200, {}, probe.props());
        EXPECT_GE(candidates.size(), 2u);
        for (const auto& c : candidates) {
            SCOPED_TRACE(c.name);
            simt::Device dev(simt::tiny_device(256 << 20));
            auto values = ds.values;
            gas::gpu_array_sort(dev, values, 4, 1200, c.opts);
            expect_row_permutation(ds.values, values, 4, 1200);
        }
    }
}

TEST(Planner, AutoTunedOptionsReturnsBaseVerbatimWhenOff) {
    const simt::Device dev(simt::tiny_device(64 << 20));
    const auto ds = workload::make_dataset(8, 2000, Distribution::Uniform, 3);
    gas::Options base;
    base.auto_tune = false;
    base.bucket_target = 33;  // a deliberately odd fingerprint
    base.sampling_rate = 0.07;
    const auto opts =
        gas::tune::auto_tuned_options(ds.values, 8, 2000, base, dev.props());
    EXPECT_EQ(opts.bucket_target, base.bucket_target);
    EXPECT_EQ(opts.sampling_rate, base.sampling_rate);
    EXPECT_EQ(opts.strategy, base.strategy);
    EXPECT_EQ(opts.threads_per_bucket, base.threads_per_bucket);
    EXPECT_EQ(opts.phase3_small_cutoff, base.phase3_small_cutoff);
    EXPECT_EQ(opts.phase3_bitonic_cutoff, base.phase3_bitonic_cutoff);
    // On, the same data reshapes the plan (2000-element uniform rows leave
    // the paper defaults' quadratic sample sort behind).
    gas::Options on = base;
    on.auto_tune = true;
    const auto tuned = gas::tune::auto_tuned_options(ds.values, 8, 2000, on, dev.props());
    EXPECT_TRUE(tuned.bucket_target != base.bucket_target ||
                tuned.sampling_rate != base.sampling_rate);
}

// --- 3. controller ----------------------------------------------------------

TEST(Controller, ConvergesOnAStationaryStream) {
    simt::Device dev(simt::tiny_device(256 << 20));
    gas::tune::Controller ctrl;
    gas::Options base;
    base.hybrid_phase3 = false;
    std::string last;
    int stable = 0;
    constexpr int kIterations = 12;
    for (int it = 0; it < kIterations; ++it) {
        auto ds = workload::make_dataset(8, 2000, Distribution::Uniform,
                                         static_cast<std::uint64_t>(it + 1));
        const auto sketch = gas::tune::sketch_values(ds.values, 8, 2000);
        const auto plan = ctrl.choose(sketch, 2000, base, dev.props());
        const auto stats = gas::gpu_array_sort(dev, ds.values, 8, 2000, plan.opts);
        ctrl.observe(plan.regime, plan.candidate, stats.modeled_kernel_ms(), 8 * 2000,
                     dev.props());
        EXPECT_TRUE(rows_sorted(ds.values, 8, 2000));
        if (plan.candidate == last) {
            ++stable;
        } else {
            stable = 0;
            last = plan.candidate;
        }
    }
    // Stationary input: the plan settles and stays settled.
    EXPECT_GE(stable, kIterations / 2);
    EXPECT_EQ(ctrl.decisions(), static_cast<std::size_t>(kIterations));
    // The converged incumbent's observed cost is the best observed cell.
    double incumbent_cost = 0.0, best_observed = 1e300;
    for (const auto& c : ctrl.cells()) {
        if (c.observations == 0) continue;
        best_observed = std::min(best_observed, c.observed_ewma);
        if (c.incumbent) incumbent_cost = c.observed_ewma;
    }
    EXPECT_EQ(incumbent_cost, best_observed);
}

TEST(Controller, HysteresisStopsBorderlineFlapping) {
    const simt::Device dev(simt::tiny_device(64 << 20));
    const auto& props = dev.props();
    gas::tune::Controller ctrl;
    const auto sketch = sketch_of(Distribution::Uniform);
    constexpr std::size_t kN = 2000, kElements = 8 * 2000;
    const gas::Options base;
    const auto plan1 = ctrl.choose(sketch, kN, base, props);
    double rival = 1e300;
    for (const auto& c : plan1.considered) {
        if (c.name != plan1.candidate) rival = std::min(rival, c.predicted_cost);
    }
    // observe() normalizes ms back onto the planner's cycles/element scale.
    const double cycles_per_ms =
        props.core_clock_ghz * 1e6 / props.efficiency_derate;
    const auto ms_for = [&](double cost) {
        return cost * static_cast<double>(kElements) / cycles_per_ms;
    };
    // Observed within the 5% hysteresis band of the best rival: stays put.
    ctrl.observe(plan1.regime, plan1.candidate, ms_for(rival * 1.02), kElements, props);
    EXPECT_EQ(ctrl.choose(sketch, kN, base, props).candidate, plan1.candidate);
    EXPECT_EQ(ctrl.plan_switches(), 0u);
    // Observed far worse than the rival: dethroned, exactly one switch.
    for (int i = 0; i < 4; ++i) {
        ctrl.observe(plan1.regime, plan1.candidate, ms_for(rival * 4.0), kElements,
                     props);
    }
    EXPECT_NE(ctrl.choose(sketch, kN, base, props).candidate, plan1.candidate);
    EXPECT_EQ(ctrl.plan_switches(), 1u);
}

TEST(Controller, DisabledOrOptedOutReturnsBaseUntouched) {
    const simt::Device dev(simt::tiny_device(64 << 20));
    const auto sketch = sketch_of(Distribution::Uniform);
    gas::Options base;
    base.bucket_target = 33;
    {
        gas::tune::Controller off(gas::tune::Controller::Config{false, 0.05, 0.3});
        const auto plan = off.choose(sketch, 2000, base, dev.props());
        EXPECT_EQ(plan.candidate, "paper-default");
        EXPECT_EQ(plan.opts.bucket_target, base.bucket_target);
        EXPECT_EQ(off.decisions(), 0u);
    }
    {
        gas::tune::Controller on;
        gas::Options opted_out = base;
        opted_out.auto_tune = false;
        const auto plan = on.choose(sketch, 2000, opted_out, dev.props());
        EXPECT_EQ(plan.candidate, "paper-default");
        EXPECT_EQ(plan.opts.bucket_target, base.bucket_target);
        EXPECT_EQ(on.decisions(), 0u);
    }
}

TEST(Controller, KeyBandsPartitionTheObservedMass) {
    gas::tune::Controller ctrl;
    const simt::Device dev(simt::tiny_device(64 << 20));
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        ctrl.choose(sketch_of(Distribution::Uniform, 8, 2000, seed), 2000, {},
                    dev.props());
    }
    EXPECT_TRUE(ctrl.key_bands(1).empty());
    const auto bands = ctrl.key_bands(4);
    ASSERT_EQ(bands.size(), 3u);  // interior splits only
    EXPECT_TRUE(std::is_sorted(bands.begin(), bands.end()));
    for (const double b : bands) {
        EXPECT_GE(b, 0.0);
        EXPECT_LE(b, gas::tune::Sketch::kDefaultKeySpace);
    }
}

// --- 4. auto_tune=off bit-identity over the 15 equivalence workloads --------
//
// Options::auto_tune must be inert everywhere below gas::tune: flipping it
// cannot change a single byte or KernelStats field of the direct sort paths.
// The workload list mirrors tests/core/test_exec_equivalence.cpp.

gas::Options base_opts(bool tune) {
    gas::Options opts;
    opts.auto_tune = tune;
    return opts;
}

template <typename F>
void tune_off_identity_sweep(F fn) {
    const auto run = [&](bool tune) {
        simt::Device dev(simt::tiny_device(256 << 20));
        auto payload = fn(dev, tune);
        return std::pair{std::move(payload), dev.kernel_log()};
    };
    const auto off = run(false);
    const auto on = run(true);
    EXPECT_EQ(off.first, on.first);
    expect_logs_equal(off.second, on.second);
}

TEST(TuneOffIdentity, FifteenEquivalenceWorkloads) {
    // 1 array sort + verify
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto ds = workload::make_dataset(16, 500);
        auto opts = base_opts(tune);
        opts.verify_output = true;
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
        return ds.values;
    });
    // 2 uint32 keys
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto ds = workload::make_dataset(8, 300);
        std::vector<std::uint32_t> data(ds.values.size());
        for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = static_cast<std::uint32_t>(static_cast<std::int64_t>(ds.values[i] * 1e6f));
        }
        gas::gpu_array_sort(dev, data, ds.num_arrays, ds.array_size, base_opts(tune));
        return data;
    });
    // 3 descending
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto ds = workload::make_dataset(8, 300, Distribution::Normal);
        auto opts = base_opts(tune);
        opts.order = gas::SortOrder::Descending;
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
        return ds.values;
    });
    // 4 binary-search strategy
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto ds = workload::make_dataset(8, 500);
        auto opts = base_opts(tune);
        opts.strategy = gas::BucketingStrategy::BinarySearch;
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
        return ds.values;
    });
    // 5 threads-per-bucket
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto ds = workload::make_dataset(8, 500);
        auto opts = base_opts(tune);
        opts.threads_per_bucket = 2;
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
        return ds.values;
    });
    // 6 small-array fast path
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto ds = workload::make_dataset(32, 8);
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size,
                            base_opts(tune));
        return ds.values;
    });
    // 7 global-scratch fallback
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto ds = workload::make_dataset(2, 20000);
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size,
                            base_opts(tune));
        return ds.values;
    });
    // 8 pair sort
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto keys = workload::make_dataset(8, 400, Distribution::Uniform, 7);
        auto vals = workload::make_dataset(8, 400, Distribution::Uniform, 8);
        gas::gpu_pair_sort(dev, keys.values, vals.values, 8, 400, base_opts(tune));
        auto out = keys.values;
        out.insert(out.end(), vals.values.begin(), vals.values.end());
        return out;
    });
    // 9 ragged sort
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto ds = workload::make_ragged_dataset(12, 16, 512);
        std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
        gas::gpu_ragged_sort(dev, ds.values, offsets, base_opts(tune));
        return ds.values;
    });
    // 10 ragged pair sort
    tune_off_identity_sweep([](simt::Device& dev, bool tune) {
        auto ds = workload::make_ragged_dataset(10, 16, 256, Distribution::Uniform, 5);
        auto vs = ds.values;
        std::reverse(vs.begin(), vs.end());
        std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
        gas::gpu_ragged_pair_sort(dev, std::span<float>(ds.values),
                                  std::span<float>(vs), offsets, base_opts(tune));
        auto out = ds.values;
        out.insert(out.end(), vs.begin(), vs.end());
        return out;
    });
    const auto hybrid_forced = [](bool tune) {
        auto opts = base_opts(tune);
        opts.phase3_small_cutoff = 16;
        opts.phase3_bitonic_cutoff = 64;
        return opts;
    };
    // 11 hybrid skew array
    tune_off_identity_sweep([&](simt::Device& dev, bool tune) {
        auto ds = workload::make_dataset(8, 600, Distribution::ZipfHot, 3);
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size,
                            hybrid_forced(tune));
        return ds.values;
    });
    // 12 hybrid skew ragged
    tune_off_identity_sweep([&](simt::Device& dev, bool tune) {
        auto ds = workload::make_ragged_dataset(10, 64, 512, Distribution::ZipfHot, 6);
        std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
        gas::gpu_ragged_sort(dev, ds.values, offsets, hybrid_forced(tune));
        return ds.values;
    });
    // 13 hybrid skew pairs
    tune_off_identity_sweep([&](simt::Device& dev, bool tune) {
        auto keys = workload::make_dataset(6, 500, Distribution::ZipfHot, 7);
        auto vals = workload::make_dataset(6, 500, Distribution::Uniform, 8);
        gas::gpu_pair_sort(dev, keys.values, vals.values, 6, 500, hybrid_forced(tune));
        auto out = keys.values;
        out.insert(out.end(), vals.values.begin(), vals.values.end());
        return out;
    });
    const auto pseudo_u32 = [](std::size_t count, std::uint64_t seed) {
        std::vector<std::uint32_t> v(count);
        std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
        for (auto& x : v) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            x = static_cast<std::uint32_t>(state >> 32);
        }
        return v;
    };
    // 14 radix u32 (RadixOptions carries no auto_tune; the flag must still
    // leave the thrustlite substrate untouched end to end)
    tune_off_identity_sweep([&](simt::Device& dev, bool) {
        thrustlite::device_vector<std::uint32_t> keys(dev, pseudo_u32(10001, 1));
        thrustlite::stable_sort(dev, keys.span(), {});
        return keys.to_host();
    });
    // 15 radix by key
    tune_off_identity_sweep([&](simt::Device& dev, bool) {
        const auto host_keys = pseudo_u32(9000, 3);
        std::vector<std::uint32_t> host_vals(host_keys.size());
        for (std::size_t i = 0; i < host_vals.size(); ++i) {
            host_vals[i] = static_cast<std::uint32_t>(i);
        }
        thrustlite::device_vector<std::uint32_t> keys(dev, host_keys);
        thrustlite::device_vector<std::uint32_t> vals(dev, host_vals);
        thrustlite::stable_sort_by_key(dev, keys.span(), vals.span(), {});
        auto out = keys.to_host();
        const auto v = vals.to_host();
        out.insert(out.end(), v.begin(), v.end());
        return out;
    });
}

TEST(TuneOffIdentity, TunedSortWithAutoTuneOffIsExactlyGpuArraySort) {
    const auto ds = workload::make_dataset(8, 1000, Distribution::ZipfHot, 4);
    gas::Options base;
    base.auto_tune = false;

    simt::Device direct_dev(simt::tiny_device(256 << 20));
    auto direct = ds.values;
    gas::gpu_array_sort(direct_dev, direct, 8, 1000, base);

    simt::Device tuned_dev(simt::tiny_device(256 << 20));
    auto tuned = ds.values;
    const auto r = gas::tune::tuned_sort(tuned_dev, tuned, 8, 1000, base);

    EXPECT_EQ(direct, tuned);
    expect_logs_equal(direct_dev.kernel_log(), tuned_dev.kernel_log());
    EXPECT_EQ(r.plan.candidate, "paper-default");
    EXPECT_EQ(r.sketch_modeled_ms, 0.0);
}

// --- 5. serve integration ---------------------------------------------------

gas::serve::Job uniform_job(std::size_t arrays, std::size_t n, Distribution dist,
                            std::uint64_t seed, bool auto_tune = true) {
    gas::serve::Job job;
    job.kind = gas::serve::JobKind::Uniform;
    job.num_arrays = arrays;
    job.array_size = n;
    job.values = workload::make_dataset(arrays, n, dist, seed).values;
    job.opts.auto_tune = auto_tune;
    return job;
}

/// Request `r` of a kind-identity batch.  Uniform and pair jobs are 4 x 500
/// rows; ragged jobs are 12 rows of 16..512 values, and the second ragged
/// request starts its CSR table past a 3-value prefix the server must skip.
gas::serve::Job identity_job(gas::serve::JobKind kind, std::uint64_t r) {
    using gas::serve::JobKind;
    gas::serve::Job job;
    job.kind = kind;
    job.opts.auto_tune = false;
    if (kind == JobKind::Ragged) {
        auto ds = workload::make_ragged_dataset(12, 16, 512, Distribution::Uniform, 6 + r);
        const std::uint64_t pad = r == 1 ? 3 : 0;
        job.values.assign(pad, -1.0f);
        job.values.insert(job.values.end(), ds.values.begin(), ds.values.end());
        for (const auto o : ds.offsets) job.offsets.push_back(o + pad);
        return job;
    }
    job = uniform_job(4, 500, Distribution::Uniform, 6 + r, /*auto_tune=*/false);
    job.kind = kind;
    if (kind == JobKind::Pairs) {
        job.payload.resize(job.values.size());
        for (std::size_t i = 0; i < job.payload.size(); ++i) {
            job.payload[i] = static_cast<float>(r * 10000 + i);
        }
    }
    return job;
}

TEST(ServeTune, AutoTuneOffServerReproducesTheDirectKernelLog) {
    // The strongest seed pin available in-tree: with tuning off, a batch
    // through the server must emit exactly the kernel log of one direct
    // call of the fused kernel over the same concatenated rows —
    // bytes, names, shapes, modeled stats — for every job kind, alone and
    // fused with batchmates, in every order the kind accepts.
    using gas::serve::JobKind;
    for (const auto kind : {JobKind::Uniform, JobKind::Ragged, JobKind::Pairs}) {
        for (const std::size_t requests : {1, 3}) {
            for (const auto order : {gas::SortOrder::Ascending, gas::SortOrder::Descending}) {
                if (kind == JobKind::Ragged && order == gas::SortOrder::Descending) continue;
                SCOPED_TRACE(gas::serve::to_string(kind) + " x" + std::to_string(requests) +
                             (order == gas::SortOrder::Ascending ? " asc" : " desc"));
                std::vector<gas::serve::Job> jobs;
                for (std::uint64_t r = 0; r < requests; ++r) {
                    jobs.push_back(identity_job(kind, r));
                    jobs.back().opts.order = order;
                }
                gas::Options opts;
                opts.order = order;

                // Direct: the concatenated rows, one core sort call.
                std::vector<float> keys;
                std::vector<float> payload;
                std::vector<std::uint64_t> offsets{0};
                std::size_t rows = 0;
                for (const auto& job : jobs) {
                    const std::size_t from = kind == JobKind::Ragged ? job.offsets.front() : 0;
                    keys.insert(keys.end(), job.values.begin() + from, job.values.end());
                    payload.insert(payload.end(), job.payload.begin(), job.payload.end());
                    for (std::size_t i = 1; i < job.offsets.size(); ++i) {
                        offsets.push_back(offsets.back() + job.offsets[i] - job.offsets[i - 1]);
                    }
                    rows += job.num_arrays;
                }
                simt::Device direct_dev(simt::tiny_device(256 << 20));
                simt::DeviceBuffer<float> kbuf(direct_dev, keys.size());
                simt::copy_to_device(std::span<const float>(keys), kbuf);
                simt::DeviceBuffer<float> vbuf;
                if (kind == JobKind::Pairs) {
                    vbuf = simt::DeviceBuffer<float>(direct_dev, payload.size());
                    simt::copy_to_device(std::span<const float>(payload), vbuf);
                }
                switch (kind) {
                    case JobKind::Uniform:
                        gas::sort_ragged_on_device(
                            direct_dev, kbuf, gas::resilient::uniform_offsets(rows, 500), opts);
                        break;
                    case JobKind::Ragged:
                        gas::sort_ragged_on_device(direct_dev, kbuf, offsets, opts);
                        break;
                    case JobKind::Pairs:
                        gas::sort_pairs_on_device(direct_dev, kbuf, vbuf, rows, 500, opts);
                        break;
                }
                simt::copy_to_host(kbuf, std::span<float>(keys));
                if (kind == JobKind::Pairs) simt::copy_to_host(vbuf, std::span<float>(payload));

                simt::Device serve_dev(simt::tiny_device(256 << 20));
                gas::serve::ServerConfig cfg;
                cfg.manual_pump = true;
                cfg.auto_tune = false;
                gas::serve::Server server(serve_dev, cfg);
                std::vector<gas::serve::Server::Ticket> tickets;
                for (auto job : jobs) tickets.push_back(server.submit(std::move(job)));
                server.pump();
                std::vector<float> served_keys;
                std::vector<float> served_payload;
                for (std::size_t r = 0; r < tickets.size(); ++r) {
                    const auto resp = tickets[r].result.get();
                    ASSERT_TRUE(resp.ok());
                    EXPECT_EQ(resp.batch_requests, requests);
                    const std::size_t from =
                        kind == JobKind::Ragged ? jobs[r].offsets.front() : 0;
                    EXPECT_TRUE(std::equal(jobs[r].values.begin(),
                                           jobs[r].values.begin() + from, resp.values.begin()));
                    served_keys.insert(served_keys.end(), resp.values.begin() + from,
                                       resp.values.end());
                    served_payload.insert(served_payload.end(), resp.payload.begin(),
                                          resp.payload.end());
                }
                server.stop();

                EXPECT_EQ(keys, served_keys);
                EXPECT_EQ(payload, served_payload);
                expect_logs_equal(direct_dev.kernel_log(), serve_dev.kernel_log());
                const auto st = server.stats();
                EXPECT_EQ(st.batches, 1u);
                EXPECT_FALSE(st.tune_enabled);
                EXPECT_EQ(st.tune_decisions, 0u);
                EXPECT_EQ(st.tuned_batches, 0u);
                EXPECT_EQ(st.tune_sketch_ms, 0.0);
            }
        }
    }
}

TEST(ServeTune, TunedServerServesEveryRegimeCorrectly) {
    simt::Device dev(simt::tiny_device(512 << 20));
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;
    gas::serve::Server server(dev, cfg);
    std::vector<std::pair<gas::serve::Server::Ticket, std::vector<float>>> live;
    std::uint64_t seed = 1;
    for (int round = 0; round < 2; ++round) {
        for (const auto dist : {Distribution::Uniform, Distribution::ZipfHot,
                                Distribution::FewDistinct, Distribution::NearlySorted}) {
            auto job = uniform_job(8, 1500, dist, seed++);
            job.opts.hybrid_phase3 = false;
            auto input = job.values;
            live.emplace_back(server.submit(std::move(job)), std::move(input));
            server.pump();
        }
    }
    for (auto& [ticket, input] : live) {
        const auto r = ticket.result.get();
        ASSERT_TRUE(r.ok());
        expect_row_permutation(input, r.values, 8, 1500);
    }
    const auto st = server.stats();
    EXPECT_TRUE(st.tune_enabled);
    EXPECT_GT(st.tune_decisions, 0u);
    EXPECT_GT(st.tuned_batches, 0u);
    EXPECT_GT(st.tune_sketch_ms, 0.0);
    EXPECT_FALSE(st.tune_cells.empty());
    const auto json = st.to_json();
    EXPECT_NE(json.find("\"tune\""), std::string::npos);
    EXPECT_NE(json.find("\"cells\""), std::string::npos);
    EXPECT_NE(json.find("\"incumbent\""), std::string::npos);
    server.stop();
}

TEST(ServeTune, FleetKeyBandsAndQueueDepthEwma) {
    // Every tuned batch refreshes the bands, whatever its kind: ragged
    // sketches feed the same fleet aggregate as uniform ones.
    for (const auto kind : {gas::serve::JobKind::Uniform, gas::serve::JobKind::Ragged}) {
        SCOPED_TRACE(gas::serve::to_string(kind));
        gas::fleet::DeviceFleet fleet(3);
        gas::serve::ServerConfig cfg;
        cfg.manual_pump = true;
        cfg.route_policy = gas::fleet::RoutePolicy::KeyRange;
        gas::serve::Server server(fleet, cfg);
        std::vector<std::pair<gas::serve::Server::Ticket, std::vector<std::uint64_t>>> live;
        for (std::uint64_t r = 0; r < 12; ++r) {
            auto job = uniform_job(4, 800, Distribution::Uniform, r + 1);
            std::vector<std::uint64_t> rows{0, 800, 1600, 2400, 3200};
            if (kind == gas::serve::JobKind::Ragged) {
                auto ds = workload::make_ragged_dataset(4, 400, 1200, Distribution::Uniform,
                                                        r + 1);
                job.kind = kind;
                job.num_arrays = 0;
                job.array_size = 0;
                job.values = std::move(ds.values);
                job.offsets.assign(ds.offsets.begin(), ds.offsets.end());
                rows = job.offsets;
            }
            live.emplace_back(server.submit(std::move(job)), std::move(rows));
        }
        server.pump();
        for (auto& [ticket, rows] : live) {
            const auto resp = ticket.result.get();
            ASSERT_TRUE(resp.ok());
            for (std::size_t i = 1; i < rows.size(); ++i) {
                EXPECT_TRUE(std::is_sorted(
                    resp.values.begin() + static_cast<std::ptrdiff_t>(rows[i - 1]),
                    resp.values.begin() + static_cast<std::ptrdiff_t>(rows[i])));
            }
        }
        const auto st = server.stats();
        // The KeyRange router now runs on data-driven bands recomputed from
        // the fleet-level aggregate sketch: one upper bound per device,
        // ascending, closed by the key-space bound.
        ASSERT_EQ(st.key_bands.size(), 3u);
        EXPECT_TRUE(std::is_sorted(st.key_bands.begin(), st.key_bands.end()));
        EXPECT_EQ(st.key_bands.back(), cfg.key_space_max);
        EXPECT_NE(st.to_json().find("\"key_bands\""), std::string::npos);
        double max_ewma = 0.0;
        for (const auto& d : st.devices) max_ewma = std::max(max_ewma, d.queue_depth_ewma);
        EXPECT_GT(max_ewma, 0.0);
        server.stop();
    }
}

TEST(ServeTune, PairBatchesAreNeverTuned) {
    simt::Device dev(simt::tiny_device(256 << 20));
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;
    gas::serve::Server server(dev, cfg);
    gas::serve::Job job;
    job.kind = gas::serve::JobKind::Pairs;
    job.num_arrays = 4;
    job.array_size = 400;
    job.values = workload::make_dataset(4, 400, Distribution::Uniform, 7).values;
    job.payload.resize(job.values.size());
    for (std::size_t i = 0; i < job.payload.size(); ++i) {
        job.payload[i] = static_cast<float>(i);
    }
    auto ticket = server.submit(std::move(job));
    server.pump();
    const auto r = ticket.result.get();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(rows_sorted(r.values, 4, 400));
    const auto st = server.stats();
    EXPECT_EQ(st.tune_decisions, 0u);
    EXPECT_EQ(st.tune_sketch_ms, 0.0);
    server.stop();
}

}  // namespace
