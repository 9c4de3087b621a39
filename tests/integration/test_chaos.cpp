// Chaos suite (ctest label: chaos): randomized — but seeded, hence fully
// deterministic — fault schedules over every public entry point.  The single
// invariant under test: a caller either gets verified-correct bytes or a
// typed error.  Never silently wrong data.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/resilient_sort.hpp"
#include "ooc/out_of_core.hpp"
#include "serve/server.hpp"
#include "workload/generators.hpp"

namespace {

using gas::Options;
using gas::SortOrder;
namespace resilient = gas::resilient;

simt::Device make_device(std::size_t bytes = 256 << 20) {
    return simt::Device(simt::tiny_device(bytes));
}

/// A hostile-but-recoverable plan: allocation failures, refused launches and
/// corruption all armed at rates a handful-of-launches pipeline will
/// actually hit across seeds.
simt::faults::FaultPlan chaos_plan(std::uint64_t seed, bool detected) {
    simt::faults::FaultPlan plan;
    plan.seed = seed;
    plan.alloc_fail_every = 13;
    plan.launch_fail_every = 17;
    plan.corrupt_every = 23;
    plan.detected = detected;
    return plan;
}

resilient::RetryPolicy chaos_retry(std::uint64_t seed) {
    resilient::RetryPolicy retry;
    retry.seed = seed;
    retry.max_attempts = 8;  // rates above can fire several times per sort
    return retry;
}

bool typed_transient(const std::exception& e) { return resilient::transient(e); }

constexpr std::uint64_t kSeeds = 6;

TEST(Chaos, UniformSortIsCorrectOrTyped) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        for (const bool detected : {true, false}) {
            auto dev = make_device();
            dev.set_fault_plan(chaos_plan(seed, detected));
            auto ds = workload::make_dataset(8, 150, workload::Distribution::Uniform,
                                             static_cast<unsigned>(seed));
            auto want = ds.values;
            for (std::size_t a = 0; a < 8; ++a) {
                std::sort(want.begin() + static_cast<std::ptrdiff_t>(a * 150),
                          want.begin() + static_cast<std::ptrdiff_t>((a + 1) * 150));
            }
            Options opts;
            opts.verify_output = true;  // closes the undetected-corruption window
            try {
                resilient::sort_arrays<float>(dev, std::span<float>(ds.values), 8, 150, opts,
                                              chaos_retry(seed));
                EXPECT_EQ(ds.values, want)
                    << "seed " << seed << " detected=" << detected
                    << ": sort returned success with wrong bytes";
            } catch (const std::exception& e) {
                EXPECT_TRUE(typed_transient(e))
                    << "seed " << seed << ": untyped error: " << e.what();
            }
        }
    }
}

TEST(Chaos, RaggedSortIsCorrectOrTyped) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        auto dev = make_device();
        dev.set_fault_plan(chaos_plan(seed, /*detected=*/seed % 2 == 0));
        auto rag = workload::make_ragged_dataset(8, 2, 80, workload::Distribution::Uniform,
                                                 static_cast<unsigned>(seed));
        const std::vector<std::uint64_t> offsets(rag.offsets.begin(), rag.offsets.end());
        auto want = rag.values;
        for (std::size_t a = 0; a + 1 < offsets.size(); ++a) {
            std::sort(want.begin() + static_cast<std::ptrdiff_t>(offsets[a]),
                      want.begin() + static_cast<std::ptrdiff_t>(offsets[a + 1]));
        }
        Options opts;
        opts.verify_output = true;
        try {
            resilient::ragged_sort(dev, rag.values, offsets, opts, chaos_retry(seed));
            EXPECT_EQ(rag.values, want) << "seed " << seed;
        } catch (const std::exception& e) {
            EXPECT_TRUE(typed_transient(e)) << "seed " << seed << ": " << e.what();
        }
    }
}

TEST(Chaos, PairSortIsCorrectOrTyped) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        auto dev = make_device();
        dev.set_fault_plan(chaos_plan(seed, /*detected=*/seed % 2 != 0));
        const std::size_t rows = 6;
        const std::size_t n = 96;
        auto keys = workload::make_dataset(rows, n, workload::Distribution::Uniform,
                                           static_cast<unsigned>(100 + seed))
                        .values;
        std::vector<float> payload(keys.size());
        for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<float>(i);
        // Bound pair checksums survive any within-row permutation: the
        // correctness oracle for ties-unspecified pair output.
        std::vector<std::uint64_t> expected(rows);
        for (std::size_t a = 0; a < rows; ++a) {
            expected[a] = resilient::row_checksum(
                std::span<const float>(keys.data() + a * n, n),
                std::span<const float>(payload.data() + a * n, n));
        }
        Options opts;
        opts.verify_output = true;
        try {
            resilient::pair_sort<float>(dev, std::span<float>(keys),
                                        std::span<float>(payload), rows, n, opts,
                                        chaos_retry(seed));
            for (std::size_t a = 0; a < rows; ++a) {
                EXPECT_TRUE(std::is_sorted(keys.begin() + static_cast<std::ptrdiff_t>(a * n),
                                           keys.begin() + static_cast<std::ptrdiff_t>((a + 1) * n)))
                    << "seed " << seed << " row " << a;
                EXPECT_EQ(resilient::row_checksum(
                              std::span<const float>(keys.data() + a * n, n),
                              std::span<const float>(payload.data() + a * n, n)),
                          expected[a])
                    << "seed " << seed << " row " << a << ": pair binding broken";
            }
        } catch (const std::exception& e) {
            EXPECT_TRUE(typed_transient(e)) << "seed " << seed << ": " << e.what();
        }
    }
}

TEST(Chaos, OutOfCoreWithFallbackAlwaysLandsCorrectBytes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto dev = make_device();
        dev.set_fault_plan(chaos_plan(seed, /*detected=*/seed % 2 == 0));
        auto ds = workload::make_dataset(24, 100, workload::Distribution::Uniform,
                                         static_cast<unsigned>(seed));
        auto want = ds.values;
        for (std::size_t a = 0; a < 24; ++a) {
            std::sort(want.begin() + static_cast<std::ptrdiff_t>(a * 100),
                      want.begin() + static_cast<std::ptrdiff_t>((a + 1) * 100));
        }
        ooc::OocOptions opts;
        opts.batch_arrays = 6;
        opts.sort_opts.verify_output = true;
        opts.retry = chaos_retry(seed);
        opts.host_fallback = true;  // with fallback, success is unconditional
        ooc::OocCheckpoint ckpt;
        const auto stats =
            ooc::out_of_core_sort(dev, ds.values, 24, 100, opts, &ckpt);
        EXPECT_EQ(ds.values, want) << "seed " << seed;
        EXPECT_TRUE(ckpt.complete());
        EXPECT_EQ(stats.batches, 4u);
    }
}

TEST(Chaos, ServeWithVerificationAlwaysAnswersCorrectly) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        auto dev = make_device();
        dev.set_fault_plan(chaos_plan(seed, /*detected=*/seed % 2 != 0));
        gas::serve::ServerConfig cfg;
        cfg.manual_pump = true;
        cfg.verify_responses = true;
        cfg.retry.seed = seed;
        cfg.retry.max_attempts = 8;
        gas::serve::Server server(dev, cfg);

        std::vector<gas::serve::Server::Ticket> tickets;
        std::vector<std::vector<float>> expected;
        for (unsigned i = 0; i < 6; ++i) {
            gas::serve::Job job;
            job.kind = gas::serve::JobKind::Uniform;
            job.num_arrays = 4;
            job.array_size = 64;
            job.values = workload::make_dataset(4, 64, workload::Distribution::Uniform,
                                                static_cast<unsigned>(seed * 100 + i))
                             .values;
            auto want = job.values;
            for (std::size_t a = 0; a < 4; ++a) {
                std::sort(want.begin() + static_cast<std::ptrdiff_t>(a * 64),
                          want.begin() + static_cast<std::ptrdiff_t>((a + 1) * 64));
            }
            expected.push_back(std::move(want));
            tickets.push_back(server.submit(std::move(job)));
        }
        server.pump();
        for (std::size_t i = 0; i < tickets.size(); ++i) {
            gas::serve::Response r = tickets[i].result.get();
            ASSERT_EQ(r.status, gas::serve::Status::Ok)
                << "seed " << seed << " request " << i << ": " << r.error;
            EXPECT_EQ(r.values, expected[i]) << "seed " << seed << " request " << i;
        }
    }
}

/// Kill -> revive -> kill: a device cycling through quarantine, probe-sort
/// re-admission and a second loss.  Every accepted request must land
/// byte-correct (0 mismatches vs the host sort) and the "health" stats must
/// count both losses and the recovery in between.
TEST(Chaos, KillReviveKillCyclesThroughProbationWithZeroByteMismatches) {
    gas::fleet::DeviceFleet fleet(2, simt::tiny_device(256 << 20));
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;
    cfg.retry.seed = 17;
    cfg.health.enabled = true;
    cfg.health.probe_passes = 1;
    cfg.health.probation_batches = 1;
    cfg.health.probation_base_weight = 1.0;
    gas::serve::Server server(fleet, cfg);

    simt::faults::FaultPlan kill;
    kill.launch_fail_every = 1;

    std::size_t byte_mismatches = 0;
    auto serve_burst = [&](unsigned tag) {
        std::vector<gas::serve::Server::Ticket> tickets;
        std::vector<std::vector<float>> expected;
        for (unsigned i = 0; i < 6; ++i) {
            gas::serve::Job job;
            job.kind = gas::serve::JobKind::Uniform;
            job.num_arrays = 4;
            job.array_size = 64 + 16 * i;  // incompatible sizes: spreads shards
            job.values =
                workload::make_dataset(4, job.array_size, workload::Distribution::Uniform,
                                       tag * 100 + i)
                    .values;
            auto want = job.values;
            const auto n = static_cast<std::ptrdiff_t>(job.array_size);
            for (std::ptrdiff_t a = 0; a < 4; ++a) {
                std::sort(want.begin() + a * n, want.begin() + (a + 1) * n);
            }
            expected.push_back(std::move(want));
            tickets.push_back(server.submit(std::move(job)));
        }
        server.pump();
        for (std::size_t i = 0; i < tickets.size(); ++i) {
            gas::serve::Response r = tickets[i].result.get();
            ASSERT_EQ(r.status, gas::serve::Status::Ok)
                << "burst " << tag << " request " << i << ": " << r.error;
            if (r.values != expected[i]) ++byte_mismatches;
        }
    };

    // Kill #1: burst re-routes to the survivor, device 0 quarantined.
    fleet.device(0).set_fault_plan(kill);
    serve_burst(1);
    ASSERT_EQ(server.stats().devices[0].health_state, "quarantined");

    // Revive: probe passes, probation, one clean batch -> healthy again.
    fleet.device(0).set_fault_plan({});
    server.pump();  // runs the probe cycle
    ASSERT_EQ(server.stats().devices[0].health_state, "probation");
    for (unsigned round = 0; round < 8; ++round) {
        serve_burst(10 + round);
        if (server.stats().devices[0].health_state == "healthy") break;
    }
    ASSERT_EQ(server.stats().devices[0].health_state, "healthy");
    ASSERT_EQ(server.stats().health.readmissions, 1u);

    // Kill #2: the re-admitted device dies again; service must survive it
    // again, and the counters must show both transitions.
    fleet.device(0).set_fault_plan(kill);
    serve_burst(50);
    const auto stats = server.stats();
    EXPECT_EQ(stats.devices[0].health_state, "quarantined");
    EXPECT_GE(stats.health.quarantines, 2u);
    EXPECT_EQ(stats.health.readmissions, 1u);
    EXPECT_EQ(byte_mismatches, 0u);
}

TEST(Chaos, SameSeedYieldsIdenticalFaultReport) {
    auto run = [](std::uint64_t seed) {
        auto dev = make_device();
        dev.set_fault_plan(chaos_plan(seed, /*detected=*/true));
        auto ds = workload::make_dataset(8, 150, workload::Distribution::Uniform, 9);
        Options opts;
        opts.verify_output = true;
        try {
            resilient::sort_arrays<float>(dev, std::span<float>(ds.values), 8, 150, opts,
                                          chaos_retry(seed));
        } catch (const std::exception&) {
            // Exhausted retries are a legal outcome; the report still pins
            // exactly which faults fired on the way.
        }
        return std::pair{simt::faults::to_json(dev.fault_report()),
                         simt::faults::to_text(dev.fault_report())};
    };
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto [json_a, text_a] = run(seed);
        const auto [json_b, text_b] = run(seed);
        EXPECT_EQ(json_a, json_b) << "seed " << seed;
        EXPECT_EQ(text_a, text_b) << "seed " << seed;
    }
    // Different seeds re-dice the schedule (the reports cannot all match).
    const auto [j1, t1] = run(1);
    const auto [j2, t2] = run(2);
    const auto [j3, t3] = run(3);
    EXPECT_TRUE(j1 != j2 || j2 != j3);
}

}  // namespace
