// gas::health suite (ctest label: health): the state machine as a pure unit,
// probe sorts against live and killed devices, and the serve-layer closed
// loop — typed Shed rejections when the queue is full, response
// verification that holds under a full queue, the kill -> probe ->
// probation -> healthy recovery cycle, and the health=off bit-identity
// contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "health/config.hpp"
#include "health/probe.hpp"
#include "health/state.hpp"
#include "serve/server.hpp"
#include "workload/generators.hpp"

namespace {

using gas::fleet::DeviceFleet;
using gas::health::HealthConfig;
using gas::health::Machine;
using gas::health::State;
using gas::serve::Job;
using gas::serve::JobKind;
using gas::serve::Priority;
using gas::serve::Response;
using gas::serve::Server;
using gas::serve::ServerConfig;
using gas::serve::Status;

simt::Device make_device(std::size_t bytes = 256 << 20) {
    return simt::Device(simt::tiny_device(bytes));
}

ServerConfig health_config() {
    ServerConfig cfg;
    cfg.manual_pump = true;
    cfg.health.enabled = true;
    return cfg;
}

Job uniform_job(std::size_t num_arrays, std::size_t array_size, unsigned seed,
                Priority priority = Priority::Normal) {
    Job job;
    job.kind = JobKind::Uniform;
    job.num_arrays = num_arrays;
    job.array_size = array_size;
    job.priority = priority;
    job.values = workload::make_dataset(num_arrays, array_size,
                                        workload::Distribution::Uniform, seed)
                     .values;
    return job;
}

std::vector<float> sorted_rows(std::vector<float> values, std::size_t num_arrays,
                               std::size_t array_size) {
    for (std::size_t a = 0; a < num_arrays; ++a) {
        auto* row = values.data() + a * array_size;
        std::sort(row, row + array_size);
    }
    return values;
}

simt::faults::FaultPlan kill_plan() {
    simt::faults::FaultPlan plan;
    plan.launch_fail_every = 1;  // every launch refuses: the device is gone
    return plan;
}

// ---------------------------------------------------------------------------
// Machine: the per-shard state machine as a pure unit.

// The clean-streak tests below count kDegradedClearBatches clean batches.
static_assert(gas::health::kDegradedClearBatches == 2);

TEST(HealthMachine, TransientFaultDemotesAndCleanStreakRecovers) {
    Machine m;
    EXPECT_EQ(m.state(), State::Healthy);
    EXPECT_DOUBLE_EQ(m.route_weight(), 1.0);

    EXPECT_TRUE(m.on_transient_fault());  // Healthy -> Degraded counts
    EXPECT_EQ(m.state(), State::Degraded);
    EXPECT_FALSE(m.on_transient_fault());  // already Degraded: no transition
    EXPECT_DOUBLE_EQ(m.route_weight(), gas::health::kDegradedWeight);

    EXPECT_FALSE(m.on_clean_batch());  // streak 1 of 2
    EXPECT_TRUE(m.on_clean_batch());   // streak complete: Degraded -> Healthy
    EXPECT_EQ(m.state(), State::Healthy);
}

TEST(HealthMachine, FaultMidStreakResetsTheCleanStreak) {
    Machine m;
    m.on_transient_fault();
    EXPECT_FALSE(m.on_clean_batch());
    m.on_transient_fault();  // streak broken
    EXPECT_FALSE(m.on_clean_batch());
    EXPECT_TRUE(m.on_clean_batch());
    EXPECT_EQ(m.state(), State::Healthy);
}

TEST(HealthMachine, QuarantineProbationReadmissionCycle) {
    Machine m(HealthConfig{.probe_passes = 2, .probation_batches = 3});
    EXPECT_TRUE(m.on_quarantine());
    EXPECT_FALSE(m.on_quarantine());  // idempotent
    EXPECT_EQ(m.state(), State::Quarantined);
    EXPECT_DOUBLE_EQ(m.route_weight(), 0.0);

    EXPECT_FALSE(m.on_probe_pass());  // 1 of 2
    m.on_probe_fail();                // streak resets
    EXPECT_FALSE(m.on_probe_pass());  // 1 of 2 again
    EXPECT_TRUE(m.on_probe_pass());   // K-streak: Quarantined -> Probation
    EXPECT_EQ(m.state(), State::Probation);

    // Probation weight ramps linearly from the base toward 1.0.
    EXPECT_DOUBLE_EQ(m.route_weight(), 0.25);
    EXPECT_FALSE(m.on_clean_batch());
    EXPECT_DOUBLE_EQ(m.route_weight(), 0.25 + 0.75 / 3.0);
    EXPECT_FALSE(m.on_clean_batch());
    EXPECT_TRUE(m.on_clean_batch());  // M batches: Probation -> Healthy
    EXPECT_EQ(m.state(), State::Healthy);
    EXPECT_DOUBLE_EQ(m.route_weight(), 1.0);
}

TEST(HealthMachine, ProbationFailureReturnsToQuarantine) {
    Machine m(HealthConfig{.probe_passes = 1, .probation_batches = 3});
    m.on_quarantine();
    EXPECT_TRUE(m.on_probe_pass());
    EXPECT_EQ(m.state(), State::Probation);
    EXPECT_TRUE(m.on_quarantine());  // a fault during probation pulls it back
    EXPECT_EQ(m.state(), State::Quarantined);
    // And the probe streak restarted from zero.
    EXPECT_TRUE(m.on_probe_pass());
    EXPECT_EQ(m.state(), State::Probation);
}

// ---------------------------------------------------------------------------
// Probe sorts.

TEST(HealthProbe, PassesOnAHealthyDevice) {
    auto dev = make_device();
    const auto r = gas::health::run_probe(dev, /*seed=*/42);
    EXPECT_TRUE(r.pass) << r.error;
}

TEST(HealthProbe, FailsTypedOnAKilledDevice) {
    auto dev = make_device();
    dev.set_fault_plan(kill_plan());
    const auto r = gas::health::run_probe(dev, /*seed=*/42);
    EXPECT_FALSE(r.pass);
    EXPECT_FALSE(r.error.empty());
}

// ---------------------------------------------------------------------------
// Serve wiring: overload shedding.

TEST(HealthServe, QueueOverflowShedsOldestLowerPriorityFirst) {
    auto dev = make_device();
    ServerConfig cfg = health_config();
    cfg.queue_capacity = 2;
    Server server(dev, cfg);

    auto low_old = server.submit(uniform_job(2, 64, 1, Priority::Low));
    auto low_new = server.submit(uniform_job(2, 64, 2, Priority::Low));
    // Queue full.  A high-priority arrival displaces the OLDEST low job —
    // typed Shed, resolved immediately, never silent loss.
    auto high = server.submit(uniform_job(2, 64, 3, Priority::High));

    Response shed = low_old.result.get();
    EXPECT_EQ(shed.status, Status::Shed);
    EXPECT_NE(shed.error.find("displaced"), std::string::npos) << shed.error;
    EXPECT_FALSE(shed.values.empty());  // input handed back with the rejection

    server.pump();
    EXPECT_TRUE(high.result.get().ok());
    EXPECT_TRUE(low_new.result.get().ok());

    const auto stats = server.stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST(HealthServe, OverflowShedNeverDisplacesMoreImportantWork) {
    auto dev = make_device();
    ServerConfig cfg = health_config();
    cfg.queue_capacity = 2;
    Server server(dev, cfg);

    auto high_a = server.submit(uniform_job(2, 64, 1, Priority::High));
    auto high_b = server.submit(uniform_job(2, 64, 2, Priority::High));
    // A low-priority arrival cannot displace queued high work: the newcomer
    // is the drop.
    auto low = server.submit(uniform_job(2, 64, 3, Priority::Low));

    Response r = low.result.get();
    EXPECT_EQ(r.status, Status::Shed);
    server.pump();
    EXPECT_TRUE(high_a.result.get().ok());
    EXPECT_TRUE(high_b.result.get().ok());
    EXPECT_EQ(server.stats().shed, 1u);
}

// ---------------------------------------------------------------------------
// Serve wiring: verification under a full queue.

TEST(HealthServe, FullQueueStillVerifiesEveryBatch) {
    const std::size_t arrays = 4;
    const std::size_t n = 64;
    const std::size_t capacity = 4;

    // Launches of one clean verified batch of `capacity` requests: the
    // verify kernel is last, so corrupting (undetected) at that ordinal
    // flips a bit in the fused data buffer after the sort wrote it.
    std::size_t verify_ordinal = 0;
    {
        auto dev = make_device();
        ServerConfig cfg;
        cfg.manual_pump = true;
        cfg.verify_responses = true;
        Server server(dev, cfg);
        std::vector<Server::Ticket> tickets;
        for (unsigned i = 0; i < capacity; ++i) {
            tickets.push_back(server.submit(uniform_job(arrays, n, i)));
        }
        server.pump();
        for (auto& t : tickets) EXPECT_TRUE(t.result.get().ok());
        verify_ordinal = dev.kernel_log().size();
        ASSERT_EQ(dev.kernel_log().back().name, "gas.verify");
    }

    auto dev = make_device();
    simt::faults::FaultPlan plan;
    plan.corrupt_at = {verify_ordinal};
    plan.detected = false;  // silent: only response verification can see it
    dev.set_fault_plan(plan);
    ServerConfig cfg = health_config();
    cfg.verify_responses = true;
    cfg.queue_capacity = capacity;
    Server server(dev, cfg);

    // Normal-priority arrivals hold the queue at capacity: each one past the
    // fourth displaces the oldest queued, so the last `capacity` requests
    // stay and the smoothed depth ends well past half the capacity.
    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> expected;
    for (unsigned i = 0; i < 3 * capacity; ++i) {
        auto job = uniform_job(arrays, n, 100 + i);
        expected.push_back(sorted_rows(job.values, arrays, n));
        tickets.push_back(server.submit(std::move(job)));
    }
    EXPECT_GE(server.stats().devices[0].queue_depth_ewma, 0.55 * capacity);
    server.pump();

    std::size_t ok = 0;
    std::size_t fallbacks = 0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        if (r.status == Status::Shed) continue;
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_EQ(r.values, expected[i]) << "request " << i << " returned wrong bytes";
        ++ok;
        fallbacks += r.cpu_fallback ? 1 : 0;
    }
    EXPECT_EQ(ok, capacity);
    const auto stats = server.stats();
    EXPECT_EQ(stats.shed, 2 * capacity);
    EXPECT_EQ(stats.verify_failures, 1u);  // one bit flip -> one row -> one request
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(fallbacks, 1u);
    EXPECT_EQ(dev.fault_report().corruptions, 1u);
}

// ---------------------------------------------------------------------------
// Serve wiring: device recovery.

TEST(HealthServe, KilledDeviceRecoversThroughProbeAndProbation) {
    DeviceFleet fleet(2, simt::tiny_device(256 << 20));
    ServerConfig cfg = health_config();
    cfg.retry.seed = 31;
    cfg.health.probe_passes = 1;
    cfg.health.probation_batches = 1;
    cfg.health.probation_base_weight = 1.0;  // no ramp: deterministic routing
    Server server(fleet, cfg);

    // Phase 1: kill device 0 and serve a burst.  Every response must still
    // be correct (re-routed to device 1); device 0 ends Quarantined.
    fleet.device(0).set_fault_plan(kill_plan());
    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> want;
    for (unsigned i = 0; i < 6; ++i) {
        auto job = uniform_job(4, 64 + 16 * i, i);  // incompatible: spreads out
        want.push_back(sorted_rows(job.values, 4, 64 + 16 * i));
        tickets.push_back(server.submit(std::move(job)));
    }
    server.pump();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_EQ(r.values, want[i]);
    }
    {
        const auto stats = server.stats();
        ASSERT_EQ(stats.devices_quarantined, 1u);
        EXPECT_GE(stats.health.quarantines, 1u);
        EXPECT_EQ(stats.devices[0].health_state, "quarantined");
    }

    // Phase 2: probes against the still-dead device fail; it stays out.
    server.pump();
    {
        const auto stats = server.stats();
        EXPECT_GE(stats.health.probes_failed, 1u);
        EXPECT_EQ(stats.devices[0].health_state, "quarantined");
    }

    // Phase 3: revive.  The next pump's probe passes, promoting the shard
    // to Probation (routable, ramped weight); a clean batch re-admits it.
    fleet.device(0).set_fault_plan({});
    server.pump();
    {
        const auto stats = server.stats();
        EXPECT_GE(stats.health.probes_passed, 1u);
        EXPECT_EQ(stats.health.probations, 1u);
        EXPECT_EQ(stats.devices[0].health_state, "probation");
    }

    // Serve until device 0 has taken a clean batch again.
    for (unsigned round = 0; round < 8; ++round) {
        std::vector<Server::Ticket> more;
        std::vector<std::vector<float>> expect;
        for (unsigned i = 0; i < 4; ++i) {
            auto job = uniform_job(4, 64 + 16 * i, 100 + round * 4 + i);
            expect.push_back(sorted_rows(job.values, 4, 64 + 16 * i));
            more.push_back(server.submit(std::move(job)));
        }
        server.pump();
        for (std::size_t i = 0; i < more.size(); ++i) {
            Response r = more[i].result.get();
            ASSERT_EQ(r.status, Status::Ok) << r.error;
            EXPECT_EQ(r.values, expect[i]);
        }
        if (server.stats().devices[0].health_state == "healthy") break;
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.devices[0].health_state, "healthy");
    EXPECT_EQ(stats.health.readmissions, 1u);
}

// ---------------------------------------------------------------------------
// Async mode: the watchdog thread and hang recovery.

TEST(HealthServe, AsyncHangIsDetectedAndServiceSurvives) {
    DeviceFleet fleet(2, simt::tiny_device(256 << 20));
    // Device 0 hangs at every launch entry (wall-clock, capped at 50ms).
    // The watchdog must notice the stalled heartbeat, demote the shard and
    // abort the launch; retries exhaust, the shard quarantines, and every
    // request still completes byte-correct on the survivor.
    simt::faults::FaultPlan hang;
    hang.hang_every = 1;
    hang.hang_max_ms = 50.0;
    fleet.device(0).set_fault_plan(hang);

    ServerConfig cfg;
    cfg.health.enabled = true;
    cfg.retry.seed = 23;
    // Ties route the first request to device 0, and with no stealing
    // device 0 must launch it, so the hang is always reached.
    cfg.max_steal_requests = 0;
    Server server(fleet, cfg);

    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> want;
    for (unsigned i = 0; i < 8; ++i) {
        auto job = uniform_job(4, 64 + 16 * (i % 4), i);
        want.push_back(sorted_rows(job.values, 4, 64 + 16 * (i % 4)));
        tickets.push_back(server.submit(std::move(job)));
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << "request " << i << ": " << r.error;
        EXPECT_EQ(r.values, want[i]) << "request " << i;
    }
    server.stop();

    const auto stats = server.stats();
    EXPECT_GE(stats.health.hangs_detected, 1u);
    // The one recovery path for a hung batch: stall abort -> retry ->
    // quarantine -> reroute to the survivor.
    EXPECT_GE(stats.retries, 1u);
    EXPECT_EQ(stats.devices_quarantined, 1u);
    EXPECT_GE(stats.reroutes, 1u);
    EXPECT_EQ(stats.completed, stats.accepted);
    EXPECT_EQ(stats.completed, 8u);
}

// ---------------------------------------------------------------------------
// The off switch: health disabled is bit-identical to the pre-health server.

TEST(HealthServe, DisabledIsByteIdenticalToEnabledOnFaultFreeTraffic) {
    std::vector<std::vector<float>> bytes_off, bytes_on;
    for (const bool on : {false, true}) {
        auto dev = make_device();
        ServerConfig cfg;
        cfg.manual_pump = true;
        cfg.health.enabled = on;
        Server server(dev, cfg);
        std::vector<Server::Ticket> tickets;
        for (unsigned i = 0; i < 6; ++i) {
            tickets.push_back(server.submit(uniform_job(4, 100, i)));
        }
        server.pump();
        auto& out = on ? bytes_on : bytes_off;
        for (auto& t : tickets) {
            Response r = t.result.get();
            ASSERT_EQ(r.status, Status::Ok) << r.error;
            out.push_back(std::move(r.values));
        }
    }
    EXPECT_EQ(bytes_off, bytes_on);
}

TEST(HealthServe, DisabledReportsZeroedHealthBlock) {
    auto dev = make_device();
    ServerConfig cfg;
    cfg.manual_pump = true;
    Server server(dev, cfg);
    auto t = server.submit(uniform_job(2, 64, 1));
    server.pump();
    EXPECT_TRUE(t.result.get().ok());

    const auto stats = server.stats();
    EXPECT_FALSE(stats.health.enabled);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.devices[0].health_state, "healthy");
    // The JSON block is present either way (schema-stable for dashboards).
    const auto json = server.stats_json();
    EXPECT_NE(json.find("\"health\""), std::string::npos);
    EXPECT_NE(json.find("\"health_state\""), std::string::npos);
    EXPECT_NE(json.find("\"enabled\": false"), std::string::npos);
}

TEST(HealthServe, BackpressureIsSurfacedOnResponses) {
    auto dev = make_device();
    ServerConfig cfg = health_config();
    cfg.queue_capacity = 4;
    Server server(dev, cfg);
    auto a = server.submit(uniform_job(2, 64, 1));
    auto b = server.submit(uniform_job(2, 64, 2));
    server.pump();
    const Response ra = a.result.get();
    const Response rb = b.result.get();
    EXPECT_DOUBLE_EQ(ra.backpressure, 0.0);   // empty queue at its admission
    EXPECT_DOUBLE_EQ(rb.backpressure, 0.25);  // 1 of 4 already queued
}

}  // namespace
