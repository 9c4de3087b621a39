// gas::health suite (ctest label: health): the state machine and brownout
// ladder as pure units, probe sorts against live and killed devices, and the
// serve-layer closed loop — typed Shed rejections under overload, brownout
// service degradation, the kill -> probe -> probation -> healthy recovery
// cycle, and the health=off bit-identity contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "health/brownout.hpp"
#include "health/config.hpp"
#include "health/probe.hpp"
#include "health/state.hpp"
#include "serve/server.hpp"
#include "workload/generators.hpp"

namespace {

using gas::fleet::DeviceFleet;
using gas::health::Brownout;
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
    Machine m(Machine::Config{.probe_passes = 2, .probation_batches = 3});
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
    Machine m(Machine::Config{.probe_passes = 1, .probation_batches = 3});
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
// Brownout: the hysteresis ladder as a pure unit.

TEST(HealthBrownout, EscalatesDirectlyToTheDeepestMetLevel) {
    Brownout b(Brownout::Config{.l1 = 0.55, .l2 = 0.75, .l3 = 0.90, .hysteresis = 0.20});
    EXPECT_EQ(b.level(), 0);
    EXPECT_EQ(b.update(0.50), 0);
    EXPECT_EQ(b.update(0.60), 1);   // past l1
    EXPECT_EQ(b.update(0.95), 2);   // jumps 1 -> 3 in one step
    EXPECT_EQ(b.level(), 3);
}

TEST(HealthBrownout, DeescalatesStepwiseWithHysteresis) {
    Brownout b(Brownout::Config{.l1 = 0.55, .l2 = 0.75, .l3 = 0.90, .hysteresis = 0.20});
    b.update(0.95);
    ASSERT_EQ(b.level(), 3);
    EXPECT_EQ(b.update(0.80), 0);   // below l3 but inside the hysteresis band
    EXPECT_EQ(b.level(), 3);
    EXPECT_EQ(b.update(0.65), -1);  // < l3 - 0.20: one step down, not a jump
    EXPECT_EQ(b.level(), 2);
    EXPECT_EQ(b.update(0.65), 0);   // >= l2 - 0.20: holds
    EXPECT_EQ(b.update(0.10), -1);
    EXPECT_EQ(b.update(0.10), -1);
    EXPECT_EQ(b.level(), 0);
    EXPECT_EQ(b.update(0.10), 0);   // floor
}

// ---------------------------------------------------------------------------
// Probe sorts.

TEST(HealthProbe, PassesOnAHealthyDevice) {
    auto dev = make_device();
    const auto r = gas::health::run_probe(dev, /*seed=*/42);
    EXPECT_TRUE(r.pass) << r.error;
    EXPECT_EQ(r.arrays, gas::health::kProbeArrays);
    EXPECT_EQ(r.array_size, gas::health::kProbeArraySize);
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
    EXPECT_EQ(stats.health.shed_overflow, 1u);
    EXPECT_EQ(stats.health.shed_total(), 1u);
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
    EXPECT_EQ(server.stats().health.shed_overflow, 1u);
}

TEST(HealthServe, ShedDisabledKeepsRejectSemantics) {
    auto dev = make_device();
    ServerConfig cfg = health_config();
    cfg.queue_capacity = 1;
    cfg.health.shed_enabled = false;
    Server server(dev, cfg);

    auto a = server.submit(uniform_job(2, 64, 1));
    auto b = server.submit(uniform_job(2, 64, 2));  // full queue, manual pump
    EXPECT_EQ(b.result.get().status, Status::Rejected);
    server.pump();
    EXPECT_TRUE(a.result.get().ok());
    EXPECT_EQ(server.stats().health.shed_total(), 0u);
}

// ---------------------------------------------------------------------------
// Serve wiring: brownout ladder.

TEST(HealthServe, BrownoutL3ShedsIncomingLowPriority) {
    auto dev = make_device();
    ServerConfig cfg = health_config();
    // Thresholds at ~zero: the first enqueue sample pushes occupancy past
    // every rung, so the ladder sits at L3 for the next arrival.
    cfg.health.brownout_l1 = 1e-9;
    cfg.health.brownout_l2 = 2e-9;
    cfg.health.brownout_l3 = 3e-9;
    cfg.health.brownout_hysteresis = 0.0;
    Server server(dev, cfg);

    auto first = server.submit(uniform_job(2, 64, 1));  // escalates the ladder
    auto low = server.submit(uniform_job(2, 64, 2, Priority::Low));
    Response r = low.result.get();
    EXPECT_EQ(r.status, Status::Shed);
    EXPECT_NE(r.error.find("brownout"), std::string::npos) << r.error;

    // Normal-priority work is never brownout-shed.
    auto normal = server.submit(uniform_job(2, 64, 3));
    server.pump();
    EXPECT_TRUE(first.result.get().ok());
    EXPECT_TRUE(normal.result.get().ok());

    const auto stats = server.stats();
    EXPECT_EQ(stats.health.shed_brownout, 1u);
    EXPECT_GE(stats.health.brownout_escalations, 1u);
}

TEST(HealthServe, BrownoutL1SkipsResponseVerification) {
    auto dev = make_device();
    ServerConfig cfg = health_config();
    cfg.verify_responses = true;
    cfg.health.brownout_l1 = 1e-9;  // L1 from the first sample on
    cfg.health.brownout_l2 = 1.5;   // but never L2/L3
    cfg.health.brownout_l3 = 2.0;
    Server server(dev, cfg);

    auto job = uniform_job(4, 64, 7);
    const auto want = sorted_rows(job.values, 4, 64);
    auto t1 = server.submit(std::move(job));
    auto t2 = server.submit(uniform_job(4, 64, 8));
    server.pump();
    EXPECT_EQ(t1.result.get().values, want);  // bytes still correct, just unverified
    EXPECT_TRUE(t2.result.get().ok());
    EXPECT_GE(server.stats().health.verify_skipped_batches, 1u);
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
    EXPECT_EQ(stats.health.shed_total(), 0u);
    EXPECT_EQ(stats.health.brownout_level, 0);
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
