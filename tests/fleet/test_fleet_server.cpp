// gas::serve::Server over a DeviceFleet: least-loaded placement end to end,
// idle work stealing, device-loss quarantine + byte-identical re-routing, the
// queue-depth ledger, the last-device-standing host fallback, heterogeneous
// eligibility, and the concurrent (scheduler-thread) fleet path.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "core/gpu_array_sort.hpp"
#include "fleet/fleet.hpp"
#include "workload/generators.hpp"

namespace {

using gas::fleet::DeviceFleet;
using gas::serve::Job;
using gas::serve::JobKind;
using gas::serve::Response;
using gas::serve::Server;
using gas::serve::ServerConfig;
using gas::serve::Status;

ServerConfig manual_config() {
    ServerConfig cfg;
    cfg.manual_pump = true;
    cfg.retry.seed = 31;
    return cfg;
}

Job uniform_job(std::size_t num_arrays, std::size_t array_size, unsigned seed) {
    Job job;
    job.kind = JobKind::Uniform;
    job.num_arrays = num_arrays;
    job.array_size = array_size;
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

TEST(FleetServer, LeastLoadedSpreadsEqualWorkEvenly) {
    DeviceFleet fleet(4, simt::tiny_device(256 << 20));
    Server server(fleet, manual_config());
    ASSERT_EQ(server.num_devices(), 4u);

    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> expected;
    for (unsigned i = 0; i < 8; ++i) {
        auto job = uniform_job(4, 64, i);
        expected.push_back(sorted_rows(job.values, 4, 64));
        tickets.push_back(server.submit(std::move(job)));
    }
    server.pump();

    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_FALSE(r.cpu_fallback);
        EXPECT_EQ(r.values, expected[i]);
    }
    const auto stats = server.stats();
    ASSERT_EQ(stats.devices.size(), 4u);
    for (const auto& d : stats.devices) {
        EXPECT_EQ(d.routed, 2u) << d.name;  // equal jobs round-robin the fleet
        EXPECT_EQ(d.completed, 2u) << d.name;
        EXPECT_GT(d.modeled_kernel_ms, 0.0) << d.name;
    }
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_EQ(stats.reroutes, 0u);
    EXPECT_EQ(stats.devices_quarantined, 0u);
}

TEST(FleetServer, FleetBytesMatchSingleDeviceBytes) {
    std::vector<Response> fleet_responses;
    {
        DeviceFleet fleet(3, simt::tiny_device(256 << 20));
        Server server(fleet, manual_config());
        std::vector<Server::Ticket> tickets;
        for (unsigned i = 0; i < 6; ++i) {
            tickets.push_back(server.submit(uniform_job(4, 100, 100 + i)));
        }
        server.pump();
        for (auto& t : tickets) fleet_responses.push_back(t.result.get());
    }
    simt::Device solo(simt::tiny_device(256 << 20));
    Server server(solo, manual_config());
    std::vector<Server::Ticket> tickets;
    for (unsigned i = 0; i < 6; ++i) {
        tickets.push_back(server.submit(uniform_job(4, 100, 100 + i)));
    }
    server.pump();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response solo_r = tickets[i].result.get();
        ASSERT_EQ(solo_r.status, Status::Ok);
        ASSERT_EQ(fleet_responses[i].status, Status::Ok);
        EXPECT_EQ(fleet_responses[i].values, solo_r.values)
            << "request " << i << " bytes depend on which device served it";
    }
}

TEST(FleetServer, IdleShardStealsFromTheLoadedPeer) {
    DeviceFleet fleet(2, simt::tiny_device(256 << 20));
    auto cfg = manual_config();
    cfg.max_batch_requests = 2;  // small batches leave a backlog to steal
    cfg.max_steal_requests = 2;
    Server server(fleet, cfg);

    // Equal requests alternate between the two shards; cancelling shard 1's
    // half leaves the whole backlog on shard 0, so shard 1 has to steal.
    std::vector<Server::Ticket> tickets;
    std::vector<Server::Ticket> cancelled;
    const auto expected =
        sorted_rows(uniform_job(4, 64, /*seed=*/9).values, 4, 64);
    for (unsigned rep = 0; rep < 24; ++rep) {
        auto& dst = rep % 2 == 0 ? tickets : cancelled;
        dst.push_back(server.submit(uniform_job(4, 64, /*seed=*/9)));
    }
    for (auto& t : cancelled) ASSERT_TRUE(server.cancel(t.id));
    ASSERT_EQ(server.stats().devices[0].queue_depth, 12u);
    ASSERT_EQ(server.stats().devices[1].queue_depth, 0u);
    server.pump();

    for (auto& t : cancelled) EXPECT_EQ(t.result.get().status, Status::Cancelled);
    for (auto& t : tickets) {
        Response r = t.result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_EQ(r.values, expected);  // stolen or not, bytes are identical
    }
    const auto stats = server.stats();
    EXPECT_GT(stats.steals, 0u);
    std::uint64_t steals_in = 0;
    std::uint64_t steals_out = 0;
    for (const auto& d : stats.devices) {
        steals_in += d.steals_in;
        steals_out += d.steals_out;
        EXPECT_GT(d.completed, 0u) << d.name << " never served anything";
    }
    EXPECT_EQ(steals_in, stats.steals);
    EXPECT_EQ(steals_out, stats.steals);
}

TEST(FleetServer, DeviceLossReroutesBitIdentically) {
    DeviceFleet fleet(2, simt::tiny_device(256 << 20));
    Server server(fleet, manual_config());

    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> expected;
    for (unsigned i = 0; i < 6; ++i) {
        auto job = uniform_job(4, 64, 200 + i);
        expected.push_back(sorted_rows(job.values, 4, 64));
        tickets.push_back(server.submit(std::move(job)));
    }
    // Device 0 dies before any batch runs: its first batch exhausts the
    // retry budget, the shard quarantines, and everything re-homes on
    // device 1.
    fleet.device(0).set_fault_plan(kill_plan());
    server.pump();

    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_FALSE(r.cpu_fallback) << "request " << i << " fell to the host";
        EXPECT_EQ(r.values, expected[i]) << "request " << i;
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.devices_quarantined, 1u);
    EXPECT_GT(stats.reroutes, 0u);
    EXPECT_TRUE(stats.devices[0].quarantined);
    EXPECT_FALSE(stats.devices[1].quarantined);
    EXPECT_EQ(stats.devices[0].reroutes_out, stats.devices[1].reroutes_in);
    EXPECT_EQ(stats.devices[1].completed, 6u);
    EXPECT_EQ(stats.cpu_fallbacks, 0u);

    // New work avoids the quarantined device.
    auto late = server.submit(uniform_job(4, 64, 300));
    server.pump();
    EXPECT_EQ(late.result.get().status, Status::Ok);
    const auto after = server.stats();
    EXPECT_EQ(after.devices[0].routed, stats.devices[0].routed);
    EXPECT_EQ(after.devices[1].completed, 7u);
}

TEST(FleetServer, QueueLedgerBalancesThroughEveryQueueChange) {
    DeviceFleet fleet(2, simt::tiny_device(256 << 20));
    // Equal requests alternate between the shards; cancelling shard 1's
    // leaves every survivor on shard 0, so shard 1 has to steal.  Device 1
    // refuses every launch, so the batch it steals exhausts its retries and
    // re-routes to device 0.
    fleet.device(1).set_fault_plan(kill_plan());
    auto cfg = manual_config();
    cfg.queue_capacity = 8;
    cfg.max_batch_requests = 2;
    cfg.max_steal_requests = 2;
    cfg.health.enabled = true;  // queue-full admission sheds instead of rejecting
    Server server(fleet, cfg);

    // The fleet-wide depth must equal the sum of the per-device depths.
    const auto depth = [&server] {
        const auto s = server.stats();
        std::size_t sum = 0;
        for (const auto& d : s.devices) sum += d.queue_depth;
        EXPECT_EQ(s.queue_depth, sum);
        return s.queue_depth;
    };

    // Request 6 (on shard 0) carries a deadline that lapses while queued.
    std::vector<Server::Ticket> tickets;
    gas::serve::Clock::time_point deadline{};
    for (unsigned i = 0; i < 8; ++i) {
        auto job = uniform_job(4, 64, /*seed=*/9);
        if (i == 6) deadline = *job.with_deadline_ms(50.0).deadline;
        tickets.push_back(server.submit(std::move(job)));
        EXPECT_EQ(depth(), i + 1);
    }
    // Queue full: the oldest queued request (tickets[0]) makes room.
    tickets.push_back(server.submit(uniform_job(4, 64, /*seed=*/9)));
    EXPECT_EQ(depth(), 8u);
    for (std::size_t i = 1; i < 8; i += 2) {
        ASSERT_TRUE(server.cancel(tickets[i].id));
    }
    EXPECT_EQ(depth(), 4u);
    ASSERT_EQ(server.stats().devices[1].queue_depth, 0u);

    std::this_thread::sleep_until(deadline);
    server.pump();
    EXPECT_EQ(depth(), 0u);
    for (const auto& d : server.stats().devices) EXPECT_EQ(d.queue_depth, 0u) << d.name;

    const auto expected = sorted_rows(uniform_job(4, 64, /*seed=*/9).values, 4, 64);
    std::size_t ok = 0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        auto& fut = tickets[i].result;
        ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready)
            << "request " << i << " never resolved";
        const Response r = fut.get();
        const Status want = i == 0       ? Status::Shed
                            : i % 2 == 1 ? Status::Cancelled
                            : i == 6     ? Status::TimedOut
                                         : Status::Ok;
        EXPECT_EQ(r.status, want) << "request " << i << ": " << r.error;
        if (want == Status::Ok) {
            EXPECT_EQ(r.values, expected) << "request " << i;
            ++ok;
        }
    }
    const auto stats = server.stats();
    EXPECT_GT(stats.steals, 0u);
    EXPECT_GT(stats.reroutes, 0u);
    EXPECT_TRUE(stats.devices[1].quarantined);
    EXPECT_EQ(ok, 3u);  // requests 2, 4 and 8
    EXPECT_EQ(stats.completed, ok);
}

TEST(FleetServer, LastDeviceStandingQuarantinesToHostNotFleet) {
    simt::Device dev(simt::tiny_device(256 << 20));
    dev.set_fault_plan(kill_plan());
    Server server(dev, manual_config());

    auto job = uniform_job(4, 64, 11);
    const auto expected = sorted_rows(job.values, 4, 64);
    auto ticket = server.submit(std::move(job));
    server.pump();

    Response r = ticket.result.get();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
    EXPECT_TRUE(r.cpu_fallback);
    EXPECT_EQ(r.values, expected);
    const auto stats = server.stats();
    // Single-device semantics survive the fleet generalization: the batch
    // quarantines to the host, the device itself is never written off.
    EXPECT_EQ(stats.devices_quarantined, 0u);
    EXPECT_FALSE(stats.devices[0].quarantined);
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.reroutes, 0u);
}

TEST(FleetServer, AllDevicesLostStillServesEveryRequest) {
    DeviceFleet fleet(2, simt::tiny_device(256 << 20));
    fleet.device(0).set_fault_plan(kill_plan());
    fleet.device(1).set_fault_plan(kill_plan());
    Server server(fleet, manual_config());

    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> expected;
    for (unsigned i = 0; i < 4; ++i) {
        auto job = uniform_job(4, 64, 400 + i);
        expected.push_back(sorted_rows(job.values, 4, 64));
        tickets.push_back(server.submit(std::move(job)));
    }
    server.pump();

    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_EQ(r.values, expected[i]);
        EXPECT_TRUE(r.cpu_fallback);
    }
    const auto stats = server.stats();
    // One device quarantines; the last live one degrades batch by batch to
    // the host instead of being written off.
    EXPECT_EQ(stats.devices_quarantined, 1u);
    EXPECT_EQ(stats.completed, 4u);
}

TEST(FleetServer, HeterogeneousFleetRoutesAroundTheSmallDevice) {
    DeviceFleet fleet(std::vector<simt::DeviceProperties>{
        simt::tiny_device(256 << 10), simt::tiny_device(256 << 20)});
    Server server(fleet, manual_config());

    // Too big for the small device's budget, comfortable on the large one;
    // the premise is asserted against the footprint model so a geometry
    // change fails loudly rather than silently routing differently.
    const std::size_t kArrays = 64;
    const std::size_t kSize = 1024;
    const auto budget = [](const simt::Device& d) {
        return static_cast<std::size_t>(
            static_cast<double>(d.memory().capacity()) * 0.9);
    };
    ASSERT_GT(gas::device_footprint_bytes(kArrays, kSize, gas::Options{},
                                          fleet.device(0).props()),
              budget(fleet.device(0)));
    ASSERT_LE(gas::device_footprint_bytes(3 * kArrays, kSize, gas::Options{},
                                          fleet.device(1).props()),
              budget(fleet.device(1)));

    std::vector<Server::Ticket> tickets;
    for (unsigned i = 0; i < 3; ++i) {
        tickets.push_back(server.submit(uniform_job(kArrays, kSize, 500 + i)));
    }
    server.pump();
    for (auto& t : tickets) {
        Response r = t.result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_FALSE(r.cpu_fallback);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.devices[0].routed, 0u);  // ineligible despite zero load
    EXPECT_EQ(stats.devices[1].routed, 3u);
    EXPECT_EQ(stats.devices[1].completed, 3u);
}

TEST(FleetServer, StatsJsonCarriesTheFleetBlock) {
    DeviceFleet fleet(2, simt::tiny_device(64 << 20));
    Server server(fleet, manual_config());
    (void)server.submit(uniform_job(2, 32, 1));
    server.pump();
    const std::string json = server.stats_json();
    EXPECT_NE(json.find("\"fleet\""), std::string::npos);
    EXPECT_NE(json.find("\"per_device\""), std::string::npos);
    EXPECT_NE(json.find("\"dev0\""), std::string::npos);
    EXPECT_NE(json.find("\"dev1\""), std::string::npos);
    EXPECT_NE(json.find("\"devices_quarantined\""), std::string::npos);
}

TEST(FleetServer, SchedulerThreadsServeConcurrentProducers) {
    DeviceFleet fleet(3, simt::tiny_device(256 << 20));
    Server server(fleet, ServerConfig{});

    constexpr unsigned kProducers = 4;
    constexpr unsigned kPerProducer = 15;
    std::vector<std::vector<Server::Ticket>> tickets(kProducers);
    std::vector<std::thread> producers;
    for (unsigned t = 0; t < kProducers; ++t) {
        producers.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerProducer; ++i) {
                tickets[t].push_back(
                    server.submit(uniform_job(2, 64, t * 1000 + i)));
            }
        });
    }
    for (auto& p : producers) p.join();
    server.drain();
    server.stop();

    std::size_t ok = 0;
    for (auto& per : tickets) {
        for (auto& t : per) {
            Response r = t.result.get();
            ASSERT_EQ(r.status, Status::Ok) << r.error;
            const auto expected = sorted_rows(r.values, 2, 64);
            EXPECT_EQ(r.values, expected);  // already sorted
            ++ok;
        }
    }
    EXPECT_EQ(ok, kProducers * kPerProducer);
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, kProducers * kPerProducer);
    EXPECT_EQ(stats.devices.size(), 3u);
}

TEST(FleetServer, SchedulerThreadsRerouteAroundADeadDevice) {
    DeviceFleet fleet(3, simt::tiny_device(256 << 20));
    // The plan is installed before the server exists: no thread is touching
    // the device yet, and its very first batch will kill it.
    fleet.device(1).set_fault_plan(kill_plan());
    ServerConfig cfg;
    cfg.retry.seed = 31;
    Server server(fleet, cfg);

    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> expected;
    for (unsigned i = 0; i < 30; ++i) {
        auto job = uniform_job(2, 64, 700 + i);
        expected.push_back(sorted_rows(job.values, 2, 64));
        tickets.push_back(server.submit(std::move(job)));
    }
    server.drain();
    server.stop();

    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_EQ(r.values, expected[i]) << "request " << i;
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 30u);
    // The dead device quarantines on its first batch — unless idle peers
    // stole its queue out from under it every time, in which case it simply
    // never executed anything.
    EXPECT_LE(stats.devices_quarantined, 1u);
    EXPECT_FALSE(stats.devices[0].quarantined);
    EXPECT_FALSE(stats.devices[2].quarantined);
}

}  // namespace
