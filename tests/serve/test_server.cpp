#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/gpu_array_sort.hpp"
#include "workload/generators.hpp"

namespace {

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

ServerConfig manual_config() {
    ServerConfig cfg;
    cfg.manual_pump = true;
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
                               std::size_t array_size, bool descending = false) {
    for (std::size_t a = 0; a < num_arrays; ++a) {
        auto* row = values.data() + a * array_size;
        if (descending) {
            std::sort(row, row + array_size, std::greater<float>());
        } else {
            std::sort(row, row + array_size);
        }
    }
    return values;
}

TEST(Server, ManualPumpBatchesCompatibleRequests) {
    auto dev = make_device();
    Server server(dev, manual_config());

    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> expected;
    for (unsigned i = 0; i < 8; ++i) {
        auto job = uniform_job(4, 64, i);
        expected.push_back(sorted_rows(job.values, 4, 64));
        tickets.push_back(server.submit(std::move(job)));
    }
    EXPECT_EQ(server.pump(), 8u);

    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_FALSE(r.cpu_fallback);
        EXPECT_EQ(r.values, expected[i]);
        EXPECT_EQ(r.batch_requests, 8u);  // all 8 fused into one batch
        EXPECT_EQ(r.batch_id, 1u);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.fused_arrays, 32u);
    EXPECT_DOUBLE_EQ(stats.batch_occupancy(), 8.0);
    EXPECT_GT(stats.modeled_kernel_ms, 0.0);
    EXPECT_EQ(stats.modeled_ms.count, 8u);
}

TEST(Server, ServedBytesMatchDirectSort) {
    auto job = uniform_job(6, 100, 77);
    auto direct = job.values;
    {
        auto dev = make_device();
        gas::gpu_array_sort(dev, direct, 6, 100);
    }
    auto dev = make_device();
    Server server(dev, manual_config());
    auto ticket = server.submit(std::move(job));
    // A second compatible request so the first rides a genuine fused batch.
    auto rider = server.submit(uniform_job(6, 100, 78));
    server.pump();
    EXPECT_EQ(ticket.result.get().values, direct);
    EXPECT_TRUE(rider.result.get().ok());
}

// Uniform batches run the fused row kernel; every request must still get
// the bytes of a direct gpu_array_sort (the three-phase pipeline) of it.
// Sorted rows are unique byte patterns, so the two kernels must agree.
struct UniformCase {
    workload::Distribution dist;
    gas::SortOrder order;
};

class UniformServeTable : public ::testing::TestWithParam<UniformCase> {};

TEST_P(UniformServeTable, ServedBytesMatchDirectGpuArraySort) {
    const auto [dist, order] = GetParam();
    unsigned seed = 100;
    for (const std::size_t requests : {1, 3}) {
        for (const std::size_t num_arrays : {4, 16}) {
            for (const std::size_t n : {64, 256, 1000, 4000}) {
                SCOPED_TRACE("x" + std::to_string(requests) + " N=" +
                             std::to_string(num_arrays) + " n=" + std::to_string(n));
                auto dev = make_device();
                Server server(dev, manual_config());
                std::vector<Server::Ticket> tickets;
                std::vector<std::vector<float>> direct;
                for (std::size_t r = 0; r < requests; ++r) {
                    Job job;
                    job.kind = JobKind::Uniform;
                    job.num_arrays = num_arrays;
                    job.array_size = n;
                    job.values = workload::make_dataset(num_arrays, n, dist, ++seed).values;
                    job.opts.order = order;
                    direct.push_back(job.values);
                    auto direct_dev = make_device();
                    gas::gpu_array_sort(direct_dev, direct.back(), num_arrays, n, job.opts);
                    tickets.push_back(server.submit(std::move(job)));
                }
                server.pump();
                for (std::size_t r = 0; r < requests; ++r) {
                    Response resp = tickets[r].result.get();
                    ASSERT_TRUE(resp.ok()) << resp.error;
                    EXPECT_FALSE(resp.cpu_fallback);
                    EXPECT_EQ(resp.batch_requests, requests);
                    EXPECT_EQ(resp.values, direct[r]);
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Server, UniformServeTable,
    ::testing::Values(UniformCase{workload::Distribution::Uniform, gas::SortOrder::Ascending},
                      UniformCase{workload::Distribution::Uniform, gas::SortOrder::Descending},
                      UniformCase{workload::Distribution::ZipfHot, gas::SortOrder::Ascending},
                      UniformCase{workload::Distribution::ZipfHot, gas::SortOrder::Descending},
                      UniformCase{workload::Distribution::NearlySorted,
                                  gas::SortOrder::Ascending},
                      UniformCase{workload::Distribution::NearlySorted,
                                  gas::SortOrder::Descending},
                      UniformCase{workload::Distribution::FewDistinct,
                                  gas::SortOrder::Ascending},
                      UniformCase{workload::Distribution::FewDistinct,
                                  gas::SortOrder::Descending}),
    [](const ::testing::TestParamInfo<UniformCase>& tp) {
        std::string name =
            workload::to_string(tp.param.dist) + "_" + gas::to_string(tp.param.order);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(Server, IncompatibleRequestsFormSeparateBatches) {
    auto dev = make_device();
    Server server(dev, manual_config());
    auto a = server.submit(uniform_job(4, 64, 1));
    auto b = server.submit(uniform_job(4, 128, 2));  // different n: no fusing
    server.pump();
    Response ra = a.result.get();
    Response rb = b.result.get();
    EXPECT_EQ(ra.batch_requests, 1u);
    EXPECT_EQ(rb.batch_requests, 1u);
    EXPECT_NE(ra.batch_id, rb.batch_id);
    EXPECT_EQ(server.stats().batches, 2u);
}

TEST(Server, MaxBatchArraysCapsFusion) {
    auto dev = make_device();
    auto cfg = manual_config();
    cfg.max_batch_arrays = 6;
    Server server(dev, cfg);
    auto a = server.submit(uniform_job(4, 64, 1));
    auto b = server.submit(uniform_job(4, 64, 2));  // 4 + 4 > 6: must not ride
    server.pump();
    EXPECT_EQ(a.result.get().batch_requests, 1u);
    EXPECT_EQ(b.result.get().batch_requests, 1u);
    EXPECT_EQ(server.stats().batches, 2u);
}

TEST(Server, RaggedJobMatchesOracle) {
    auto dev = make_device();
    Server server(dev, manual_config());

    auto ds = workload::make_ragged_dataset(10, 3, 300, workload::Distribution::Normal, 5);
    Job job;
    job.kind = JobKind::Ragged;
    job.values = ds.values;
    job.offsets.assign(ds.offsets.begin(), ds.offsets.end());

    auto expected = ds.values;
    for (std::size_t a = 0; a < ds.num_arrays(); ++a) {
        std::sort(expected.begin() + static_cast<std::ptrdiff_t>(ds.offsets[a]),
                  expected.begin() + static_cast<std::ptrdiff_t>(ds.offsets[a + 1]));
    }

    auto ticket = server.submit(std::move(job));
    auto rider = server.submit([&] {  // ragged jobs of different shape still fuse
        auto ds2 = workload::make_ragged_dataset(4, 2, 150, workload::Distribution::Uniform, 6);
        Job j;
        j.kind = JobKind::Ragged;
        j.values = ds2.values;
        j.offsets.assign(ds2.offsets.begin(), ds2.offsets.end());
        return j;
    }());
    server.pump();

    Response r = ticket.result.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.values, expected);
    EXPECT_EQ(r.batch_requests, 2u);
    EXPECT_TRUE(rider.result.get().ok());
}

TEST(Server, PairJobPermutesPayloadWithKeys) {
    auto dev = make_device();
    Server server(dev, manual_config());

    const std::size_t n = 50;
    Job job;
    job.kind = JobKind::Pairs;
    job.num_arrays = 3;
    job.array_size = n;
    job.values.resize(3 * n);
    job.payload.resize(3 * n);
    for (std::size_t i = 0; i < job.values.size(); ++i) {
        job.values[i] = static_cast<float>((i * 7919) % (3 * n));  // distinct per row
        job.payload[i] = static_cast<float>(i);
    }

    std::vector<std::pair<float, float>> oracle;
    std::vector<float> exp_keys(3 * n), exp_vals(3 * n);
    for (std::size_t a = 0; a < 3; ++a) {
        oracle.clear();
        for (std::size_t i = 0; i < n; ++i) {
            oracle.emplace_back(job.values[a * n + i], job.payload[a * n + i]);
        }
        std::sort(oracle.begin(), oracle.end());
        for (std::size_t i = 0; i < n; ++i) {
            exp_keys[a * n + i] = oracle[i].first;
            exp_vals[a * n + i] = oracle[i].second;
        }
    }

    auto ticket = server.submit(std::move(job));
    server.pump();
    Response r = ticket.result.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.values, exp_keys);
    EXPECT_EQ(r.payload, exp_vals);
}

TEST(Server, DescendingOrderIsServed) {
    auto dev = make_device();
    Server server(dev, manual_config());
    auto job = uniform_job(4, 80, 9);
    job.opts.order = gas::SortOrder::Descending;
    auto expected = sorted_rows(job.values, 4, 80, /*descending=*/true);
    auto ticket = server.submit(std::move(job));
    server.pump();
    EXPECT_EQ(ticket.result.get().values, expected);

    // Ragged: the device path (fused kernel + verify) and the CPU fallback
    // (forced by a device too small to stage the job) return the same bytes.
    const auto rag = workload::make_ragged_dataset(6, 0, 120, workload::Distribution::Normal, 9);
    Job ragged;
    ragged.kind = JobKind::Ragged;
    ragged.values = rag.values;
    ragged.offsets.assign(rag.offsets.begin(), rag.offsets.end());
    ragged.opts.order = gas::SortOrder::Descending;
    auto ragged_expected = ragged.values;
    for (std::size_t a = 0; a + 1 < ragged.offsets.size(); ++a) {
        std::sort(ragged_expected.begin() + static_cast<std::ptrdiff_t>(ragged.offsets[a]),
                  ragged_expected.begin() + static_cast<std::ptrdiff_t>(ragged.offsets[a + 1]),
                  std::greater<float>());
    }
    const auto serve_on = [&](simt::Device& d, const ServerConfig& cfg) {
        Server s(d, cfg);
        auto t = s.submit(Job(ragged));
        s.pump();
        return t.result.get();
    };
    auto verified_cfg = manual_config();
    verified_cfg.verify_responses = true;
    auto ragged_dev = make_device();
    const Response on_device = serve_on(ragged_dev, verified_cfg);
    ASSERT_TRUE(on_device.ok()) << on_device.error;
    EXPECT_FALSE(on_device.cpu_fallback);
    EXPECT_EQ(on_device.values, ragged_expected);

    auto small = make_device(1 << 10);
    const Response on_cpu = serve_on(small, manual_config());
    ASSERT_TRUE(on_cpu.ok()) << on_cpu.error;
    EXPECT_TRUE(on_cpu.cpu_fallback);
    EXPECT_EQ(on_cpu.values, on_device.values);
}

TEST(Server, ZeroCapacityQueueRejectsEverything) {
    auto dev = make_device();
    auto cfg = manual_config();
    cfg.queue_capacity = 0;
    Server server(dev, cfg);
    auto ticket = server.submit(uniform_job(2, 32, 1));
    Response r = ticket.result.get();
    EXPECT_EQ(r.status, Status::Rejected);
    EXPECT_EQ(r.values.size(), 2u * 32u);  // data handed back unsorted
    EXPECT_EQ(server.stats().rejected, 1u);
    EXPECT_EQ(server.pump(), 0u);
}

TEST(Server, FullQueueRejectsInManualMode) {
    auto dev = make_device();
    auto cfg = manual_config();
    cfg.queue_capacity = 2;
    Server server(dev, cfg);
    auto a = server.submit(uniform_job(2, 32, 1));
    auto b = server.submit(uniform_job(2, 32, 2));
    auto c = server.submit(uniform_job(2, 32, 3));
    EXPECT_EQ(c.result.get().status, Status::Rejected);
    server.pump();
    EXPECT_TRUE(a.result.get().ok());
    EXPECT_TRUE(b.result.get().ok());
    EXPECT_EQ(server.stats().queue_peak, 2u);
}

TEST(Server, DeadlineExpiredAtSubmitIsTimedOut) {
    auto dev = make_device();
    Server server(dev, manual_config());
    auto job = uniform_job(2, 32, 1);
    job.deadline = gas::serve::Clock::now() - std::chrono::milliseconds(5);
    auto ticket = server.submit(std::move(job));
    EXPECT_EQ(ticket.result.get().status, Status::TimedOut);
    EXPECT_EQ(server.stats().timed_out, 1u);
    EXPECT_EQ(server.stats().accepted, 0u);
}

TEST(Server, DeadlineExpiringInQueueIsTimedOut) {
    auto dev = make_device();
    Server server(dev, manual_config());
    // The deadline clock starts in with_deadline_ms, before submit runs, so
    // the margin must cover a slow submit under load.
    auto doomed = server.submit(uniform_job(2, 32, 1).with_deadline_ms(20.0));
    auto healthy = server.submit(uniform_job(2, 32, 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_EQ(server.pump(), 2u);  // both retired: one served, one timed out
    EXPECT_EQ(doomed.result.get().status, Status::TimedOut);
    EXPECT_TRUE(healthy.result.get().ok());
    EXPECT_EQ(server.stats().timed_out, 1u);
    EXPECT_EQ(server.stats().completed, 1u);
}

TEST(Server, OversizedRequestFallsBackWithoutAbortingBatch) {
    // 4 MB device: a 3.5 MB uniform request exceeds the 90% admission budget.
    auto dev = make_device(4 << 20);
    Server server(dev, manual_config());

    auto big = uniform_job(1, (3 << 20) / sizeof(float) + (1 << 18), 1);
    auto big_expected = sorted_rows(big.values, big.num_arrays, big.array_size);
    auto small_a = server.submit(uniform_job(4, 64, 2));
    auto big_ticket = server.submit(std::move(big));
    auto small_b = server.submit(uniform_job(4, 64, 3));
    EXPECT_EQ(server.pump(), 3u);

    Response rb = big_ticket.result.get();
    ASSERT_EQ(rb.status, Status::Ok) << rb.error;
    EXPECT_TRUE(rb.cpu_fallback);
    EXPECT_EQ(rb.values, big_expected);

    Response ra = small_a.result.get();
    Response rc = small_b.result.get();
    EXPECT_TRUE(ra.ok());
    EXPECT_TRUE(rc.ok());
    EXPECT_FALSE(ra.cpu_fallback);  // the small batch stayed on the device
    EXPECT_FALSE(rc.cpu_fallback);
    EXPECT_EQ(ra.batch_requests, 2u);
    EXPECT_EQ(server.stats().cpu_fallbacks, 1u);
    EXPECT_EQ(server.stats().completed, 3u);
}

TEST(Server, UniformRowTooLargeForSharedFallsBack) {
    auto dev = make_device();
    Server server(dev, manual_config());
    auto job = uniform_job(2, 16384, 4);  // over the fused kernel's shared budget
    const auto expected = sorted_rows(job.values, 2, 16384);
    auto ticket = server.submit(std::move(job));
    server.pump();
    Response r = ticket.result.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.cpu_fallback);
    EXPECT_EQ(r.values, expected);
    EXPECT_EQ(server.stats().cpu_fallbacks, 1u);
}

TEST(Server, PairRowTooLargeForSharedFallsBack) {
    auto dev = make_device();
    Server server(dev, manual_config());
    const std::size_t n = 13000;  // over the fused pair kernel's shared budget
    Job job;
    job.kind = JobKind::Pairs;
    job.num_arrays = 1;
    job.array_size = n;
    job.values.resize(n);
    job.payload.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        job.values[i] = static_cast<float>(n - i);
        job.payload[i] = static_cast<float>(i);
    }
    auto ticket = server.submit(std::move(job));
    server.pump();
    Response r = ticket.result.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.cpu_fallback);
    EXPECT_TRUE(std::is_sorted(r.values.begin(), r.values.end()));
    EXPECT_EQ(r.payload.front(), static_cast<float>(n - 1));  // permuted along
}

TEST(Server, CancelRemovesQueuedRequest) {
    auto dev = make_device();
    Server server(dev, manual_config());
    auto ticket = server.submit(uniform_job(2, 32, 1));
    EXPECT_TRUE(server.cancel(ticket.id));
    EXPECT_FALSE(server.cancel(ticket.id));  // already gone
    EXPECT_EQ(ticket.result.get().status, Status::Cancelled);
    EXPECT_EQ(server.pump(), 0u);
    EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST(Server, StopCancelPendingCompletesQueuedAsCancelled) {
    auto dev = make_device();
    Server server(dev, manual_config());
    auto a = server.submit(uniform_job(2, 32, 1));
    auto b = server.submit(uniform_job(2, 32, 2));
    server.stop(/*cancel_pending=*/true);
    EXPECT_EQ(a.result.get().status, Status::Cancelled);
    EXPECT_EQ(b.result.get().status, Status::Cancelled);
    // The server is stopped: new submissions are rejected.
    EXPECT_EQ(server.submit(uniform_job(2, 32, 3)).result.get().status, Status::Rejected);
    EXPECT_EQ(server.stats().cancelled, 2u);
}

TEST(Server, GracefulStopServesQueuedRequests) {
    auto dev = make_device();
    Server server(dev, manual_config());
    auto a = server.submit(uniform_job(2, 32, 1));
    auto b = server.submit(uniform_job(2, 32, 2));
    server.stop(/*cancel_pending=*/false);
    EXPECT_TRUE(a.result.get().ok());
    EXPECT_TRUE(b.result.get().ok());
    server.stop();  // idempotent
}

TEST(Server, HighPriorityServedFirst) {
    auto dev = make_device();
    auto cfg = manual_config();
    cfg.max_batch_requests = 1;  // one request per batch: order == batch_id
    Server server(dev, cfg);
    auto low = server.submit([&] {
        auto j = uniform_job(2, 32, 1);
        j.priority = Priority::Low;
        return j;
    }());
    auto normal = server.submit(uniform_job(2, 32, 2));
    auto high = server.submit([&] {
        auto j = uniform_job(2, 32, 3);
        j.priority = Priority::High;
        return j;
    }());
    server.pump();
    EXPECT_EQ(high.result.get().batch_id, 1u);
    EXPECT_EQ(normal.result.get().batch_id, 2u);
    EXPECT_EQ(low.result.get().batch_id, 3u);
}

TEST(Server, MalformedJobsThrow) {
    auto dev = make_device();
    Server server(dev, manual_config());

    Job undersized;
    undersized.kind = JobKind::Uniform;
    undersized.num_arrays = 4;
    undersized.array_size = 64;
    undersized.values.resize(10);
    EXPECT_THROW((void)server.submit(std::move(undersized)), std::invalid_argument);

    Job bad_offsets;
    bad_offsets.kind = JobKind::Ragged;
    bad_offsets.values.resize(10);
    bad_offsets.offsets = {0, 7, 5, 10};
    EXPECT_THROW((void)server.submit(std::move(bad_offsets)), std::invalid_argument);

    Job no_payload;
    no_payload.kind = JobKind::Pairs;
    no_payload.num_arrays = 1;
    no_payload.array_size = 8;
    no_payload.values.resize(8);
    EXPECT_THROW((void)server.submit(std::move(no_payload)), std::invalid_argument);
}

TEST(Server, EmptyJobCompletesImmediately) {
    auto dev = make_device();
    Server server(dev, manual_config());
    Job job;  // zero arrays
    auto ticket = server.submit(std::move(job));
    EXPECT_TRUE(ticket.result.get().ok());  // no pump needed
    EXPECT_EQ(server.stats().completed, 1u);
}

TEST(Server, PumpThrowsOnAsyncServer) {
    auto dev = make_device();
    Server server(dev, ServerConfig{});
    EXPECT_THROW((void)server.pump(), std::logic_error);
    server.stop();
}

TEST(Server, RejectsInvalidConfig) {
    auto dev = make_device();
    ServerConfig zero_streams;
    zero_streams.num_streams = 0;
    EXPECT_THROW(Server(dev, zero_streams), std::invalid_argument);
    ServerConfig no_batch;
    no_batch.max_batch_requests = 0;
    EXPECT_THROW(Server(dev, no_batch), std::invalid_argument);
}

TEST(Server, StatsJsonHasTheStableSections) {
    auto dev = make_device();
    Server server(dev, manual_config());
    server.submit(uniform_job(2, 32, 1)).result.wait_for(std::chrono::seconds(0));
    server.pump();
    const std::string j = server.stats_json();
    for (const char* key : {"\"requests\"", "\"batching\"", "\"queue\"", "\"modeled\"",
                            "\"pool\"", "\"latency\"", "\"p99\"", "\"compute_utilization\""}) {
        EXPECT_NE(j.find(key), std::string::npos) << key << " missing from:\n" << j;
    }
}

TEST(LatencyDigest, SummaryMatchesPercentileWithTies) {
    gas::serve::LatencyDigest d;
    EXPECT_EQ(gas::serve::summarize(d).p99, 0.0);
    for (const double ms : {5.0, 1.0, 3.0, 3.0, 9.0, 1.0, 3.0, 7.0, 9.0, 2.0, 3.0}) {
        d.record(ms);
    }
    const gas::serve::LatencySummary s = gas::serve::summarize(d);
    EXPECT_EQ(s.count, d.count());
    EXPECT_EQ(s.mean, d.mean());
    EXPECT_EQ(s.p50, d.percentile(50.0));
    EXPECT_EQ(s.p95, d.percentile(95.0));
    EXPECT_EQ(s.p99, d.percentile(99.0));
    EXPECT_EQ(s.max, d.max());
    EXPECT_EQ(s.p50, 3.0);
    EXPECT_EQ(s.p99, 9.0);
}

TEST(Server, AsyncProducersDrainToCompletion) {
    auto dev = make_device();
    ServerConfig cfg;
    cfg.queue_capacity = 8;  // force backpressure on the producers
    cfg.num_streams = 2;
    Server server(dev, cfg);

    constexpr std::size_t kProducers = 4;
    constexpr std::size_t kPerProducer = 25;
    std::vector<std::vector<Server::Ticket>> tickets(kProducers);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (std::size_t i = 0; i < kPerProducer; ++i) {
                tickets[p].push_back(server.submit(
                    uniform_job(2, 64, static_cast<unsigned>(p * 1000 + i))));
            }
        });
    }
    for (auto& t : producers) t.join();

    std::size_t ok = 0;
    for (auto& per_producer : tickets) {
        for (auto& t : per_producer) {
            Response r = t.result.get();
            ASSERT_EQ(r.status, Status::Ok) << r.error;
            ++ok;
        }
    }
    EXPECT_EQ(ok, kProducers * kPerProducer);
    server.drain();

    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, kProducers * kPerProducer);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.wall_ms.count, kProducers * kPerProducer);
    EXPECT_GT(stats.modeled_overlap_ms, 0.0);
    EXPECT_GE(stats.modeled_serial_ms, stats.modeled_overlap_ms);
    EXPECT_LE(stats.compute_utilization, 1.0 + 1e-9);
    server.stop();
}

TEST(Server, AsyncGracefulStopServesQueuedRequests) {
    auto dev = make_device();
    ServerConfig cfg;
    cfg.linger_us = 200.0;  // encourage a still-queued tail at stop()
    Server server(dev, cfg);
    std::vector<Server::Ticket> tickets;
    for (unsigned i = 0; i < 16; ++i) {
        tickets.push_back(server.submit(uniform_job(2, 64, i)));
    }
    server.stop(/*cancel_pending=*/false);
    for (auto& t : tickets) {
        EXPECT_EQ(t.result.get().status, Status::Ok);
    }
}

TEST(Server, PoolReusesBuffersAcrossBatches) {
    auto dev = make_device();
    Server server(dev, manual_config());
    for (unsigned round = 0; round < 4; ++round) {
        std::vector<Server::Ticket> tickets;
        for (unsigned i = 0; i < 4; ++i) {
            tickets.push_back(server.submit(uniform_job(4, 64, round * 10 + i)));
        }
        server.pump();
        for (auto& t : tickets) ASSERT_TRUE(t.result.get().ok());
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.batches, 4u);
    // Every batch after the first leases the same size class from the pool.
    EXPECT_EQ(stats.pool.device_allocs, 1u);
    EXPECT_EQ(stats.pool.reuse_hits, 3u);
}

}  // namespace
