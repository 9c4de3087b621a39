// Server resilience (gas::resilient wiring): fused-batch retries, pool
// acquisition retries, per-request verification + quarantine, and the
// off-mode guarantee that verification adds nothing when disabled.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "workload/generators.hpp"

namespace {

using gas::serve::Job;
using gas::serve::JobKind;
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

TEST(ServerResilience, TransientLaunchFaultRetriesTheFusedBatch) {
    auto dev = make_device();
    simt::faults::FaultPlan plan;
    plan.launch_fail_at = {1};  // refuse the first attempt's sort launch
    dev.set_fault_plan(plan);
    Server server(dev, manual_config());

    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> expected;
    for (unsigned i = 0; i < 4; ++i) {
        auto job = uniform_job(4, 64, i);
        expected.push_back(sorted_rows(job.values, 4, 64));
        tickets.push_back(server.submit(std::move(job)));
    }
    server.pump();

    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_FALSE(r.cpu_fallback);  // the retry succeeded on the device
        EXPECT_EQ(r.values, expected[i]);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(stats.verify_failures, 0u);
    EXPECT_GT(stats.retry_backoff_ms, 0.0);
    EXPECT_EQ(dev.fault_report().launch_failures, 1u);
}

TEST(ServerResilience, ExhaustedRetriesQuarantineTheWholeBatchToHost) {
    auto dev = make_device();
    simt::faults::FaultPlan plan;
    plan.launch_fail_every = 1;  // the device never works
    dev.set_fault_plan(plan);
    auto cfg = manual_config();
    cfg.retry.max_attempts = 2;
    Server server(dev, cfg);

    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> expected;
    for (unsigned i = 0; i < 3; ++i) {
        auto job = uniform_job(4, 64, 10 + i);
        expected.push_back(sorted_rows(job.values, 4, 64));
        tickets.push_back(server.submit(std::move(job)));
    }
    server.pump();

    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_TRUE(r.cpu_fallback);  // served, but by the host path
        EXPECT_EQ(r.values, expected[i]);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.retries, 1u);      // max_attempts - 1 batch re-attempts
    EXPECT_EQ(stats.quarantined, 3u);  // every request isolated to the host
    EXPECT_EQ(stats.cpu_fallbacks, 3u);
}

TEST(ServerResilience, NonTransientErrorsDoNotRetry) {
    // A request too large for the queue-to-device path never reaches retry
    // machinery; more importantly, retry counters stay untouched on a plain
    // fault-free run.
    auto dev = make_device();
    Server server(dev, manual_config());
    auto t = server.submit(uniform_job(4, 64, 1));
    server.pump();
    EXPECT_TRUE(t.result.get().ok());
    const auto stats = server.stats();
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.alloc_retries, 0u);
    EXPECT_EQ(stats.quarantined, 0u);
    EXPECT_EQ(stats.verify_failures, 0u);
    EXPECT_EQ(stats.retry_backoff_ms, 0.0);
}

TEST(ServerResilience, AllocationFaultRetriesThroughThePoolTrim) {
    auto dev = make_device();
    simt::faults::FaultPlan plan;
    plan.alloc_fail_at = {1};  // first pool acquisition refused once
    dev.set_fault_plan(plan);
    Server server(dev, manual_config());
    auto t = server.submit(uniform_job(4, 64, 2));
    server.pump();
    Response r = t.result.get();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
    EXPECT_FALSE(r.cpu_fallback);
    const auto stats = server.stats();
    EXPECT_EQ(stats.alloc_retries, 1u);
    EXPECT_EQ(stats.retries, 0u);  // cured below the batch level
    EXPECT_GT(stats.retry_backoff_ms, 0.0);
}

TEST(ServerResilience, VerifyResponsesQuarantinesOnlyTheCorruptedRequest) {
    const std::size_t arrays = 4;
    const std::size_t n = 64;

    // Count the launches of one clean verified batch: the verify kernel is
    // last, so corrupting (undetected) at that ordinal flips a bit in the
    // fused data buffer after the sort finished writing it.
    std::size_t verify_ordinal = 0;
    {
        auto dev = make_device();
        auto cfg = manual_config();
        cfg.verify_responses = true;
        Server server(dev, cfg);
        std::vector<Server::Ticket> tickets;
        for (unsigned i = 0; i < 4; ++i) {
            tickets.push_back(server.submit(uniform_job(arrays, n, 20 + i)));
        }
        server.pump();
        for (auto& t : tickets) EXPECT_TRUE(t.result.get().ok());
        verify_ordinal = dev.kernel_log().size();
        ASSERT_EQ(dev.kernel_log().back().name, "gas.verify");
        EXPECT_EQ(server.stats().verify_failures, 0u);
    }

    auto dev = make_device();
    simt::faults::FaultPlan plan;
    plan.corrupt_at = {verify_ordinal};
    plan.detected = false;  // silent: only response verification can see it
    dev.set_fault_plan(plan);
    auto cfg = manual_config();
    cfg.verify_responses = true;
    Server server(dev, cfg);

    std::vector<Server::Ticket> tickets;
    std::vector<std::vector<float>> expected;
    for (unsigned i = 0; i < 4; ++i) {
        auto job = uniform_job(arrays, n, 20 + i);
        expected.push_back(sorted_rows(job.values, arrays, n));
        tickets.push_back(server.submit(std::move(job)));
    }
    server.pump();

    std::size_t fallbacks = 0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        Response r = tickets[i].result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_EQ(r.values, expected[i]) << "request " << i << " returned wrong bytes";
        fallbacks += r.cpu_fallback ? 1 : 0;
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.verify_failures, 1u);  // one bit flip -> one row -> one request
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(fallbacks, 1u);  // its batchmates were served from the device
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(dev.fault_report().corruptions, 1u);
}

TEST(ServerResilience, VerifyOffReproducesTodaysBytes) {
    auto run = [](bool verify) {
        auto dev = make_device();
        auto cfg = manual_config();
        cfg.verify_responses = verify;
        Server server(dev, cfg);
        std::vector<Server::Ticket> tickets;
        for (unsigned i = 0; i < 4; ++i) {
            tickets.push_back(server.submit(uniform_job(4, 96, 40 + i)));
        }
        server.pump();
        std::vector<std::vector<float>> out;
        for (auto& t : tickets) out.push_back(t.result.get().values);
        return std::pair{out, server.stats()};
    };
    const auto [plain, plain_stats] = run(false);
    const auto [verified, verified_stats] = run(true);
    EXPECT_EQ(plain, verified);
    // Verification is honestly modeled (extra kernel time) but free when off.
    EXPECT_GT(verified_stats.modeled_kernel_ms, plain_stats.modeled_kernel_ms);
    EXPECT_EQ(plain_stats.verify_failures, 0u);
    EXPECT_EQ(verified_stats.verify_failures, 0u);
}

TEST(ServerResilience, StatsJsonReportsTheResilienceBlock) {
    auto dev = make_device();
    simt::faults::FaultPlan plan;
    plan.launch_fail_at = {1};
    dev.set_fault_plan(plan);
    Server server(dev, manual_config());
    auto t = server.submit(uniform_job(4, 64, 3));
    auto rider = server.submit(uniform_job(4, 64, 4));
    server.pump();
    EXPECT_TRUE(t.result.get().ok());
    EXPECT_TRUE(rider.result.get().ok());
    const std::string json = server.stats_json();
    EXPECT_NE(json.find("\"resilience\""), std::string::npos);
    EXPECT_NE(json.find("\"retries\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"quarantined\": 0"), std::string::npos);
}

TEST(ServerResilience, RaggedAndPairBatchesVerifyToo) {
    // Ragged: fault-free verified run serves correct bytes with no
    // quarantine; the ragged device path sorts ascending by contract.
    {
        auto dev = make_device();
        auto cfg = manual_config();
        cfg.verify_responses = true;
        Server server(dev, cfg);
        auto rag = workload::make_ragged_dataset(6, 2, 48, workload::Distribution::Uniform, 50);
        Job job;
        job.kind = JobKind::Ragged;
        job.offsets.assign(rag.offsets.begin(), rag.offsets.end());
        job.values = rag.values;
        auto want = rag.values;
        for (std::size_t a = 0; a + 1 < job.offsets.size(); ++a) {
            std::sort(want.begin() + static_cast<std::ptrdiff_t>(job.offsets[a]),
                      want.begin() + static_cast<std::ptrdiff_t>(job.offsets[a + 1]));
        }
        auto t = server.submit(std::move(job));
        server.pump();
        Response r = t.result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        EXPECT_EQ(r.values, want);
        EXPECT_EQ(server.stats().verify_failures, 0u);
    }
    // Pairs: verified run keeps keys sorted and payloads bound.
    {
        auto dev = make_device();
        auto cfg = manual_config();
        cfg.verify_responses = true;
        Server server(dev, cfg);
        Job job;
        job.kind = JobKind::Pairs;
        job.num_arrays = 4;
        job.array_size = 32;
        job.values = workload::make_dataset(4, 32, workload::Distribution::Uniform, 51).values;
        job.payload.resize(job.values.size());
        for (std::size_t i = 0; i < job.payload.size(); ++i) {
            job.payload[i] = static_cast<float>(i);
        }
        const auto keys_in = job.values;
        auto t = server.submit(std::move(job));
        server.pump();
        Response r = t.result.get();
        ASSERT_EQ(r.status, Status::Ok) << r.error;
        for (std::size_t a = 0; a < 4; ++a) {
            EXPECT_TRUE(std::is_sorted(r.values.begin() + static_cast<std::ptrdiff_t>(a * 32),
                                       r.values.begin() + static_cast<std::ptrdiff_t>((a + 1) * 32)));
            for (std::size_t i = 0; i < 32; ++i) {
                // payload j travelled with key: key_out[i] == keys_in[payload[i]]
                const auto j = static_cast<std::size_t>(r.payload[a * 32 + i]);
                EXPECT_EQ(r.values[a * 32 + i], keys_in[j]);
            }
        }
        EXPECT_EQ(server.stats().verify_failures, 0u);
        EXPECT_EQ(server.stats().quarantined, 0u);
    }
}

}  // namespace
