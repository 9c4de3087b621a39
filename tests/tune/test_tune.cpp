// gas::tune test suite: the ledger's sketch and serve's lean sample.
//
// 1. Sketch determinism: the sketch is a pure function of the input bytes,
//    so it must be bit-identical across ExecMode (scalar/warp), host worker
//    counts and ThreadOrders — the axes the execution substrate varies.
// 2. Serve: keys-only batches sort with serve::kLeanSampleRate and pair
//    batches with their submitted options, so every served batch
//    reproduces one direct fused-kernel call bit-for-bit (bytes and kernel
//    log), every regime is served correctly, and a default fleet serves
//    uniform and ragged batches under the same sample.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
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
                const auto sketch = gas::tune::sketch_values(values, 8, 1500);
                gas::gpu_array_sort(dev, values, 8, 1500);
                runs.push_back({sketch, std::move(values)});
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
        EXPECT_EQ(ref.bytes, runs[i].bytes);
    }
}

TEST(Sketch, SignalsTrackTheirDistributions) {
    EXPECT_LT(sketch_of(Distribution::FewDistinct).distinct_ratio, 0.05);
    EXPECT_GT(sketch_of(Distribution::Uniform).distinct_ratio, 0.9);
    EXPECT_GT(sketch_of(Distribution::Sorted).sortedness, 0.99);
    EXPECT_LT(sketch_of(Distribution::Uniform).sortedness, 0.7);
}

// --- 2. serve --------------------------------------------------------------

gas::serve::Job uniform_job(std::size_t arrays, std::size_t n, Distribution dist,
                            std::uint64_t seed) {
    gas::serve::Job job;
    job.kind = gas::serve::JobKind::Uniform;
    job.num_arrays = arrays;
    job.array_size = n;
    job.values = workload::make_dataset(arrays, n, dist, seed).values;
    return job;
}

/// Request `r` of a kind-identity batch.  Uniform and pair jobs are 4 x 500
/// rows; ragged jobs are 12 rows of 16..512 values, and the second ragged
/// request starts its CSR table past a 3-value prefix the server must skip.
gas::serve::Job identity_job(gas::serve::JobKind kind, std::uint64_t r) {
    using gas::serve::JobKind;
    gas::serve::Job job;
    job.kind = kind;
    if (kind == JobKind::Ragged) {
        auto ds = workload::make_ragged_dataset(12, 16, 512, Distribution::Uniform, 6 + r);
        const std::uint64_t pad = r == 1 ? 3 : 0;
        job.values.assign(pad, -1.0f);
        job.values.insert(job.values.end(), ds.values.begin(), ds.values.end());
        for (const auto o : ds.offsets) job.offsets.push_back(o + pad);
        return job;
    }
    job = uniform_job(4, 500, Distribution::Uniform, 6 + r);
    job.kind = kind;
    if (kind == JobKind::Pairs) {
        job.payload.resize(job.values.size());
        for (std::size_t i = 0; i < job.payload.size(); ++i) {
            job.payload[i] = static_cast<float>(r * 10000 + i);
        }
    }
    return job;
}

TEST(ServeTune, DefaultServerReproducesTheDirectKernelLog) {
    // The strongest pin available in-tree: a default-config server must
    // emit exactly the kernel log of one direct call of the fused kernel
    // over the same concatenated rows — bytes, names, shapes, modeled stats
    // — for every job kind, alone and fused with batchmates, in both
    // orders.  Keys-only batches run with serve's lean sample rate,
    // pair batches with their submitted options, and the same batch served
    // twice emits the same log twice.
    using gas::serve::JobKind;
    for (const auto kind : {JobKind::Uniform, JobKind::Ragged, JobKind::Pairs}) {
        for (const std::size_t requests : {1, 3}) {
            for (const auto order : {gas::SortOrder::Ascending, gas::SortOrder::Descending}) {
                SCOPED_TRACE(gas::serve::to_string(kind) + " x" + std::to_string(requests) +
                             (order == gas::SortOrder::Ascending ? " asc" : " desc"));
                std::vector<gas::serve::Job> jobs;
                for (std::uint64_t r = 0; r < requests; ++r) {
                    jobs.push_back(identity_job(kind, r));
                    jobs.back().opts.order = order;
                }
                gas::Options opts;
                opts.order = order;
                if (kind != JobKind::Pairs) opts.sampling_rate = gas::serve::kLeanSampleRate;

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
                if (kind == JobKind::Uniform) offsets = gas::resilient::uniform_offsets(rows, 500);
                simt::Device direct_dev(simt::tiny_device(256 << 20));
                if (kind == JobKind::Pairs) {
                    gas::gpu_pair_sort(direct_dev, std::span<float>(keys),
                                       std::span<float>(payload), rows, 500, opts);
                } else {
                    gas::gpu_ragged_sort(direct_dev, std::span<float>(keys), offsets, opts);
                }

                simt::Device serve_dev(simt::tiny_device(256 << 20));
                gas::serve::ServerConfig cfg;
                cfg.manual_pump = true;
                gas::serve::Server server(serve_dev, cfg);
                for (int pass = 0; pass < 2; ++pass) {
                    SCOPED_TRACE("pass " + std::to_string(pass));
                    const std::size_t log_from = serve_dev.kernel_log().size();
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
                                               jobs[r].values.begin() + from,
                                               resp.values.begin()));
                        served_keys.insert(served_keys.end(), resp.values.begin() + from,
                                           resp.values.end());
                        served_payload.insert(served_payload.end(), resp.payload.begin(),
                                              resp.payload.end());
                    }
                    EXPECT_EQ(keys, served_keys);
                    EXPECT_EQ(payload, served_payload);
                    const auto& log = serve_dev.kernel_log();
                    expect_logs_equal(direct_dev.kernel_log(),
                                      {log.begin() + static_cast<std::ptrdiff_t>(log_from),
                                       log.end()});
                }
                server.stop();
                const auto st = server.stats();
                EXPECT_EQ(st.batches, 2u);
                EXPECT_EQ(st.tune_decisions, 0u);
                EXPECT_EQ(st.tuned_batches, 0u);
                EXPECT_EQ(st.tune_sketch_ms, 0.0);
            }
        }
    }
}

TEST(ServeTune, TunedServerServesEveryRegimeCorrectly) {
    // The lean sample bounds buckets on every regime: skewed, duplicate-heavy
    // and nearly sorted rows come back as sorted permutations of the input.
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
    EXPECT_EQ(st.batches, live.size());
    EXPECT_EQ(st.tune_decisions, 0u);
    EXPECT_EQ(st.tune_plan_switches, 0u);
    EXPECT_EQ(st.tuned_batches, 0u);
    EXPECT_EQ(st.tune_sketch_ms, 0.0);
    EXPECT_EQ(st.to_json().find("\"tune\""), std::string::npos);
    server.stop();
}

TEST(ServeTune, FleetSortsUniformAndRaggedWithQueueDepthEwma) {
    // A default 3-device fleet serves uniform and ragged batches under the
    // lean sample; every row comes back sorted and the shards' queue depth
    // EWMA moves.
    for (const auto kind : {gas::serve::JobKind::Uniform, gas::serve::JobKind::Ragged}) {
        SCOPED_TRACE(gas::serve::to_string(kind));
        gas::fleet::DeviceFleet fleet(3);
        gas::serve::ServerConfig cfg;
        cfg.manual_pump = true;
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
        ASSERT_EQ(st.devices.size(), 3u);
        EXPECT_EQ(st.tune_decisions, 0u);
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
