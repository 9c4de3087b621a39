// Serving-layer throughput bench: many small sort requests, one launch
// sequence per request (the naive service) versus gas::serve's fused
// micro-batches on a multi-stream pipeline.
//
// A 4-array request occupies 4 of the K40c's 15 SMs and still pays the full
// per-kernel launch overhead three times; fusing 64 such requests into one
// 256-array launch amortizes both.  The server runs that launch on the fused
// row kernel (gas.ragged_fused) while the baseline runs the paper's
// three-phase pipeline per request, so the speedup counts both the batching
// and the kernel.  The bench emits BENCH_serve.json with two
// asserted acceptance gates:
//   * modeled throughput speedup (serial per-request total over the server's
//     pipelined makespan) >= 2x on >= 1000 small requests, and
//   * zero bit mismatches between every served response and a direct
//     gas::gpu_array_sort of the same request.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/gpu_array_sort.hpp"
#include "serve/server.hpp"
#include "simt/device.hpp"
#include "workload/generators.hpp"

namespace {

gas::serve::ServerConfig bench_config(std::size_t requests) {
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;  // deterministic batching, no scheduler thread
    cfg.queue_capacity = requests;
    cfg.max_batch_requests = 64;
    cfg.num_streams = 2;
    return cfg;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::Args args = bench::parse(argc, argv);
    std::size_t requests = args.full ? 4000 : 1000;
    std::size_t soak_requests = 0;  // --soak [N]: production-scale sustained run
    std::string json_path = "BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            requests = static_cast<std::size_t>(std::stoull(argv[i + 1]));
        } else if (std::strcmp(argv[i], "--soak") == 0) {
            soak_requests = (i + 1 < argc && argv[i + 1][0] != '-')
                                ? static_cast<std::size_t>(std::stoull(argv[i + 1]))
                                : 100000;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[i + 1];
        }
    }
    const std::size_t arrays_per_request = 4;
    const std::size_t n = 64;

    std::printf("Serving-layer throughput: %zu requests of %zu x %zu floats\n", requests,
                arrays_per_request, n);
    bench::rule('=');

    std::vector<std::vector<float>> inputs(requests);
    for (std::size_t r = 0; r < requests; ++r) {
        inputs[r] = workload::make_dataset(arrays_per_request, n,
                                           workload::Distribution::Uniform,
                                           static_cast<std::uint64_t>(r + 1))
                        .values;
    }

    // Baseline: one gpu_array_sort per request, serial device, per-request
    // H2D/D2H.  This is what a service without micro-batching would pay.
    double baseline_ms = 0.0;
    std::vector<std::vector<float>> direct(requests);
    {
        simt::Device dev = bench::make_device();
        for (std::size_t r = 0; r < requests; ++r) {
            direct[r] = inputs[r];
            const auto s = gas::gpu_array_sort(dev, std::span<float>(direct[r]),
                                               arrays_per_request, n);
            baseline_ms += s.modeled_total_ms();
        }
    }
    std::printf("one-launch-per-request baseline: %10.2f ms modeled (%.4f ms/request)\n",
                baseline_ms, baseline_ms / static_cast<double>(requests));

    // Server: same requests through fused micro-batches + stream pipeline.
    simt::Device dev = bench::make_device();
    gas::serve::Server server(dev, bench_config(requests));
    std::vector<gas::serve::Server::Ticket> tickets;
    tickets.reserve(requests);
    for (std::size_t r = 0; r < requests; ++r) {
        gas::serve::Job job;
        job.kind = gas::serve::JobKind::Uniform;
        job.num_arrays = arrays_per_request;
        job.array_size = n;
        job.values = inputs[r];
        tickets.push_back(server.submit(std::move(job)));
    }
    server.pump();

    std::size_t mismatches = 0;
    for (std::size_t r = 0; r < requests; ++r) {
        auto resp = tickets[r].result.get();
        if (!resp.ok() || resp.values != direct[r]) ++mismatches;
    }
    const auto stats = server.stats();
    const double server_ms = stats.modeled_overlap_ms;
    const double speedup = server_ms > 0.0 ? baseline_ms / server_ms : 0.0;

    std::printf("served via micro-batches:        %10.2f ms modeled pipeline makespan\n",
                server_ms);
    std::printf("  batches %llu, occupancy %.1f requests/batch, pool reuse %.0f%%\n",
                static_cast<unsigned long long>(stats.batches), stats.batch_occupancy(),
                stats.pool.reuse_rate() * 100.0);
    std::printf("  compute utilization %.2f, overlap speedup vs own serial %.2fx\n",
                stats.compute_utilization, stats.overlap_speedup());
    std::printf("  modeled latency/request: p50 %.4f ms, p95 %.4f ms, p99 %.4f ms\n",
                stats.modeled_ms.p50, stats.modeled_ms.p95, stats.modeled_ms.p99);
    bench::rule();

    // Optional sustained soak: the default run stays fast (ctest-friendly);
    // --soak pushes >= 100k requests through the threaded server in waves,
    // each response verified against a host std::sort of its input.
    std::size_t soak_served = 0;
    std::size_t soak_bad = 0;
    if (soak_requests > 0) {
        std::vector<std::vector<float>> expected(inputs.size());
        for (std::size_t r = 0; r < inputs.size(); ++r) {
            expected[r] = inputs[r];
            for (std::size_t a = 0; a < arrays_per_request; ++a) {
                auto* row = expected[r].data() + a * n;
                std::sort(row, row + n);
            }
        }
        const std::size_t wave = 2000;
        simt::Device soak_dev = bench::make_device();
        gas::serve::ServerConfig cfg = bench_config(wave);
        cfg.manual_pump = false;  // the real scheduler thread carries the soak
        gas::serve::Server soak_server(soak_dev, cfg);
        std::vector<gas::serve::Server::Ticket> wave_tickets;
        wave_tickets.reserve(wave);
        while (soak_served < soak_requests) {
            const std::size_t batch = std::min(wave, soak_requests - soak_served);
            wave_tickets.clear();
            for (std::size_t r = 0; r < batch; ++r) {
                gas::serve::Job job;
                job.kind = gas::serve::JobKind::Uniform;
                job.num_arrays = arrays_per_request;
                job.array_size = n;
                job.values = inputs[(soak_served + r) % inputs.size()];
                wave_tickets.push_back(soak_server.submit(std::move(job)));
            }
            soak_server.drain();
            for (std::size_t r = 0; r < batch; ++r) {
                auto resp = wave_tickets[r].result.get();
                if (!resp.ok() ||
                    resp.values != expected[(soak_served + r) % inputs.size()]) {
                    ++soak_bad;
                }
            }
            soak_served += batch;
        }
        soak_server.stop();
        std::printf("soak: %zu requests in waves of %zu, %zu bad, %.1f ms modeled makespan\n",
                    soak_served, wave, soak_bad,
                    soak_server.stats().modeled_overlap_ms);
        bench::rule();
    }

    const bool speedup_pass = requests >= 1000 && speedup >= 2.0;
    const bool identity_pass = mismatches == 0;
    const bool soak_pass = soak_requests == 0 || (soak_served >= soak_requests && soak_bad == 0);
    std::printf("gate: micro-batching throughput speedup %.2fx over %zu requests "
                "(need >= 2x and >= 1000 requests) %s\n",
                speedup, requests, speedup_pass ? "PASS" : "FAIL");
    std::printf("gate: served-vs-direct bit mismatches %zu (need 0) ........ %s\n",
                mismatches, identity_pass ? "PASS" : "FAIL");
    if (soak_requests > 0) {
        std::printf("gate: soak %zu served, %zu bad (need >= %zu, 0 bad) ... %s\n",
                    soak_served, soak_bad, soak_requests, soak_pass ? "PASS" : "FAIL");
    }

    obs::Json j;
    j.begin_object().field("bench", "serve").field("requests", requests);
    j.field("arrays_per_request", arrays_per_request).field("array_size", n);
    j.object("baseline").field("modeled_total_ms", baseline_ms).end_object();
    j.object("server").field("modeled_overlap_ms", stats.modeled_overlap_ms);
    j.field("modeled_serial_ms", stats.modeled_serial_ms).field("batches", stats.batches);
    j.field("occupancy", stats.batch_occupancy());
    j.field("pool_reuse_rate", stats.pool.reuse_rate());
    j.field("compute_utilization", stats.compute_utilization);
    j.object("modeled_latency_ms").field("p50", stats.modeled_ms.p50);
    j.field("p95", stats.modeled_ms.p95).field("p99", stats.modeled_ms.p99);
    j.end_object().end_object().object("gates");
    j.object("throughput_speedup").field("value", speedup).field("min", 2.0);
    j.field("pass", speedup_pass).end_object();
    j.object("bit_identity_mismatches").field("value", mismatches).field("max", 0);
    j.field("pass", identity_pass).end_object();
    j.object("soak").field("served", soak_served).field("bad", soak_bad);
    j.field("ran", soak_requests > 0).field("pass", soak_pass);
    j.end_object().end_object().end_object();
    bench::write_json_file(json_path, j);

    // The fused batch kernels must be untouched by the sanitizer machinery,
    // like every other bench's workload.
    const bool inert = bench::verify_sanitize_off_guarantee([](simt::Device& d) {
        gas::serve::ServerConfig cfg;
        cfg.manual_pump = true;
        gas::serve::Server srv(d, cfg);
        std::vector<gas::serve::Server::Ticket> ts;
        for (unsigned i = 0; i < 8; ++i) {
            gas::serve::Job job;
            job.kind = gas::serve::JobKind::Uniform;
            job.num_arrays = 4;
            job.array_size = 64;
            job.values = workload::make_dataset(4, 64, workload::Distribution::Uniform, i)
                             .values;
            ts.push_back(srv.submit(std::move(job)));
        }
        srv.pump();
        for (auto& t : ts) t.result.get();
    });
    return (speedup_pass && identity_pass && soak_pass && inert) ? 0 : 1;
}
