// Chaos-recovery bench: the serving layer under a hostile device.
//
// 1000 small sort requests ride fused micro-batches while simt::faults
// fails the first device allocation, refuses roughly one launch in 50 and
// silently corrupts memory at roughly one launch in 200.  A serve batch
// allocates only its pooled planes, so a rate-based allocation plan would
// rarely fire; the explicit first allocation always does.  The run must
// exercise both an allocation retry and a batch retry, and BENCH_chaos.json
// asserts three acceptance gates:
//   * termination: every request completes with Status::Ok — retries,
//     quarantines and host fallbacks absorb every injected fault,
//   * integrity: zero byte mismatches against the same requests served on a
//     fault-free server (never silently wrong data), and
//   * overhead: on the fault-free path, response verification costs <= 10%
//     extra modeled device time.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/server.hpp"
#include "simt/device.hpp"
#include "simt/faults/report.hpp"
#include "workload/generators.hpp"

namespace {

constexpr std::size_t kArraysPerRequest = 4;
constexpr std::size_t kArraySize = 512;

gas::serve::ServerConfig server_config(std::size_t requests, bool verify) {
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;  // deterministic batching and fault schedule
    cfg.queue_capacity = requests;
    // Small batches keep the launch count high enough for the 1-in-200
    // corruption rate to actually fire over 1000 requests.
    cfg.max_batch_requests = 8;
    cfg.retry.seed = 2024;
    cfg.retry.max_attempts = 5;
    cfg.verify_responses = verify;
    return cfg;
}

struct RunResult {
    std::vector<std::vector<float>> responses;
    std::size_t not_ok = 0;
    gas::serve::ServerStats stats;
    simt::faults::FaultReport faults;
};

RunResult run_requests(const std::vector<std::vector<float>>& inputs, bool verify,
                       const simt::faults::FaultPlan* plan) {
    simt::Device dev = bench::make_device();
    if (plan != nullptr) dev.set_fault_plan(*plan);
    gas::serve::Server server(dev, server_config(inputs.size(), verify));
    std::vector<gas::serve::Server::Ticket> tickets;
    tickets.reserve(inputs.size());
    for (std::size_t r = 0; r < inputs.size(); ++r) {
        gas::serve::Job job;
        job.kind = gas::serve::JobKind::Uniform;
        job.num_arrays = kArraysPerRequest;
        job.array_size = kArraySize;
        job.values = inputs[r];
        tickets.push_back(server.submit(std::move(job)));
    }
    server.pump();

    RunResult res;
    res.responses.reserve(inputs.size());
    for (auto& t : tickets) {
        auto resp = t.result.get();
        if (!resp.ok()) ++res.not_ok;
        res.responses.push_back(std::move(resp.values));
    }
    res.stats = server.stats();
    res.faults = dev.fault_report();
    return res;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::Args args = bench::parse(argc, argv);
    std::size_t requests = args.full ? 4000 : 1000;
    std::size_t soak_requests = 0;  // --soak [N]: production-scale run under faults
    std::string json_path = "BENCH_chaos.json";
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

    std::printf("Chaos recovery: %zu requests of %zu x %zu floats under injected faults\n",
                requests, kArraysPerRequest, kArraySize);
    bench::rule('=');

    std::vector<std::vector<float>> inputs(requests);
    for (std::size_t r = 0; r < requests; ++r) {
        inputs[r] = workload::make_dataset(kArraysPerRequest, kArraySize,
                                           workload::Distribution::Uniform,
                                           static_cast<std::uint64_t>(r + 1))
                        .values;
    }

    // Reference: fault-free server, verification off — today's bytes and
    // today's modeled time.
    const RunResult clean = run_requests(inputs, /*verify=*/false, nullptr);
    // Fault-free with verification: the overhead the resilience layer costs
    // when nothing is wrong.
    const RunResult verified = run_requests(inputs, /*verify=*/true, nullptr);

    // The chaos run: allocation and launch faults and silent corruption,
    // verification on (the only defense against undetected flips).
    simt::faults::FaultPlan plan;
    plan.seed = 7;
    plan.alloc_fail_at = {1};
    plan.launch_fail_every = 50;
    plan.corrupt_every = 200;
    plan.detected = false;  // silent: only response verification can catch it
    const RunResult chaos = run_requests(inputs, /*verify=*/true, &plan);

    std::size_t mismatches = 0;
    for (std::size_t r = 0; r < requests; ++r) {
        if (chaos.responses[r] != clean.responses[r]) ++mismatches;
    }

    std::printf("fault-free baseline:  %10.2f ms modeled kernel time\n",
                clean.stats.modeled_kernel_ms);
    std::printf("fault-free verified:  %10.2f ms modeled kernel time\n",
                verified.stats.modeled_kernel_ms);
    std::printf("chaos run: %llu fault(s) fired (%llu corruption(s), %llu alloc "
                "failure(s), %llu launch failure(s)), %llu suppressed\n",
                static_cast<unsigned long long>(chaos.faults.fired()),
                static_cast<unsigned long long>(chaos.faults.corruptions),
                static_cast<unsigned long long>(chaos.faults.alloc_failures),
                static_cast<unsigned long long>(chaos.faults.launch_failures),
                static_cast<unsigned long long>(chaos.faults.suppressed));
    std::printf("  recovery: %llu batch retries, %llu alloc retries, %llu quarantined, "
                "%llu verify failures, %.3f ms modeled backoff\n",
                static_cast<unsigned long long>(chaos.stats.retries),
                static_cast<unsigned long long>(chaos.stats.alloc_retries),
                static_cast<unsigned long long>(chaos.stats.quarantined),
                static_cast<unsigned long long>(chaos.stats.verify_failures),
                chaos.stats.retry_backoff_ms);
    bench::rule();

    // Optional sustained soak: the default run stays fast (ctest-friendly);
    // --soak keeps the same fault plan firing across >= 100k requests served
    // in waves, each response verified against a host std::sort of its input
    // so memory stays bounded regardless of the request count.
    std::size_t soak_served = 0;
    std::size_t soak_bad = 0;
    std::uint64_t soak_faults = 0;
    if (soak_requests > 0) {
        std::vector<std::vector<float>> expected(inputs.size());
        for (std::size_t r = 0; r < inputs.size(); ++r) {
            expected[r] = inputs[r];
            for (std::size_t a = 0; a < kArraysPerRequest; ++a) {
                auto* row = expected[r].data() + a * kArraySize;
                std::sort(row, row + kArraySize);
            }
        }
        const std::size_t wave = 2000;
        simt::Device soak_dev = bench::make_device();
        soak_dev.set_fault_plan(plan);
        gas::serve::Server soak_server(soak_dev,
                                       server_config(wave, /*verify=*/true));
        std::vector<gas::serve::Server::Ticket> wave_tickets;
        wave_tickets.reserve(wave);
        while (soak_served < soak_requests) {
            const std::size_t batch = std::min(wave, soak_requests - soak_served);
            wave_tickets.clear();
            for (std::size_t r = 0; r < batch; ++r) {
                gas::serve::Job job;
                job.kind = gas::serve::JobKind::Uniform;
                job.num_arrays = kArraysPerRequest;
                job.array_size = kArraySize;
                job.values = inputs[(soak_served + r) % inputs.size()];
                wave_tickets.push_back(soak_server.submit(std::move(job)));
            }
            soak_server.pump();
            for (std::size_t r = 0; r < batch; ++r) {
                auto resp = wave_tickets[r].result.get();
                if (!resp.ok() ||
                    resp.values != expected[(soak_served + r) % inputs.size()]) {
                    ++soak_bad;
                }
            }
            soak_served += batch;
        }
        soak_faults = soak_dev.fault_report().fired();
        std::printf("soak: %zu requests in waves of %zu under the same plan, "
                    "%llu fault(s) fired, %zu bad\n",
                    soak_served, wave, static_cast<unsigned long long>(soak_faults),
                    soak_bad);
        bench::rule();
    }

    const double overhead =
        clean.stats.modeled_kernel_ms > 0.0
            ? verified.stats.modeled_kernel_ms / clean.stats.modeled_kernel_ms - 1.0
            : 0.0;
    const bool termination_pass = chaos.not_ok == 0 && clean.not_ok == 0;
    const bool integrity_pass = mismatches == 0;
    const bool overhead_pass = overhead <= 0.10;
    const bool soak_pass = soak_requests == 0 || (soak_served >= soak_requests && soak_bad == 0);
    // A plan that fires nothing proves nothing about recovery.
    const bool coverage_pass = chaos.faults.alloc_failures > 0 && chaos.stats.retries > 0;
    std::printf("gate: unrecovered requests %zu of %zu (need 0) .......... %s\n",
                chaos.not_ok, requests, termination_pass ? "PASS" : "FAIL");
    std::printf("gate: bytes vs fault-free run, %zu mismatch(es) (need 0)  %s\n", mismatches,
                integrity_pass ? "PASS" : "FAIL");
    std::printf("gate: fault-free verification overhead %.2f%% (<= 10%%) .. %s\n",
                overhead * 100.0, overhead_pass ? "PASS" : "FAIL");
    std::printf("gate: chaos run, %llu alloc fault(s), %llu batch retries (need >= 1 each) %s\n",
                static_cast<unsigned long long>(chaos.faults.alloc_failures),
                static_cast<unsigned long long>(chaos.stats.retries),
                coverage_pass ? "PASS" : "FAIL");
    if (soak_requests > 0) {
        std::printf("gate: soak %zu served, %zu bad (need >= %zu, 0 bad) ... %s\n",
                    soak_served, soak_bad, soak_requests, soak_pass ? "PASS" : "FAIL");
    }

    obs::Json j;
    j.begin_object().field("bench", "chaos_recovery").field("requests", requests);
    j.field("arrays_per_request", kArraysPerRequest).field("array_size", kArraySize);
    j.object("plan").field("seed", plan.seed).array("alloc_fail_at");
    for (const std::uint64_t at : plan.alloc_fail_at) j.value(at);
    j.end_array().field("launch_fail_every", plan.launch_fail_every);
    j.field("corrupt_every", plan.corrupt_every).field("detected", plan.detected);
    j.end_object().object("faults").field("fired", chaos.faults.fired());
    j.field("corruptions", chaos.faults.corruptions);
    j.field("alloc_failures", chaos.faults.alloc_failures);
    j.field("launch_failures", chaos.faults.launch_failures);
    j.field("suppressed", chaos.faults.suppressed).end_object();
    const gas::serve::ServerStats& cs = chaos.stats;
    j.object("recovery").field("retries", cs.retries).field("alloc_retries", cs.alloc_retries);
    j.field("quarantined", cs.quarantined).field("verify_failures", cs.verify_failures);
    j.field("retry_backoff_ms", cs.retry_backoff_ms).end_object();
    j.object("modeled_kernel_ms").field("clean", clean.stats.modeled_kernel_ms);
    j.field("verified", verified.stats.modeled_kernel_ms);
    j.field("chaos", cs.modeled_kernel_ms).end_object().object("gates");
    j.object("termination").field("unrecovered", chaos.not_ok).field("max", 0);
    j.field("pass", termination_pass).end_object();
    j.object("integrity").field("mismatches", mismatches).field("max", 0);
    j.field("pass", integrity_pass).end_object();
    j.object("verify_overhead").field("fraction", overhead).field("max", 0.10);
    j.field("pass", overhead_pass).end_object();
    j.object("coverage").field("alloc_failures", chaos.faults.alloc_failures);
    j.field("retries", cs.retries).field("min", 1).field("pass", coverage_pass).end_object();
    j.object("soak").field("served", soak_served).field("bad", soak_bad);
    j.field("faults_fired", soak_faults).field("ran", soak_requests > 0);
    j.field("pass", soak_pass).end_object().end_object().end_object();
    bench::write_json_file(json_path, j);

    // The verify kernels must be untouched by the sanitizer machinery, like
    // every other bench's workload.
    const bool inert = bench::verify_sanitize_off_guarantee([](simt::Device& d) {
        gas::serve::ServerConfig cfg;
        cfg.manual_pump = true;
        cfg.verify_responses = true;
        gas::serve::Server srv(d, cfg);
        std::vector<gas::serve::Server::Ticket> ts;
        for (unsigned i = 0; i < 8; ++i) {
            gas::serve::Job job;
            job.kind = gas::serve::JobKind::Uniform;
            job.num_arrays = 2;
            job.array_size = 64;
            job.values = workload::make_dataset(2, 64, workload::Distribution::Uniform,
                                                i + 1)
                             .values;
            ts.push_back(srv.submit(std::move(job)));
        }
        srv.pump();
        for (auto& t : ts) t.result.get();
    });

    return (termination_pass && integrity_pass && overhead_pass && coverage_pass && soak_pass &&
            inert)
               ? 0
               : 1;
}
