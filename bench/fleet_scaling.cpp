// Fleet scaling bench: the sharded serving layer across 1/2/4/8 devices.
//
// The 1000-request serve workload (4 x 64 floats per request) is pushed
// through gas::serve::Server on DeviceFleets of increasing size under the
// least-loaded router.  BENCH_fleet.json asserts four acceptance gates:
//   * scaling: modeled fleet throughput (the 1-device pipeline makespan over
//     the N-device makespan) >= 3x at 4 devices (>= 2x under --quick),
//   * failover termination: a device killed mid-run via simt::faults leaves
//     every request Status::Ok — quarantine + re-route absorb the loss,
//   * failover integrity: zero byte mismatches against the fault-free run
//     (bytes never depend on which device served a request), and
//   * soak: >= 100k requests served in waves on a 4-device fleet with the
//     real scheduler threads, all verified bit-correct (skipped by --quick).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "serve/server.hpp"
#include "simt/device.hpp"
#include "workload/generators.hpp"

namespace {

constexpr std::size_t kArraysPerRequest = 4;
constexpr std::size_t kArraySize = 64;

gas::serve::ServerConfig fleet_config(std::size_t queue_capacity, bool manual) {
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = manual;
    cfg.queue_capacity = queue_capacity;
    cfg.max_batch_requests = 64;
    cfg.num_streams = 2;
    cfg.retry.seed = 2026;
    return cfg;
}

gas::fleet::DeviceFleet make_fleet(std::size_t devices) {
    const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
    const unsigned workers =
        std::max(1u, hw / static_cast<unsigned>(std::max<std::size_t>(devices, 1)));
    return gas::fleet::DeviceFleet(devices, simt::tesla_k40c(),
                                   simt::DeviceMemory::Mode::Backed, workers);
}

gas::serve::Job job_for(const std::vector<float>& values) {
    gas::serve::Job job;
    job.kind = gas::serve::JobKind::Uniform;
    job.num_arrays = kArraysPerRequest;
    job.array_size = kArraySize;
    job.values = values;
    return job;
}

struct RunResult {
    std::vector<std::vector<float>> responses;
    std::size_t not_ok = 0;
    gas::serve::ServerStats stats;
};

/// Serves `inputs` on a fleet of `devices`.  When `kill_at` is in range, that
/// device's fault plan is installed after `kill_after` requests have been
/// submitted — the queued half of the run lands on a dying device and must
/// re-home on the survivors.
RunResult run_fleet(const std::vector<std::vector<float>>& inputs, std::size_t devices,
                    std::size_t kill_at = SIZE_MAX, std::size_t kill_after = 0) {
    gas::fleet::DeviceFleet fleet = make_fleet(devices);
    gas::serve::Server server(fleet, fleet_config(inputs.size(), /*manual=*/true));
    std::vector<gas::serve::Server::Ticket> tickets;
    tickets.reserve(inputs.size());
    for (std::size_t r = 0; r < inputs.size(); ++r) {
        if (kill_at < devices && r == kill_after) {
            server.pump();  // the first half retires cleanly...
            simt::faults::FaultPlan plan;
            plan.launch_fail_every = 1;  // ...then the device is gone
            fleet.device(kill_at).set_fault_plan(plan);
        }
        tickets.push_back(server.submit(job_for(inputs[r])));
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
    return res;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::size_t requests = 1000;
    std::size_t soak_requests = 100000;
    std::string json_path = "BENCH_fleet.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
            requests = static_cast<std::size_t>(std::stoull(argv[++i]));
        } else if (std::strcmp(argv[i], "--soak") == 0 && i + 1 < argc) {
            soak_requests = static_cast<std::size_t>(std::stoull(argv[++i]));
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("usage: %s [--quick] [--requests N] [--soak N] [--json PATH]\n",
                        argv[0]);
            std::printf("  --quick     200-request grid, devices <= 4, no soak, 2x gate\n");
            std::printf("  --requests  scaling/failover workload size (default 1000)\n");
            std::printf("  --soak      soak request count (default 100000)\n");
            return 0;
        }
    }
    if (quick) requests = std::min<std::size_t>(requests, 200);
    const std::vector<std::size_t> device_grid =
        quick ? std::vector<std::size_t>{1, 2, 4} : std::vector<std::size_t>{1, 2, 4, 8};
    const double scale4_min = quick ? 2.0 : 3.0;

    std::printf("Fleet scaling: %zu requests of %zu x %zu floats, least-loaded router\n",
                requests, kArraysPerRequest, kArraySize);
    bench::rule('=');

    std::vector<std::vector<float>> inputs(requests);
    for (std::size_t r = 0; r < requests; ++r) {
        inputs[r] = workload::make_dataset(kArraysPerRequest, kArraySize,
                                           workload::Distribution::Uniform,
                                           static_cast<std::uint64_t>(r + 1))
                        .values;
    }

    // --- Scaling sweep -----------------------------------------------------
    std::printf("%8s | %16s | %9s | %11s | %7s %7s\n", "devices", "overlap makespan",
                "speedup", "utilization", "batches", "steals");
    bench::rule();
    std::vector<double> overlap_ms(device_grid.size());
    std::vector<double> speedups(device_grid.size());
    RunResult reference;  // the 1-device run doubles as the byte reference
    gas::serve::ServerStats four_dev_stats;
    for (std::size_t i = 0; i < device_grid.size(); ++i) {
        RunResult run = run_fleet(inputs, device_grid[i]);
        overlap_ms[i] = run.stats.modeled_overlap_ms;
        speedups[i] = overlap_ms[0] > 0.0 && overlap_ms[i] > 0.0
                          ? overlap_ms[0] / overlap_ms[i]
                          : 0.0;
        std::printf("%8zu | %13.3f ms | %8.2fx | %11.2f | %7llu %7llu\n", device_grid[i],
                    overlap_ms[i], speedups[i], run.stats.compute_utilization,
                    static_cast<unsigned long long>(run.stats.batches),
                    static_cast<unsigned long long>(run.stats.steals));
        std::fflush(stdout);
        if (run.not_ok != 0) {
            std::printf("FATAL: %zu request(s) failed on the clean %zu-device run\n",
                        run.not_ok, device_grid[i]);
            return 1;
        }
        if (device_grid[i] == 1) reference = std::move(run);
        if (device_grid[i] == 4) four_dev_stats = run.stats;
    }
    double speedup4 = 0.0;
    for (std::size_t i = 0; i < device_grid.size(); ++i) {
        if (device_grid[i] == 4) speedup4 = speedups[i];
    }
    bench::rule();

    // --- Device-kill failover ---------------------------------------------
    // Device 1 of 4 dies after the first half of the workload retired; the
    // queued second half must quarantine it, re-home, and stay bit-identical.
    const RunResult failover = run_fleet(inputs, 4, /*kill_at=*/1,
                                         /*kill_after=*/requests / 2);
    std::size_t mismatches = 0;
    for (std::size_t r = 0; r < requests; ++r) {
        if (failover.responses[r] != reference.responses[r]) ++mismatches;
    }
    std::printf("device-kill failover: %zu unrecovered, %zu byte mismatch(es), "
                "%llu re-route(s), %llu device(s) quarantined\n",
                failover.not_ok, mismatches,
                static_cast<unsigned long long>(failover.stats.reroutes),
                static_cast<unsigned long long>(failover.stats.devices_quarantined));

    // --- Soak: scheduler threads, waves of requests ------------------------
    std::size_t soak_served = 0;
    std::size_t soak_bad = 0;
    double soak_overlap_ms = 0.0;
    if (!quick) {
        std::vector<std::vector<float>> soak_expected(inputs.size());
        for (std::size_t r = 0; r < inputs.size(); ++r) {
            soak_expected[r] = inputs[r];
            for (std::size_t a = 0; a < kArraysPerRequest; ++a) {
                auto* row = soak_expected[r].data() + a * kArraySize;
                std::sort(row, row + kArraySize);
            }
        }
        const std::size_t wave = 2000;
        gas::fleet::DeviceFleet fleet = make_fleet(4);
        gas::serve::Server server(fleet, fleet_config(wave, /*manual=*/false));
        std::vector<gas::serve::Server::Ticket> tickets;
        tickets.reserve(wave);
        while (soak_served < soak_requests) {
            const std::size_t batch = std::min(wave, soak_requests - soak_served);
            tickets.clear();
            for (std::size_t r = 0; r < batch; ++r) {
                tickets.push_back(
                    server.submit(job_for(inputs[(soak_served + r) % inputs.size()])));
            }
            server.drain();
            for (std::size_t r = 0; r < batch; ++r) {
                auto resp = tickets[r].result.get();
                if (!resp.ok() ||
                    resp.values != soak_expected[(soak_served + r) % inputs.size()]) {
                    ++soak_bad;
                }
            }
            soak_served += batch;
        }
        server.stop();
        soak_overlap_ms = server.stats().modeled_overlap_ms;
        std::printf("soak: %zu requests in waves of %zu, %zu bad, "
                    "%.1f ms modeled fleet makespan\n",
                    soak_served, wave, soak_bad, soak_overlap_ms);
    } else {
        std::printf("soak: skipped (--quick)\n");
    }
    bench::rule();

    // --- Gates -------------------------------------------------------------
    const bool scaling_pass = speedup4 >= scale4_min;
    const bool termination_pass = failover.not_ok == 0;
    const bool integrity_pass = mismatches == 0;
    const bool quarantine_pass = failover.stats.devices_quarantined == 1;
    const bool soak_pass = quick || (soak_served >= soak_requests && soak_bad == 0);
    std::printf("gate: 4-device throughput speedup %.2fx (need >= %.0fx) ..... %s\n",
                speedup4, scale4_min, scaling_pass ? "PASS" : "FAIL");
    std::printf("gate: device-kill unrecovered %zu of %zu (need 0) ......... %s\n",
                failover.not_ok, requests, termination_pass ? "PASS" : "FAIL");
    std::printf("gate: bytes vs fault-free run, %zu mismatch(es) (need 0) .. %s\n",
                mismatches, integrity_pass ? "PASS" : "FAIL");
    std::printf("gate: devices quarantined %llu (need exactly 1) ........... %s\n",
                static_cast<unsigned long long>(failover.stats.devices_quarantined),
                quarantine_pass ? "PASS" : "FAIL");
    if (!quick) {
        std::printf("gate: soak %zu served, %zu bad (need >= %zu, 0 bad) ... %s\n",
                    soak_served, soak_bad, soak_requests, soak_pass ? "PASS" : "FAIL");
    }

    obs::Json j;
    j.begin_object().field("bench", "fleet_scaling").field("requests", requests);
    j.field("arrays_per_request", kArraysPerRequest).field("array_size", kArraySize);
    j.field("quick", quick).array("scaling");
    for (std::size_t i = 0; i < device_grid.size(); ++i) {
        j.begin_object().field("devices", device_grid[i]);
        j.field("modeled_overlap_ms", overlap_ms[i]).field("speedup", speedups[i]).end_object();
    }
    j.end_array().object("four_device_run").field("batches", four_dev_stats.batches);
    j.field("compute_utilization", four_dev_stats.compute_utilization);
    j.field("steals", four_dev_stats.steals).array("per_device");
    for (const auto& d : four_dev_stats.devices) {
        j.begin_object().field("name", d.name).field("routed", d.routed);
        j.field("completed", d.completed).field("batches", d.batches);
        j.field("kernel_ms", d.modeled_kernel_ms).field("utilization", d.compute_utilization);
        j.end_object();
    }
    j.end_array().end_object().object("failover").field("unrecovered", failover.not_ok);
    j.field("mismatches", mismatches).field("reroutes", failover.stats.reroutes);
    j.field("devices_quarantined", failover.stats.devices_quarantined).end_object();
    j.object("soak").field("requests", soak_served).field("bad", soak_bad);
    j.field("modeled_overlap_ms", soak_overlap_ms).field("ran", !quick).end_object();
    j.object("gates").object("scaling_4dev").field("value", speedup4);
    j.field("min", scale4_min).field("pass", scaling_pass).end_object();
    j.object("failover_termination").field("unrecovered", failover.not_ok).field("max", 0);
    j.field("pass", termination_pass).end_object();
    j.object("failover_integrity").field("mismatches", mismatches).field("max", 0);
    j.field("pass", integrity_pass).end_object();
    j.object("failover_quarantine").field("value", failover.stats.devices_quarantined);
    j.field("expect", 1).field("pass", quarantine_pass).end_object();
    j.object("soak").field("served", soak_served).field("bad", soak_bad);
    j.field("pass", soak_pass).end_object().end_object().end_object();
    bench::write_json_file(json_path, j);

    // Fleet-served kernels must be untouched by the sanitizer machinery,
    // like every other bench's workload.
    const bool inert = bench::verify_sanitize_off_guarantee([](simt::Device& d) {
        gas::fleet::DeviceFleet fleet(d);
        gas::serve::ServerConfig cfg;
        cfg.manual_pump = true;
        gas::serve::Server srv(fleet, cfg);
        std::vector<gas::serve::Server::Ticket> ts;
        for (unsigned i = 0; i < 8; ++i) {
            ts.push_back(srv.submit(job_for(
                workload::make_dataset(kArraysPerRequest, kArraySize,
                                       workload::Distribution::Uniform, i + 1)
                    .values)));
        }
        srv.pump();
        for (auto& t : ts) t.result.get();
    });

    return (scaling_pass && termination_pass && integrity_pass && quarantine_pass &&
            soak_pass && inert)
               ? 0
               : 1;
}
