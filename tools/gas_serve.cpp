// gas_serve — drive the asynchronous batch-sort service (gas::serve::Server)
// against the simulated device with a synthetic request stream, verify every
// response, and report the server's throughput/latency statistics.
//
//   gas_serve run [options]
//     --requests R     number of requests to submit (default 200)
//     --arrays N       arrays per uniform/pair request (default 4)
//     --size n         elements per array (default 64)
//     --kind K         uniform | ragged | pairs (default uniform)
//     --async          run the scheduler thread + blocking admission
//                      (default: deterministic manual pump)
//     --streams S      pipeline depth for the overlap model (default 2)
//     --batch B        max requests per fused batch (default 64)
//     --deadline-ms D  attach a D ms deadline to every request
//     --devices N      serve on an N-device fleet, least-loaded placement
//                      (default 1)
//     --exec M         interpreter execution mode: scalar|warp (default:
//                      the SIMT_EXEC environment variable, else warp)
//     --health on|off  closed-loop health subsystem (gas::health: watchdog,
//                      probe re-admission, priority shedding when the queue
//                      is full; default off)
//     --json PATH      also write the ServerStats JSON to PATH
//
// Exit code 0 iff every request reached a terminal state and every Ok
// response is correctly sorted.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "serve/server.hpp"
#include "simt/device.hpp"
#include "workload/generators.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: gas_serve run [--requests R] [--arrays N] [--size n]\n"
                 "                     [--kind uniform|ragged|pairs] [--async]\n"
                 "                     [--streams S] [--batch B] [--deadline-ms D]\n"
                 "                     [--devices N] [--exec scalar|warp] [--health on|off]\n"
                 "                     [--json PATH]\n");
    return 2;
}

struct CliOptions {
    std::size_t requests = 200;
    std::size_t arrays = 4;
    std::size_t size = 64;
    gas::serve::JobKind kind = gas::serve::JobKind::Uniform;
    bool async = false;
    unsigned streams = 2;
    std::size_t batch = 64;
    double deadline_ms = 0.0;
    std::size_t devices = 1;
    simt::ExecMode exec = simt::exec_mode_from_env();
    bool health = false;
    std::string json;
};

gas::serve::Job make_job(const CliOptions& cli, std::uint64_t seed) {
    gas::serve::Job job;
    job.kind = cli.kind;
    switch (cli.kind) {
        case gas::serve::JobKind::Uniform:
            job.num_arrays = cli.arrays;
            job.array_size = cli.size;
            job.values = workload::make_dataset(cli.arrays, cli.size,
                                                workload::Distribution::Uniform, seed)
                             .values;
            break;
        case gas::serve::JobKind::Ragged: {
            auto ds = workload::make_ragged_dataset(cli.arrays, 1, std::max<std::size_t>(cli.size, 2),
                                                    workload::Distribution::Uniform, seed);
            job.values = std::move(ds.values);
            job.offsets.assign(ds.offsets.begin(), ds.offsets.end());
            break;
        }
        case gas::serve::JobKind::Pairs:
            job.num_arrays = cli.arrays;
            job.array_size = cli.size;
            job.values = workload::make_dataset(cli.arrays, cli.size,
                                                workload::Distribution::Uniform, seed)
                             .values;
            job.payload.resize(job.values.size());
            for (std::size_t i = 0; i < job.payload.size(); ++i) {
                job.payload[i] = static_cast<float>(i);
            }
            break;
    }
    if (cli.deadline_ms > 0.0) job.with_deadline_ms(cli.deadline_ms);
    return job;
}

bool response_sorted(const gas::serve::Job& shape, const gas::serve::Response& r) {
    if (shape.kind == gas::serve::JobKind::Ragged) {
        for (std::size_t i = 1; i < shape.offsets.size(); ++i) {
            if (!std::is_sorted(r.values.begin() + static_cast<std::ptrdiff_t>(shape.offsets[i - 1]),
                                r.values.begin() + static_cast<std::ptrdiff_t>(shape.offsets[i]))) {
                return false;
            }
        }
        return true;
    }
    for (std::size_t a = 0; a < shape.num_arrays; ++a) {
        const auto* row = r.values.data() + a * shape.array_size;
        if (!std::is_sorted(row, row + shape.array_size)) return false;
    }
    return true;
}

int cmd_run(const CliOptions& cli) {
    gas::fleet::DeviceFleet fleet(cli.devices);  // full simulated K40c each
    fleet.set_exec_mode(cli.exec);
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = !cli.async;
    cfg.queue_capacity = cli.async ? std::max<std::size_t>(cli.requests / 8, 16)
                                   : cli.requests;
    cfg.max_batch_requests = cli.batch;
    cfg.num_streams = cli.streams;
    cfg.health.enabled = cli.health;
    gas::serve::Server server(fleet, cfg);

    std::printf("gas_serve: %zu %s requests, %s mode, %u streams, batch <= %zu, "
                "%zu device(s)\n",
                cli.requests, gas::serve::to_string(cli.kind).c_str(),
                cli.async ? "async scheduler" : "manual pump", cli.streams, cli.batch,
                cli.devices);

    struct Outstanding {
        gas::serve::Job shape;  // geometry only (values moved into the server)
        gas::serve::Server::Ticket ticket;
    };
    std::vector<Outstanding> live;
    live.reserve(cli.requests);
    for (std::size_t r = 0; r < cli.requests; ++r) {
        auto job = make_job(cli, r + 1);
        Outstanding o;
        o.shape.kind = job.kind;
        o.shape.num_arrays = job.num_arrays;
        o.shape.array_size = job.array_size;
        o.shape.offsets = job.offsets;
        o.ticket = server.submit(std::move(job));
        live.push_back(std::move(o));
        if (!cli.async && (r + 1) % cfg.queue_capacity == 0) server.pump();
    }
    if (cli.async) {
        server.drain();
    } else {
        server.pump();
    }

    std::size_t ok = 0, fallbacks = 0, not_ok = 0, unsorted = 0;
    for (auto& o : live) {
        const auto r = o.ticket.result.get();
        if (r.ok()) {
            ++ok;
            if (r.cpu_fallback) ++fallbacks;
            if (!response_sorted(o.shape, r)) ++unsorted;
        } else {
            ++not_ok;
        }
    }
    server.stop();

    const auto stats = server.stats();
    std::printf("responses: %zu ok (%zu cpu fallbacks), %zu not-ok, %zu unsorted\n", ok,
                fallbacks, not_ok, unsorted);
    std::printf("batches: %llu, occupancy %.1f req/batch, pool reuse %.0f%%\n",
                static_cast<unsigned long long>(stats.batches), stats.batch_occupancy(),
                stats.pool.reuse_rate() * 100.0);
    std::printf("modeled: %.2f ms pipeline makespan (%.2fx vs serial), %.0f req/s\n",
                stats.modeled_overlap_ms, stats.overlap_speedup(),
                stats.modeled_throughput_rps());
    std::printf("latency (wall ms): p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
                stats.wall_ms.p50, stats.wall_ms.p95, stats.wall_ms.p99, stats.wall_ms.max);
    std::printf("health: %s, %llu shed, %llu hangs\n", stats.health.enabled ? "on" : "off",
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.health.hangs_detected));
    if (cli.devices > 1) {
        for (const auto& d : stats.devices) {
            std::printf("  %s: %llu routed, %llu completed, %llu batch(es), "
                        "steal %llu/%llu in/out, util %.2f%s\n",
                        d.name.c_str(), static_cast<unsigned long long>(d.routed),
                        static_cast<unsigned long long>(d.completed),
                        static_cast<unsigned long long>(d.batches),
                        static_cast<unsigned long long>(d.steals_in),
                        static_cast<unsigned long long>(d.steals_out),
                        d.compute_utilization, d.quarantined ? "  [QUARANTINED]" : "");
        }
    }

    if (!cli.json.empty()) {
        if (std::FILE* f = std::fopen(cli.json.c_str(), "w")) {
            std::fprintf(f, "%s\n", stats.to_json().c_str());
            std::fclose(f);
            std::printf("wrote %s\n", cli.json.c_str());
        } else {
            std::fprintf(stderr, "could not write %s\n", cli.json.c_str());
            return 1;
        }
    }

    // Timed-out responses are legitimate when the caller asked for deadlines;
    // anything else must come back Ok and sorted.
    const std::size_t tolerated =
        cli.deadline_ms > 0.0 ? static_cast<std::size_t>(stats.timed_out) : 0;
    return (unsorted == 0 && not_ok <= tolerated) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2 || std::strcmp(argv[1], "run") != 0) return usage();
    CliOptions cli;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--requests") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.requests = std::strtoull(v, nullptr, 10);
        } else if (arg == "--arrays") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.arrays = std::strtoull(v, nullptr, 10);
        } else if (arg == "--size") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.size = std::strtoull(v, nullptr, 10);
        } else if (arg == "--kind") {
            const char* v = next();
            if (v == nullptr) return usage();
            if (std::strcmp(v, "uniform") == 0) {
                cli.kind = gas::serve::JobKind::Uniform;
            } else if (std::strcmp(v, "ragged") == 0) {
                cli.kind = gas::serve::JobKind::Ragged;
            } else if (std::strcmp(v, "pairs") == 0) {
                cli.kind = gas::serve::JobKind::Pairs;
            } else {
                return usage();
            }
        } else if (arg == "--async") {
            cli.async = true;
        } else if (arg == "--streams") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.streams = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (arg == "--batch") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.batch = std::strtoull(v, nullptr, 10);
        } else if (arg == "--deadline-ms") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.deadline_ms = std::strtod(v, nullptr);
        } else if (arg == "--devices") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.devices = std::strtoull(v, nullptr, 10);
            if (cli.devices == 0) return usage();
        } else if (arg == "--exec") {
            const char* v = next();
            if (v == nullptr) return usage();
            if (std::strcmp(v, "scalar") == 0) {
                cli.exec = simt::ExecMode::Scalar;
            } else if (std::strcmp(v, "warp") == 0) {
                cli.exec = simt::ExecMode::Warp;
            } else {
                return usage();
            }
        } else if (arg == "--health") {
            const char* v = next();
            if (v == nullptr) return usage();
            if (std::strcmp(v, "on") == 0) {
                cli.health = true;
            } else if (std::strcmp(v, "off") == 0) {
                cli.health = false;
            } else {
                // A typo must not silently serve with the default setting:
                // name the rejected string and the full valid set.
                std::fprintf(stderr,
                             "gas_serve: unknown --health '%s' (valid: on, off)\n", v);
                return 2;
            }
        } else if (arg == "--json") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.json = v;
        } else {
            return usage();
        }
    }
    try {
        return cmd_run(cli);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gas_serve: %s\n", e.what());
        return 1;
    }
}
