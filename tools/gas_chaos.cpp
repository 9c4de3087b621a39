// gas_chaos — chaos-test the sorting stack under deterministic fault
// injection (simt::faults).  Each workload runs on its own simulated device
// with a seeded fault plan armed, exercises the resilience layer
// (gas::resilient: verify / retry / quarantine, ooc checkpoint-resume), and
// checks the final bytes against a host reference.  The same seed always
// produces the same faults, the same recovery path and the same bytes.
//
//   gas_chaos run [options]
//     --workload W          uniform | ragged | pairs | ooc | serve | all
//                           (default all)
//     --seed S              fault-plan seed (default 1)
//     --alloc-fail-every K  fail ~1 in K device allocations
//     --launch-fail-every K refuse ~1 in K kernel launches
//     --corrupt-every K     corrupt device memory before ~1 in K launches
//     --undetected          corruption is silent (no TransferError); only
//                           output verification can catch it
//     --stall-every K       stall ~1 in K timeline engine ops
//     --stall-ms MS         modeled stall duration (default 2.0)
//     --requests R          serve-workload request count (default 64)
//     --arrays N            arrays per request/dataset (default 8)
//     --size n              elements per array (default 96)
//     --kill-revive on|off  also run the kill-revive-kill workload: a
//                           two-device health-enabled fleet server whose
//                           device 0 is killed, revived (probe-sort
//                           re-admission through probation) and killed
//                           again, with every response byte-checked
//                           (default off; also reachable as
//                           --workload kill-revive)
//     --json PATH           write a machine-readable summary (per-workload
//                           recovery outcome + FaultReport)
//
// Exit code 0 iff every workload terminated with verified-correct bytes —
// faults may have fired (and been recovered); an unrecovered failure or a
// byte mismatch exits 1.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/resilient_sort.hpp"
#include "obs/json.hpp"
#include "ooc/out_of_core.hpp"
#include "serve/server.hpp"
#include "simt/device.hpp"
#include "workload/generators.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: gas_chaos run [--workload uniform|ragged|pairs|ooc|serve|all]\n"
                 "                     [--seed S] [--alloc-fail-every K]\n"
                 "                     [--launch-fail-every K] [--corrupt-every K]\n"
                 "                     [--undetected] [--stall-every K] [--stall-ms MS]\n"
                 "                     [--requests R] [--arrays N] [--size n]\n"
                 "                     [--kill-revive on|off] [--json PATH]\n");
    return 2;
}

struct CliOptions {
    std::string workload = "all";
    std::uint64_t seed = 1;
    std::uint64_t alloc_fail_every = 0;
    std::uint64_t launch_fail_every = 0;
    std::uint64_t corrupt_every = 0;
    bool undetected = false;
    std::uint64_t stall_every = 0;
    double stall_ms = 2.0;
    std::size_t requests = 64;
    std::size_t arrays = 8;
    std::size_t size = 96;
    bool kill_revive = false;
    std::string json;
};

simt::faults::FaultPlan make_plan(const CliOptions& cli) {
    simt::faults::FaultPlan plan;
    plan.seed = cli.seed;
    plan.alloc_fail_every = cli.alloc_fail_every;
    plan.launch_fail_every = cli.launch_fail_every;
    plan.corrupt_every = cli.corrupt_every;
    plan.detected = !cli.undetected;
    plan.stall_every = cli.stall_every;
    plan.stall_ms = cli.stall_ms;
    return plan;
}

struct WorkloadResult {
    std::string name;
    bool recovered = true;      ///< terminated without an escaped error
    std::size_t mismatches = 0; ///< rows whose final bytes are wrong
    std::string error;
    std::string detail;         ///< one-line recovery summary
    simt::faults::FaultReport report;
};

std::size_t count_bad_rows(std::span<const float> got, std::span<const float> want,
                           std::size_t num_rows, std::size_t row_size) {
    std::size_t bad = 0;
    for (std::size_t a = 0; a < num_rows; ++a) {
        if (std::memcmp(got.data() + a * row_size, want.data() + a * row_size,
                        row_size * sizeof(float)) != 0) {
            ++bad;
        }
    }
    return bad;
}

WorkloadResult run_uniform(const CliOptions& cli, simt::Device& device) {
    WorkloadResult res;
    res.name = "uniform";
    std::vector<float> data =
        workload::make_dataset(cli.arrays, cli.size, workload::Distribution::Uniform,
                               cli.seed)
            .values;
    std::vector<float> want = data;
    for (std::size_t a = 0; a < cli.arrays; ++a) {
        auto* row = want.data() + a * cli.size;
        std::sort(row, row + cli.size);
    }

    gas::Options opts;
    opts.verify_output = true;
    gas::resilient::RetryPolicy retry;
    retry.seed = cli.seed;
    retry.max_attempts = 5;
    gas::resilient::AttemptLog log;
    try {
        gas::resilient::sort_arrays<float>(device, std::span<float>(data), cli.arrays,
                                           cli.size, opts, retry, &log);
        res.mismatches = count_bad_rows(data, want, cli.arrays, cli.size);
    } catch (const std::exception& e) {
        res.recovered = false;
        res.error = e.what();
    }
    res.detail = std::to_string(log.attempts) + " attempt(s), " +
                 std::to_string(log.errors.size()) + " transient error(s)";
    return res;
}

WorkloadResult run_ragged(const CliOptions& cli, simt::Device& device) {
    WorkloadResult res;
    res.name = "ragged";
    auto ds = workload::make_ragged_dataset(cli.arrays, 1, std::max<std::size_t>(cli.size, 2),
                                            workload::Distribution::Uniform, cli.seed);
    std::vector<float> data = std::move(ds.values);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    std::vector<float> want = data;
    for (std::size_t i = 1; i < offsets.size(); ++i) {
        std::sort(want.data() + offsets[i - 1], want.data() + offsets[i]);
    }

    gas::Options opts;
    opts.verify_output = true;
    gas::resilient::RetryPolicy retry;
    retry.seed = cli.seed;
    retry.max_attempts = 5;
    gas::resilient::AttemptLog log;
    try {
        gas::resilient::ragged_sort(device, data, offsets, opts, retry, &log);
        for (std::size_t i = 1; i < offsets.size(); ++i) {
            if (std::memcmp(data.data() + offsets[i - 1], want.data() + offsets[i - 1],
                            (offsets[i] - offsets[i - 1]) * sizeof(float)) != 0) {
                ++res.mismatches;
            }
        }
    } catch (const std::exception& e) {
        res.recovered = false;
        res.error = e.what();
    }
    res.detail = std::to_string(log.attempts) + " attempt(s), " +
                 std::to_string(log.errors.size()) + " transient error(s)";
    return res;
}

WorkloadResult run_pairs(const CliOptions& cli, simt::Device& device) {
    WorkloadResult res;
    res.name = "pairs";
    std::vector<float> keys =
        workload::make_dataset(cli.arrays, cli.size, workload::Distribution::Uniform,
                               cli.seed)
            .values;
    std::vector<float> vals(keys.size());
    for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<float>(i);
    // Reference: per-row sortedness of keys and the key/value multiset (tie
    // order is unspecified on the device, so bytes are not comparable).
    std::vector<std::uint64_t> want(cli.arrays);
    for (std::size_t a = 0; a < cli.arrays; ++a) {
        want[a] = gas::resilient::row_checksum(
            std::span<const float>(keys.data() + a * cli.size, cli.size),
            std::span<const float>(vals.data() + a * cli.size, cli.size));
    }

    gas::Options opts;
    opts.verify_output = true;
    gas::resilient::RetryPolicy retry;
    retry.seed = cli.seed;
    retry.max_attempts = 5;
    gas::resilient::AttemptLog log;
    try {
        gas::resilient::pair_sort<float>(device, std::span<float>(keys),
                                         std::span<float>(vals), cli.arrays, cli.size, opts,
                                         retry, &log);
        for (std::size_t a = 0; a < cli.arrays; ++a) {
            const auto* row = keys.data() + a * cli.size;
            const bool sorted = std::is_sorted(row, row + cli.size);
            const std::uint64_t sum = gas::resilient::row_checksum(
                std::span<const float>(row, cli.size),
                std::span<const float>(vals.data() + a * cli.size, cli.size));
            if (!sorted || sum != want[a]) ++res.mismatches;
        }
    } catch (const std::exception& e) {
        res.recovered = false;
        res.error = e.what();
    }
    res.detail = std::to_string(log.attempts) + " attempt(s), " +
                 std::to_string(log.errors.size()) + " transient error(s)";
    return res;
}

WorkloadResult run_ooc(const CliOptions& cli, simt::Device& device) {
    WorkloadResult res;
    res.name = "ooc";
    // Several chunks' worth of arrays so retries, host fallbacks and the
    // checkpoint all operate at chunk granularity.
    const std::size_t num_arrays = cli.arrays * 4;
    std::vector<float> data =
        workload::make_dataset(num_arrays, cli.size, workload::Distribution::Uniform,
                               cli.seed)
            .values;
    std::vector<float> want = data;
    for (std::size_t a = 0; a < num_arrays; ++a) {
        auto* row = want.data() + a * cli.size;
        std::sort(row, row + cli.size);
    }

    ooc::OocOptions opts;
    opts.batch_arrays = cli.arrays;
    opts.sort_opts.verify_output = true;
    opts.retry.seed = cli.seed;
    opts.retry.max_attempts = 5;
    ooc::OocCheckpoint checkpoint;
    try {
        const ooc::OocStats s = ooc::out_of_core_sort(device, data, num_arrays, cli.size,
                                                      opts, &checkpoint);
        res.mismatches = count_bad_rows(data, want, num_arrays, cli.size);
        res.detail = std::to_string(s.batches) + " chunk(s), " +
                     std::to_string(s.chunk_retries) + " retried, " +
                     std::to_string(s.chunk_host_fallbacks) + " host fallback(s), " +
                     "checkpoint " + std::to_string(checkpoint.completed()) + "/" +
                     std::to_string(checkpoint.done.size()) + " done";
        if (!checkpoint.complete()) {
            res.recovered = false;
            res.error = "checkpoint incomplete after a successful run";
        }
    } catch (const std::exception& e) {
        res.recovered = false;
        res.error = e.what();
        res.detail = "checkpoint " + std::to_string(checkpoint.completed()) + "/" +
                     std::to_string(checkpoint.done.size()) + " done at failure";
    }
    return res;
}

WorkloadResult run_serve(const CliOptions& cli, simt::Device& device) {
    WorkloadResult res;
    res.name = "serve";
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;
    cfg.queue_capacity = cli.requests;
    cfg.verify_responses = true;
    cfg.retry.seed = cli.seed;
    cfg.retry.max_attempts = 5;
    gas::serve::Server server(device, cfg);

    struct Outstanding {
        std::vector<float> want;  ///< host-sorted copy of the submitted rows
        gas::serve::Server::Ticket ticket;
    };
    std::vector<Outstanding> live;
    live.reserve(cli.requests);
    try {
        for (std::size_t r = 0; r < cli.requests; ++r) {
            gas::serve::Job job;
            job.kind = gas::serve::JobKind::Uniform;
            job.num_arrays = cli.arrays;
            job.array_size = cli.size;
            job.values = workload::make_dataset(cli.arrays, cli.size,
                                                workload::Distribution::Uniform, r + 1)
                             .values;
            Outstanding o;
            o.want = job.values;
            for (std::size_t a = 0; a < cli.arrays; ++a) {
                auto* row = o.want.data() + a * cli.size;
                std::sort(row, row + cli.size);
            }
            o.ticket = server.submit(std::move(job));
            live.push_back(std::move(o));
        }
        server.pump();
        for (auto& o : live) {
            auto r = o.ticket.result.get();
            if (!r.ok() || std::memcmp(r.values.data(), o.want.data(),
                                       o.want.size() * sizeof(float)) != 0) {
                ++res.mismatches;
            }
        }
        server.stop();
        const auto stats = server.stats();
        res.detail = std::to_string(stats.retries) + " batch retries, " +
                     std::to_string(stats.alloc_retries) + " alloc retries, " +
                     std::to_string(stats.quarantined) + " quarantined, " +
                     std::to_string(stats.verify_failures) + " verify failures";
    } catch (const std::exception& e) {
        res.recovered = false;
        res.error = e.what();
    }
    return res;
}

/// Kill -> revive -> kill against a two-device health-enabled fleet server:
/// device 0 is killed mid-traffic (quarantine + reroute), revived (probe
/// sorts re-admit it through probation back to healthy), then killed again.
/// Recovery means every accepted request's bytes match the host sort across
/// all three phases and the health counters show both losses plus the
/// re-admission in between.
WorkloadResult run_kill_revive(const CliOptions& cli) {
    WorkloadResult res;
    res.name = "kill-revive";
    gas::fleet::DeviceFleet fleet(2);
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;
    cfg.queue_capacity = std::max<std::size_t>(cli.requests, 16);
    cfg.retry.seed = cli.seed;
    cfg.health.enabled = true;
    cfg.health.probe_passes = 1;
    cfg.health.probation_batches = 1;
    cfg.health.probation_base_weight = 1.0;
    gas::serve::Server server(fleet, cfg);

    simt::faults::FaultPlan kill;
    kill.seed = cli.seed;
    kill.launch_fail_every = 1;

    const std::size_t burst = std::max<std::size_t>(cli.requests / 4, 4);
    std::uint64_t data_seed = cli.seed * 1000;
    auto serve_burst = [&]() {
        std::vector<std::pair<std::vector<float>, gas::serve::Server::Ticket>> live;
        for (std::size_t r = 0; r < burst; ++r) {
            gas::serve::Job job;
            job.kind = gas::serve::JobKind::Uniform;
            job.num_arrays = cli.arrays;
            // Vary the geometry so batches spread over both shards.
            job.array_size = cli.size + 16 * (r % 4);
            job.values =
                workload::make_dataset(cli.arrays, job.array_size,
                                       workload::Distribution::Uniform, ++data_seed)
                    .values;
            auto want = job.values;
            for (std::size_t a = 0; a < cli.arrays; ++a) {
                auto* row = want.data() + a * job.array_size;
                std::sort(row, row + job.array_size);
            }
            live.emplace_back(std::move(want), server.submit(std::move(job)));
        }
        server.pump();
        for (auto& [want, ticket] : live) {
            const auto r = ticket.result.get();
            if (!r.ok() || r.values != want) ++res.mismatches;
        }
    };

    try {
        fleet.device(0).set_fault_plan(kill);
        serve_burst();  // phase 1: device 0 dies, survivor carries the burst
        fleet.device(0).set_fault_plan({});
        server.pump();  // probe cycle: re-admission into probation
        for (int round = 0; round < 8; ++round) {
            serve_burst();  // phase 2: verified traffic on the revived device
            if (server.stats().devices[0].health_state == "healthy") break;
        }
        const auto mid = server.stats();
        if (mid.devices[0].health_state != "healthy" || mid.health.readmissions != 1) {
            res.recovered = false;
            res.error = "device 0 not re-admitted (state " +
                        mid.devices[0].health_state + ")";
        }
        fleet.device(0).set_fault_plan(kill);
        serve_burst();  // phase 3: it dies again; service must survive again
        server.stop();
        const auto stats = server.stats();
        if (stats.health.quarantines < 2) {
            res.recovered = false;
            res.error = "expected two quarantines, saw " +
                        std::to_string(stats.health.quarantines);
        }
        res.detail = std::to_string(stats.health.quarantines) + " quarantine(s), " +
                     std::to_string(stats.health.probes_run) + " probe(s), " +
                     std::to_string(stats.health.readmissions) + " readmission(s), " +
                     std::to_string(stats.completed) + " completed";
    } catch (const std::exception& e) {
        res.recovered = false;
        res.error = e.what();
    }
    res.report = fleet.device(0).fault_report();
    return res;
}

int cmd_run(const CliOptions& cli) {
    const simt::faults::FaultPlan plan = make_plan(cli);
    std::vector<std::string> names;
    if (cli.workload == "all") {
        names = {"uniform", "ragged", "pairs", "ooc", "serve"};
    } else {
        names = {cli.workload};
    }
    if (cli.kill_revive && cli.workload == "all") names.push_back("kill-revive");

    std::printf("gas_chaos: seed %llu, plan:%s%s%s%s%s\n",
                static_cast<unsigned long long>(plan.seed),
                plan.alloc_fail_every ? " alloc-fail" : "",
                plan.launch_fail_every ? " launch-fail" : "",
                plan.corrupt_every ? (plan.detected ? " corrupt" : " corrupt(silent)") : "",
                plan.stall_every ? " stall" : "", plan.any() ? "" : " (no faults)");

    std::vector<WorkloadResult> results;
    for (const std::string& name : names) {
        simt::Device device;  // fresh simulated device per workload
        device.set_fault_plan(plan);
        WorkloadResult res;
        if (name == "uniform") {
            res = run_uniform(cli, device);
        } else if (name == "ragged") {
            res = run_ragged(cli, device);
        } else if (name == "pairs") {
            res = run_pairs(cli, device);
        } else if (name == "ooc") {
            res = run_ooc(cli, device);
        } else if (name == "serve") {
            res = run_serve(cli, device);
        } else if (name == "kill-revive") {
            // Manages its own two-device fleet (and its own kill plans); the
            // ambient per-workload device and plan do not apply.
            res = run_kill_revive(cli);
        } else {
            return usage();
        }
        if (name != "kill-revive") res.report = device.fault_report();
        const bool pass = res.recovered && res.mismatches == 0;
        std::printf("[%s] %-7s fired %llu fault(s) (%llu suppressed) — %s%s%s\n",
                    pass ? "PASS" : "FAIL", res.name.c_str(),
                    static_cast<unsigned long long>(res.report.fired()),
                    static_cast<unsigned long long>(res.report.suppressed),
                    res.detail.empty() ? "terminated" : res.detail.c_str(),
                    res.mismatches > 0
                        ? (", " + std::to_string(res.mismatches) + " bad row(s)").c_str()
                        : "",
                    res.recovered ? "" : (": " + res.error).c_str());
        results.push_back(std::move(res));
    }

    std::size_t unrecovered = 0;
    std::size_t mismatches = 0;
    for (const auto& r : results) {
        unrecovered += r.recovered ? 0 : 1;
        mismatches += r.mismatches;
    }

    if (!cli.json.empty()) {
        obs::Json j;
        j.begin_object().field("tool", "gas_chaos").field("seed", cli.seed);
        j.object("workloads");
        for (const auto& r : results) {
            j.object(r.name).field("recovered", r.recovered).field("mismatches", r.mismatches);
            j.field("detail", r.detail.empty() ? r.error : r.detail).key("faults");
            simt::faults::write_json(j, r.report);
            j.end_object();
        }
        j.end_object().field("unrecovered", unrecovered);
        j.field("mismatched_rows", mismatches).end_object();
        if (std::FILE* f = std::fopen(cli.json.c_str(), "w")) {
            std::fprintf(f, "%s\n", j.str().c_str());
            std::fclose(f);
            std::printf("wrote %s\n", cli.json.c_str());
        } else {
            std::fprintf(stderr, "could not write %s\n", cli.json.c_str());
            return 1;
        }
    }

    std::printf("chaos: %zu workload(s), %zu unrecovered, %zu mismatched row(s)\n",
                results.size(), unrecovered, mismatches);
    return (unrecovered == 0 && mismatches == 0) ? 0 : 1;
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
        auto parse_u64 = [&](std::uint64_t& out) {
            const char* v = next();
            if (v == nullptr) return false;
            out = std::strtoull(v, nullptr, 10);
            return true;
        };
        if (arg == "--workload") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.workload = v;
            if (cli.workload != "uniform" && cli.workload != "ragged" &&
                cli.workload != "pairs" && cli.workload != "ooc" &&
                cli.workload != "serve" && cli.workload != "kill-revive" &&
                cli.workload != "all") {
                return usage();
            }
        } else if (arg == "--seed") {
            if (!parse_u64(cli.seed)) return usage();
        } else if (arg == "--alloc-fail-every") {
            if (!parse_u64(cli.alloc_fail_every)) return usage();
        } else if (arg == "--launch-fail-every") {
            if (!parse_u64(cli.launch_fail_every)) return usage();
        } else if (arg == "--corrupt-every") {
            if (!parse_u64(cli.corrupt_every)) return usage();
        } else if (arg == "--undetected") {
            cli.undetected = true;
        } else if (arg == "--stall-every") {
            if (!parse_u64(cli.stall_every)) return usage();
        } else if (arg == "--stall-ms") {
            const char* v = next();
            if (v == nullptr) return usage();
            cli.stall_ms = std::strtod(v, nullptr);
        } else if (arg == "--requests") {
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
        } else if (arg == "--kill-revive") {
            const char* v = next();
            if (v == nullptr) return usage();
            if (std::strcmp(v, "on") == 0) {
                cli.kill_revive = true;
            } else if (std::strcmp(v, "off") == 0) {
                cli.kill_revive = false;
            } else {
                // A typo must not silently skip the workload: name the
                // rejected string and the full valid set.
                std::fprintf(stderr,
                             "gas_chaos: unknown --kill-revive '%s' (valid: on, off)\n",
                             v);
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
        std::fprintf(stderr, "gas_chaos: %s\n", e.what());
        return 1;
    }
}
