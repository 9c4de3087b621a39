// Overload & recovery bench: the serving fleet under gas::health.
//
// A two-device fleet server faces, in turn: a 2x-capacity admission burst
// (queue-full priority shedding), a mid-run device kill followed
// by a revive (quarantine, probe-sort re-admission through probation), and
// wall-clock hang injection (watchdog/hang-handler abort).  BENCH_health.json
// asserts the acceptance gates:
//   * termination: 100% of accepted requests reach a terminal response,
//   * typed sheds: every request dropped by overload protection completes
//     as Status::Shed — never a silent loss, never a block,
//   * integrity: zero byte mismatches against the host reference across
//     every phase,
//   * recovery: the killed device is re-admitted via probation and serves
//     verified traffic again; hangs are detected and absorbed,
//   * backlog: shedding bounds the backlog — the burst server's queue never
//     holds more than its capacity, and accepted-request p99 wall latency
//     under the burst stays <= 3x the unloaded p99, and
//   * off-switch: health=off serves the same stream bit-identically to the
//     health=on fault-free run (and to the host sort).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "serve/server.hpp"
#include "workload/generators.hpp"

namespace {

constexpr std::size_t kArraysPerRequest = 4;
constexpr std::size_t kArraySize = 256;

gas::serve::ServerConfig server_config(std::size_t capacity, bool health) {
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;  // deterministic batching, shedding and probes
    cfg.queue_capacity = capacity;
    cfg.max_batch_requests = 16;
    cfg.retry.seed = 2025;
    cfg.health.enabled = health;
    cfg.health.probe_passes = 1;
    cfg.health.probation_batches = 1;
    cfg.health.probation_base_weight = 1.0;
    return cfg;
}

struct Request {
    std::size_t array_size = kArraySize;
    std::vector<float> input;
    std::vector<float> want;  ///< host-sorted reference
    gas::serve::Priority priority = gas::serve::Priority::Normal;
};

/// `vary` staggers the array geometry so fused batches spread over both
/// shards (the idiom the kill-revive chaos workload uses).
std::vector<Request> make_requests(std::size_t count, std::uint64_t seed_base,
                                   bool vary = false) {
    std::vector<Request> reqs(count);
    for (std::size_t r = 0; r < count; ++r) {
        reqs[r].array_size = vary ? kArraySize + 16 * (r % 4) : kArraySize;
        reqs[r].input = workload::make_dataset(kArraysPerRequest, reqs[r].array_size,
                                               workload::Distribution::Uniform,
                                               seed_base + r)
                            .values;
        reqs[r].want = reqs[r].input;
        for (std::size_t a = 0; a < kArraysPerRequest; ++a) {
            auto* row = reqs[r].want.data() + a * reqs[r].array_size;
            std::sort(row, row + reqs[r].array_size);
        }
        // Half the stream is sheddable background work.
        reqs[r].priority =
            r % 2 == 1 ? gas::serve::Priority::Low : gas::serve::Priority::Normal;
    }
    return reqs;
}

gas::serve::Server::Ticket submit_one(gas::serve::Server& server, const Request& req) {
    gas::serve::Job job;
    job.kind = gas::serve::JobKind::Uniform;
    job.num_arrays = kArraysPerRequest;
    job.array_size = req.array_size;
    job.values = req.input;
    job.priority = req.priority;
    return server.submit(std::move(job));
}

struct PhaseResult {
    std::size_t ok = 0;
    std::size_t shed = 0;
    std::size_t other = 0;       ///< non-Ok, non-Shed terminals (should be 0)
    std::size_t mismatches = 0;  ///< Ok responses whose bytes differ from the host

    PhaseResult& operator+=(const PhaseResult& rhs) {
        ok += rhs.ok;
        shed += rhs.shed;
        other += rhs.other;
        mismatches += rhs.mismatches;
        return *this;
    }
};

PhaseResult collect(const std::vector<Request>& reqs,
                    std::vector<gas::serve::Server::Ticket>& tickets) {
    PhaseResult res;
    for (std::size_t r = 0; r < tickets.size(); ++r) {
        auto resp = tickets[r].result.get();
        if (resp.ok()) {
            ++res.ok;
            if (resp.values != reqs[r].want) ++res.mismatches;
        } else if (resp.status == gas::serve::Status::Shed) {
            ++res.shed;
        } else {
            ++res.other;
        }
    }
    return res;
}

/// Submit a whole request vector, pump once, and collect every terminal.
PhaseResult serve_burst(gas::serve::Server& server, const std::vector<Request>& reqs) {
    std::vector<gas::serve::Server::Ticket> tickets;
    tickets.reserve(reqs.size());
    for (const auto& r : reqs) tickets.push_back(submit_one(server, r));
    server.pump();
    return collect(reqs, tickets);
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::string json_path = "BENCH_health.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[i + 1];
        }
    }
    const std::size_t capacity = quick ? 32 : 64;

    std::printf("Overload & recovery: 2-device fleet, capacity %zu, requests of "
                "%zu x %zu floats\n",
                capacity, kArraysPerRequest, kArraySize);
    bench::rule('=');

    // ---- Phase 1: unloaded baseline (health on, no pressure) --------------
    // One capacity's worth of requests, served in a single drain: the p99
    // yardstick the backlog gate compares against.
    double p99_unloaded = 0.0;
    std::vector<std::vector<float>> bytes_on;
    std::size_t unloaded_bad = 0;
    {
        gas::fleet::DeviceFleet fleet(2);
        gas::serve::Server server(fleet, server_config(capacity, /*health=*/true));
        const auto reqs = make_requests(capacity, 1);
        std::vector<gas::serve::Server::Ticket> tickets;
        for (const auto& r : reqs) tickets.push_back(submit_one(server, r));
        server.pump();
        for (std::size_t r = 0; r < tickets.size(); ++r) {
            auto resp = tickets[r].result.get();
            if (!resp.ok() || resp.values != reqs[r].want) ++unloaded_bad;
            bytes_on.push_back(std::move(resp.values));  // index-aligned capture
        }
        p99_unloaded = server.stats().wall_ms.p99;
        std::printf("unloaded: %zu requests served, p99 %.3f ms wall, %zu bad\n",
                    capacity, p99_unloaded, unloaded_bad);
    }

    // ---- Phase 1b: the same stream with health off (identity gate) -------
    std::size_t off_divergence = 0;
    {
        gas::fleet::DeviceFleet fleet(2);
        gas::serve::Server server(fleet, server_config(capacity, /*health=*/false));
        const auto reqs = make_requests(capacity, 1);
        std::vector<gas::serve::Server::Ticket> tickets;
        for (const auto& r : reqs) tickets.push_back(submit_one(server, r));
        server.pump();
        for (std::size_t r = 0; r < tickets.size(); ++r) {
            auto resp = tickets[r].result.get();
            if (!resp.ok() || resp.values != bytes_on[r]) ++off_divergence;
        }
        std::printf("health off: %zu responses, %zu diverging from health-on bytes\n",
                    capacity, off_divergence);
    }

    // ---- Phase 2: 2x-capacity burst (overload protection) ----------------
    PhaseResult burst;
    double p99_burst = 0.0;
    std::uint64_t shed_counted = 0;
    std::size_t queue_peak = 0;
    {
        gas::fleet::DeviceFleet fleet(2);
        gas::serve::Server server(fleet, server_config(capacity, /*health=*/true));
        const auto reqs = make_requests(2 * capacity, 1000);
        std::vector<gas::serve::Server::Ticket> tickets;
        for (const auto& r : reqs) tickets.push_back(submit_one(server, r));
        server.pump();
        burst = collect(reqs, tickets);
        const auto stats = server.stats();
        p99_burst = stats.wall_ms.p99;
        shed_counted = stats.shed;
        queue_peak = stats.queue_peak;
        std::printf("burst: %zu submitted over capacity %zu -> %zu ok, %zu shed "
                    "(typed), %zu other, %zu bad bytes\n",
                    2 * capacity, capacity, burst.ok, burst.shed, burst.other,
                    burst.mismatches);
        std::printf("  queue peak %zu, accepted p99 %.3f ms (unloaded %.3f ms)\n",
                    queue_peak, p99_burst, p99_unloaded);
    }

    // ---- Phase 3: kill -> revive -> verified traffic ----------------------
    PhaseResult killed, revived;
    std::size_t revived_submitted = 0;
    std::string state_after_kill, state_after_recovery;
    std::uint64_t quarantines = 0, probes_passed = 0, readmissions = 0;
    {
        gas::fleet::DeviceFleet fleet(2);
        gas::serve::Server server(fleet, server_config(capacity, /*health=*/true));
        simt::faults::FaultPlan kill;
        kill.launch_fail_every = 1;
        fleet.device(0).set_fault_plan(kill);

        killed = serve_burst(server, make_requests(capacity / 2, 5000, /*vary=*/true));
        state_after_kill = server.stats().devices[0].health_state;

        fleet.device(0).set_fault_plan({});
        server.pump();  // probe cycle on the revived device
        std::uint64_t seed = 6000;
        for (int round = 0; round < 8; ++round) {
            const auto again = make_requests(capacity / 2, seed, /*vary=*/true);
            seed += again.size();
            revived += serve_burst(server, again);
            revived_submitted += again.size();
            if (server.stats().devices[0].health_state == "healthy") break;
        }

        const auto stats = server.stats();
        state_after_recovery = stats.devices[0].health_state;
        quarantines = stats.health.quarantines;
        probes_passed = stats.health.probes_passed;
        readmissions = stats.health.readmissions;
        std::printf("kill/revive: after kill dev0=%s (%zu ok, %zu bad); after revive "
                    "dev0=%s (%zu/%zu ok, %zu bad), %llu probe pass(es), %llu "
                    "readmission(s)\n",
                    state_after_kill.c_str(), killed.ok, killed.mismatches,
                    state_after_recovery.c_str(), revived.ok, revived_submitted,
                    revived.mismatches,
                    static_cast<unsigned long long>(probes_passed),
                    static_cast<unsigned long long>(readmissions));
    }

    // ---- Phase 4: hang injection ------------------------------------------
    PhaseResult hung;
    std::uint64_t hangs_detected = 0;
    {
        gas::fleet::DeviceFleet fleet(2);
        gas::serve::Server server(fleet, server_config(capacity, /*health=*/true));
        simt::faults::FaultPlan hang;
        hang.hang_every = 1;      // every launch on device 0 wedges...
        hang.hang_max_ms = 25.0;  // ...with a tight wall cap as the backstop
        fleet.device(0).set_fault_plan(hang);

        const auto reqs = make_requests(capacity / 2, 9000, /*vary=*/true);
        hung = serve_burst(server, reqs);
        hangs_detected = server.stats().health.hangs_detected;
        std::printf("hangs: %zu requests with device 0 wedging -> %zu ok, %zu bad, "
                    "%llu hang(s) detected\n",
                    reqs.size(), hung.ok, hung.mismatches,
                    static_cast<unsigned long long>(hangs_detected));
    }
    bench::rule();

    // ---- Gates -------------------------------------------------------------
    const std::size_t total_mismatches = unloaded_bad + burst.mismatches +
                                         killed.mismatches + revived.mismatches +
                                         hung.mismatches;
    const bool termination_pass = burst.other == 0 && killed.other == 0 &&
                                  revived.other == 0 && hung.other == 0 &&
                                  burst.ok + burst.shed == 2 * capacity;
    const bool typed_shed_pass = burst.shed > 0 && burst.shed == shed_counted;
    const bool integrity_pass = total_mismatches == 0;
    const bool recovery_pass = state_after_kill == "quarantined" &&
                               state_after_recovery == "healthy" &&
                               quarantines >= 1 && probes_passed >= 1 &&
                               readmissions >= 1 && revived_submitted > 0 &&
                               revived.ok == revived_submitted;
    const bool hang_pass = hangs_detected >= 1 && hung.ok == capacity / 2;
    const double p99_ratio = p99_unloaded > 0.0 ? p99_burst / p99_unloaded : 0.0;
    const bool backlog_pass = queue_peak <= capacity && p99_ratio <= 3.0;
    const bool identity_pass = off_divergence == 0;

    std::printf("gate: termination, %zu untyped terminal(s) (need 0) ...... %s\n",
                burst.other + killed.other + revived.other + hung.other,
                termination_pass ? "PASS" : "FAIL");
    std::printf("gate: typed sheds, %zu shed of %zu over capacity .......... %s\n",
                burst.shed, 2 * capacity, typed_shed_pass ? "PASS" : "FAIL");
    std::printf("gate: integrity, %zu mismatch(es) (need 0) ................ %s\n",
                total_mismatches, integrity_pass ? "PASS" : "FAIL");
    std::printf("gate: recovery via probation (%s -> %s) ................... %s\n",
                state_after_kill.c_str(), state_after_recovery.c_str(),
                recovery_pass ? "PASS" : "FAIL");
    std::printf("gate: hang detection, %llu detected (need >= 1) ........... %s\n",
                static_cast<unsigned long long>(hangs_detected),
                hang_pass ? "PASS" : "FAIL");
    std::printf("gate: backlog, queue peak %zu (<= %zu), p99 %.2fx (<= 3x) ... %s\n",
                queue_peak, capacity, p99_ratio, backlog_pass ? "PASS" : "FAIL");
    std::printf("gate: health=off identity, %zu divergence(s) (need 0) ..... %s\n",
                off_divergence, identity_pass ? "PASS" : "FAIL");

    obs::Json j;
    j.begin_object().field("bench", "overload_recovery").field("capacity", capacity);
    j.field("arrays_per_request", kArraysPerRequest).field("array_size", kArraySize);
    j.field("devices", 2).object("burst").field("submitted", 2 * capacity);
    j.field("ok", burst.ok).field("shed", burst.shed).field("queue_peak", queue_peak);
    j.end_object();
    j.object("recovery").field("after_kill", state_after_kill);
    j.field("after_revive", state_after_recovery).field("quarantines", quarantines);
    j.field("probes_passed", probes_passed).field("readmissions", readmissions);
    j.end_object().field("hangs_detected", hangs_detected).object("gates");
    j.object("termination").field("pass", termination_pass).end_object();
    j.object("typed_sheds").field("shed", burst.shed).field("pass", typed_shed_pass);
    j.end_object().object("integrity").field("mismatches", total_mismatches);
    j.field("max", 0);
    j.field("pass", integrity_pass).end_object();
    j.object("recovery").field("pass", recovery_pass).end_object();
    j.object("hang_detection").field("pass", hang_pass).end_object();
    // Wall-clock ratio: recorded for trending, gated loosely (3x) so a
    // noisy host cannot flip it; the bench runs RUN_SERIAL in ctest.
    j.object("backlog_p99").field("queue_peak", queue_peak).field("capacity", capacity);
    j.field("ratio", p99_ratio).field("max", 3.0).field("pass", backlog_pass).end_object();
    j.object("off_identity").field("divergences", off_divergence);
    j.field("pass", identity_pass).end_object().end_object().end_object();
    bench::write_json_file(json_path, j);

    const bool all_pass = termination_pass && typed_shed_pass && integrity_pass &&
                          recovery_pass && hang_pass && backlog_pass && identity_pass;
    std::printf("%s\n", all_pass ? "ALL GATES PASS" : "GATE FAILURE");
    return all_pass ? 0 : 1;
}
