// ledger_bench: runs one workload of the benchmark and prints its metrics.
//
//   ledger_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics.  --trace 1 runs the workload
// twice for S/2 seconds each, untraced then traced, and prints the per-layer
// metrics of the traced half; the spans go to PATH as Chrome trace JSON.
// The last stdout line is the result object; the exit code is 0 only when
// every output byte was correct.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "metrics.hpp"
#include "workload.hpp"

namespace {

/// Set-up repeats: at least kMinSetupReps, and more until kSetupBudgetS
/// seconds have gone into set-up (cheap set-ups are noisy), at most
/// kMaxSetupReps.  setup_s is their median.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 41;
constexpr double kSetupBudgetS = 1.0;

int usage() {
    std::fprintf(stderr,
                 "usage: ledger_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\nworkloads:");
    for (const auto& n : ledger::workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

void print_metrics(const char* tag, const ledger::MetricList& metrics) {
    for (const auto& m : metrics) {
        std::printf("%s %-32s %.6g %s\n", tag, m.name.c_str(), m.value, m.unit.c_str());
    }
}

double per_op(const std::map<std::string, double>& self_ms, const char* name, double ops) {
    const auto it = self_ms.find(name);
    return it == self_ms.end() || ops <= 0 ? 0.0 : it->second / ops;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, trace_out;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        const char* v = argv[i + 1];
        if (arg == "--workload") {
            workload = v;
        } else if (arg == "--seed") {
            seed = std::strtoull(v, nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(v, nullptr);
        } else if (arg == "--trace") {
            trace = std::atoi(v);
        } else if (arg == "--trace-out") {
            trace_out = v;
        } else {
            return usage();
        }
    }
    if (argc % 2 == 0 || seconds < 0 || (trace != 0 && trace != 1)) return usage();
    auto w = ledger::make_workload(workload, seed);
    if (!w) return usage();

    ledger::Fingerprint fp = w->fingerprint();
    fp.trace = trace == 1;
    std::printf("fingerprint %s\n", fp.to_json().c_str());

    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    ledger::MetricList metrics;
    if (trace == 0) {
        std::vector<double> setup_s;
        double spent = 0.0;
        while (setup_s.size() < kMaxSetupReps &&
               (setup_s.size() < kMinSetupReps || spent < kSetupBudgetS)) {
            setup_s.push_back(w->setup());
            spent += setup_s.back();
        }
        ledger::Tracer off(false);
        ledger::WindowResult r = w->run(seconds, off);
        r.e2e.setup_s = ledger::nearest_rank(setup_s, 50);
        attempted = r.attempted;
        failed = r.failed;
        metrics = r.e2e.to_metrics();
        print_metrics("info", r.extra);
        print_metrics("info", {{"latency_p99_ms", r.e2e.latency_p99_ms, "ms"}});
    } else {
        (void)w->setup();
        ledger::Tracer off(false);
        const ledger::WindowResult base = w->run(seconds / 2, off);
        (void)w->setup();
        ledger::Tracer on(true);
        ledger::WindowResult r = w->run(seconds / 2, on);
        attempted = base.attempted + r.attempted;
        failed = base.failed + r.failed;

        const auto self = on.self_ms();
        const auto ops = static_cast<double>(r.ops);
        auto& l = r.layers;
        l.latency_p99_ms = r.e2e.latency_p99_ms;
        l.self_call_ms = per_op(self, "call", ops);
        l.self_kernel_ms = per_op(self, "kernel", ops);
        l.self_request_ms = per_op(self, "request", ops);
        l.self_submit_ms = per_op(self, "submit", ops);
        l.self_queue_ms = per_op(self, "queue", ops);
        l.self_service_ms = per_op(self, "service", ops);
        l.trace_overhead_pct =
            100.0 * (r.e2e.cpu_ns_per_elem / base.e2e.cpu_ns_per_elem - 1.0);
        metrics = l.to_metrics();

        const std::size_t bad_nesting = on.nesting_violations();
        if (bad_nesting > 0) {
            std::fprintf(stderr, "trace: %zu spans lie outside their parent\n", bad_nesting);
            correct = false;
        }
        print_metrics("untraced", base.e2e.to_metrics());
        print_metrics("info", r.extra);
        std::printf("info %-32s %zu count\n", "trace.spans", on.spans().size());
        if (!trace_out.empty()) {
            std::ofstream f(trace_out, std::ios::binary);
            f << on.chrome_json(fp.to_json());
            if (!f) {
                std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
                correct = false;
            }
        }
    }
    if (failed > 0) correct = false;
    print_metrics("metric", metrics);
    std::printf("%s\n", ledger::result_json(correct, attempted, failed, metrics).c_str());
    return correct ? 0 : 1;
}
