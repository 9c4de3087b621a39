#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace ledger {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// User + system CPU seconds consumed by this process so far.
[[nodiscard]] double process_cpu_seconds();

/// Asks the kernel to fire the calling thread's timers on time rather than
/// coalescing them (the default slack is 50 us), so that the load
/// generator's send times and the observer's timeouts stay sharp.
void minimize_timer_slack();

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Logical cores the host offers this process.
[[nodiscard]] unsigned host_cores();

/// What a reader needs to compare two outputs of the benchmark: the host,
/// the build and the run's settings.
struct Fingerprint {
    unsigned nproc = 0;
    std::string compiler;
    std::string build_type;
    std::string exec_mode;
    unsigned host_workers_per_device = 0;
    unsigned devices = 0;
    std::uint64_t seed = 0;
    std::string workload;
    bool trace = false;

    [[nodiscard]] std::string to_json() const;
};

/// Fingerprint fields fixed at build time (compiler, build type, cores).
[[nodiscard]] Fingerprint build_fingerprint();

}  // namespace ledger
