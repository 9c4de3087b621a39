#include "host.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <thread>

#include "metrics.hpp"

#ifndef LEDGER_COMPILER
#define LEDGER_COMPILER "unknown"
#endif
#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace ledger {

double process_cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void minimize_timer_slack() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

unsigned host_cores() { return std::max(1u, std::thread::hardware_concurrency()); }

std::string Fingerprint::to_json() const {
    std::string j = "{";
    j += "\"nproc\": " + std::to_string(nproc);
    j += ", \"compiler\": " + json_string(compiler);
    j += ", \"build_type\": " + json_string(build_type);
    j += ", \"exec_mode\": " + json_string(exec_mode);
    j += ", \"host_workers_per_device\": " + std::to_string(host_workers_per_device);
    j += ", \"devices\": " + std::to_string(devices);
    j += ", \"seed\": " + std::to_string(seed);
    j += ", \"workload\": " + json_string(workload);
    j += ", \"trace\": " + std::string(trace ? "true" : "false");
    j += "}";
    return j;
}

Fingerprint build_fingerprint() {
    Fingerprint f;
    f.nproc = host_cores();
    f.compiler = LEDGER_COMPILER;
    f.build_type = LEDGER_BUILD_TYPE;
    return f;
}

}  // namespace ledger
