#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>

#include "obs/json.hpp"

namespace gas::serve {

namespace {

/// Nearest-rank q-th percentile of an ascending sample vector.
double nearest_rank(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx =
        std::min(sorted.size() - 1,
                 static_cast<std::size_t>(std::max(rank - 1.0, 0.0)));
    return sorted[idx];
}

std::vector<double> sorted_copy(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
}

void write_latency(obs::Json& j, const char* name, const LatencySummary& s) {
    j.object(name).field("count", s.count).field("mean", s.mean).field("p50", s.p50);
    j.field("p95", s.p95).field("p99", s.p99).field("max", s.max).end_object();
}

}  // namespace

double LatencyDigest::percentile(double q) const {
    return nearest_rank(sorted_copy(samples_), q);
}

LatencySummary summarize(const LatencyDigest& d) {
    const std::vector<double> sorted = sorted_copy(d.samples_);
    return {d.count(),
            d.mean(),
            nearest_rank(sorted, 50.0),
            nearest_rank(sorted, 95.0),
            nearest_rank(sorted, 99.0),
            d.max()};
}

std::string ServerStats::to_json() const {
    obs::Json j;
    j.begin_object().object("requests");
    j.field("submitted", submitted).field("accepted", accepted).field("rejected", rejected);
    j.field("timed_out", timed_out).field("cancelled", cancelled).field("completed", completed);
    j.field("failed", failed).field("shed", shed).field("cpu_fallbacks", cpu_fallbacks);
    j.end_object().object("batching");
    j.field("batches", batches).field("batched_requests", batched_requests);
    j.field("fused_arrays", fused_arrays).field("occupancy", batch_occupancy());
    j.end_object().object("queue").field("depth", queue_depth).field("peak", queue_peak);
    j.end_object().object("resilience");
    j.field("retries", retries).field("alloc_retries", alloc_retries);
    j.field("quarantined", quarantined).field("verify_failures", verify_failures);
    j.field("retry_backoff_ms", retry_backoff_ms);
    j.end_object().object("fleet");
    j.field("devices", devices.size()).field("steals", steals).field("reroutes", reroutes);
    j.field("devices_quarantined", devices_quarantined).array("per_device");
    for (const DeviceBreakdown& d : devices) {
        j.begin_object().field("name", d.name).field("quarantined", d.quarantined);
        j.field("routed", d.routed).field("completed", d.completed);
        j.field("batches", d.batches).field("fused_arrays", d.fused_arrays);
        j.field("steals_in", d.steals_in).field("steals_out", d.steals_out);
        j.field("reroutes_in", d.reroutes_in).field("reroutes_out", d.reroutes_out);
        j.field("queue_depth", d.queue_depth).field("queue_depth_ewma", d.queue_depth_ewma);
        j.field("health_state", d.health_state).field("kernel_ms", d.modeled_kernel_ms);
        j.field("overlap_ms", d.modeled_overlap_ms);
        j.field("compute_utilization", d.compute_utilization).end_object();
    }
    const HealthStats& h = health;
    j.end_array().end_object().object("health");
    j.field("enabled", h.enabled).field("demotions", h.demotions);
    j.field("quarantines", h.quarantines).field("probations", h.probations);
    j.field("readmissions", h.readmissions);
    j.field("degraded_recoveries", h.degraded_recoveries);
    j.field("probes_run", h.probes_run).field("probes_passed", h.probes_passed);
    j.field("probes_failed", h.probes_failed).field("hangs_detected", h.hangs_detected);
    j.end_object().object("modeled");
    j.field("kernel_ms", modeled_kernel_ms).field("h2d_ms", modeled_h2d_ms);
    j.field("d2h_ms", modeled_d2h_ms).field("overlap_ms", modeled_overlap_ms);
    j.field("serial_ms", modeled_serial_ms).field("overlap_speedup", overlap_speedup());
    j.field("throughput_rps", modeled_throughput_rps()).field("h2d_busy_ms", h2d_busy_ms);
    j.field("compute_busy_ms", compute_busy_ms).field("d2h_busy_ms", d2h_busy_ms);
    j.field("h2d_utilization", h2d_utilization);
    j.field("compute_utilization", compute_utilization);
    j.field("d2h_utilization", d2h_utilization);
    j.end_object().field("wall_service_ms", wall_service_ms).object("pool");
    j.field("acquires", pool.acquires).field("reuse_hits", pool.reuse_hits);
    j.field("device_allocs", pool.device_allocs).field("reuse_rate", pool.reuse_rate());
    j.field("bytes_cached", pool.bytes_cached).field("peak_leased", pool.peak_leased);
    j.end_object().object("latency");
    write_latency(j, "queue_wait_ms", queue_wait_ms);
    write_latency(j, "wall_ms", wall_ms);
    write_latency(j, "modeled_ms", modeled_ms);
    j.end_object().end_object();
    return j.str();
}

}  // namespace gas::serve
