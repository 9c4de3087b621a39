#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/pool.hpp"

namespace gas::serve {

/// Flattened percentile view of one digest (for reports and JSON).
struct LatencySummary {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/// Latency sample digest.  Samples are kept verbatim (a serving run is
/// thousands of requests, not billions) and percentiles use nearest-rank on
/// a sorted copy, so p50/p95/p99 are exact.
class LatencyDigest {
  public:
    void record(double ms) {
        samples_.push_back(ms);
        sum_ += ms;
        if (ms > max_) max_ = ms;
    }

    [[nodiscard]] std::size_t count() const { return samples_.size(); }
    [[nodiscard]] double mean() const {
        return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
    }
    [[nodiscard]] double max() const { return max_; }
    /// Nearest-rank percentile, q in (0, 100]; 0 when no samples.
    [[nodiscard]] double percentile(double q) const;

  private:
    friend LatencySummary summarize(const LatencyDigest& d);

    std::vector<double> samples_;
    double sum_ = 0.0;
    double max_ = 0.0;
};

/// All three percentiles from one sorted copy of the samples; each equals
/// d.percentile(q).
[[nodiscard]] LatencySummary summarize(const LatencyDigest& d);

/// Per-device slice of a fleet server's stats (one entry per shard, in
/// device order, including the N=1 single-device degenerate fleet).
struct DeviceBreakdown {
    std::string name;           ///< "dev<i>"
    bool quarantined = false;   ///< device lost; no longer routed to
    std::uint64_t routed = 0;        ///< requests placed here at submit
    std::uint64_t completed = 0;     ///< requests retired on this device
    std::uint64_t batches = 0;       ///< fused batches it executed
    std::uint64_t fused_arrays = 0;
    std::uint64_t steals_in = 0;     ///< requests this shard stole when idle
    std::uint64_t steals_out = 0;    ///< requests stolen from its queue
    std::uint64_t reroutes_in = 0;   ///< requests re-homed here after a loss
    std::uint64_t reroutes_out = 0;  ///< requests it lost when quarantined
    double modeled_kernel_ms = 0.0;
    double modeled_overlap_ms = 0.0;    ///< this device's pipeline makespan
    double compute_utilization = 0.0;   ///< of its own makespan
    std::size_t queue_depth = 0;        ///< at the moment stats() was taken
    /// EWMA of the shard's queue depth, sampled at every enqueue and batch
    /// take (alpha 0.2): the smoothed backlog signal dashboards trend,
    /// immune to the instant-depth sampling noise of queue_depth.  Nothing
    /// in the server acts on it; it is a reported stat only.
    double queue_depth_ewma = 0.0;
    /// gas::health state machine position ("healthy" / "degraded" /
    /// "quarantined" / "probation").  With health off this mirrors the
    /// quarantined flag: "quarantined" or "healthy".
    std::string health_state = "healthy";
};

/// Counters of the gas::health closed loop (the "health" JSON block).  All
/// zero — and `enabled` false — when ServerConfig::health.enabled is off.
/// Queue-full sheds, the one overload action, are ServerStats::shed.
struct HealthStats {
    bool enabled = false;

    // State machine transitions (summed over all shards).
    std::uint64_t demotions = 0;            ///< Healthy -> Degraded
    std::uint64_t quarantines = 0;          ///< any -> Quarantined
    std::uint64_t probations = 0;           ///< Quarantined -> Probation
    std::uint64_t readmissions = 0;         ///< Probation -> Healthy
    std::uint64_t degraded_recoveries = 0;  ///< Degraded -> Healthy

    // Probe sorts run against quarantined devices.
    std::uint64_t probes_run = 0;
    std::uint64_t probes_passed = 0;
    std::uint64_t probes_failed = 0;

    // Watchdog: shards whose heartbeat stalled past the deadline (async), or
    // hung launches aborted by the hang handler (manual pump).
    std::uint64_t hangs_detected = 0;
};

/// Full observability surface of one gas::serve::Server.
struct ServerStats {
    // Admission.
    std::uint64_t submitted = 0;   ///< submit() calls
    std::uint64_t accepted = 0;    ///< admitted into the queue
    std::uint64_t rejected = 0;    ///< queue full / stopped / zero capacity
    std::uint64_t timed_out = 0;   ///< deadline expired (at submit or queued)
    std::uint64_t cancelled = 0;
    std::uint64_t completed = 0;   ///< Status::Ok responses
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;        ///< queue-full priority drops, health on (typed)
    std::uint64_t cpu_fallbacks = 0;  ///< served by the host degradation path

    // Micro-batching.
    std::uint64_t batches = 0;           ///< fused device batches executed
    std::uint64_t batched_requests = 0;  ///< requests those batches carried
    std::uint64_t fused_arrays = 0;      ///< arrays across all fused batches

    // Queue.
    std::size_t queue_depth = 0;  ///< at the moment stats() was taken
    std::size_t queue_peak = 0;

    // Resilience (gas::resilient wiring; all zero on a fault-free run).
    std::uint64_t retries = 0;          ///< fused-batch re-attempts after transient errors
    std::uint64_t alloc_retries = 0;    ///< pool acquisitions retried after a trim
    std::uint64_t quarantined = 0;      ///< requests isolated to solo host re-sorts
    std::uint64_t verify_failures = 0;  ///< requests whose response verification failed
    double retry_backoff_ms = 0.0;      ///< modeled backoff accrued by all retries

    // Fleet (multi-device routing; devices.size() == 1 for a single device).
    std::uint64_t steals = 0;               ///< requests moved by work stealing
    std::uint64_t reroutes = 0;             ///< requests re-homed after device loss
    std::uint64_t devices_quarantined = 0;  ///< devices lost so far
    std::vector<DeviceBreakdown> devices;   ///< per-shard slice, device order

    // Always 0: every serve batch is one fused-kernel launch, and serve
    // holds no graph cache.  Kept because ledger/src/serve_load.cpp still
    // reads both fields for its serve.graph_cache_hit_rate layer metric.
    std::uint64_t graph_cache_hits = 0;
    std::uint64_t graph_cache_misses = 0;

    // Modeled device cost (sums over batches).
    double modeled_kernel_ms = 0.0;
    double modeled_h2d_ms = 0.0;
    double modeled_d2h_ms = 0.0;
    // Multi-stream pipeline model (simt::Timeline over every batch).  With a
    // fleet, devices run concurrently: overlap is the max per-device
    // makespan, serial the sum of fully-serialized per-device costs, and the
    // engine utilizations are fleet-wide (busy / (overlap x devices)).
    double modeled_overlap_ms = 0.0;
    double modeled_serial_ms = 0.0;
    double h2d_busy_ms = 0.0;
    double compute_busy_ms = 0.0;
    double d2h_busy_ms = 0.0;
    double h2d_utilization = 0.0;
    double compute_utilization = 0.0;
    double d2h_utilization = 0.0;

    // Always 0: serve takes no sketch and runs no tuning controller (keys-only
    // batches use the fixed lean sample, pairs their submitted options).
    // Kept because ledger/src/serve_load.cpp still reads all four for its
    // tune.* layer metrics.
    std::uint64_t tune_decisions = 0;
    std::uint64_t tune_plan_switches = 0;
    std::uint64_t tuned_batches = 0;
    double tune_sketch_ms = 0.0;

    double wall_service_ms = 0.0;  ///< host wall time spent executing batches

    /// Closed-loop health subsystem counters (gas::health wiring).
    HealthStats health;

    BufferPool::Stats pool;

    // Per-request latency distributions.
    LatencySummary queue_wait_ms;  ///< submit -> service start
    LatencySummary wall_ms;        ///< submit -> response (wall)
    LatencySummary modeled_ms;     ///< request's share of modeled device time

    [[nodiscard]] double batch_occupancy() const {
        return batches > 0
                   ? static_cast<double>(batched_requests) / static_cast<double>(batches)
                   : 0.0;
    }
    /// Requests per second over the modeled pipeline makespan.
    [[nodiscard]] double modeled_throughput_rps() const {
        return modeled_overlap_ms > 0.0
                   ? static_cast<double>(completed) / modeled_overlap_ms * 1e3
                   : 0.0;
    }
    [[nodiscard]] double overlap_speedup() const {
        return modeled_overlap_ms > 0.0 ? modeled_serial_ms / modeled_overlap_ms : 1.0;
    }

    /// One JSON object, schema stable for dashboards and the bench gates.
    [[nodiscard]] std::string to_json() const;
};

}  // namespace gas::serve
