#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "host.hpp"
#include "metrics.hpp"
#include "serve/request.hpp"
#include "trace.hpp"
#include "workload/generators.hpp"

namespace ledger {

/// What a user of the stack sees, one value per metric (BENCHMARK.json
/// `end_to_end`, in this order).  Every field is defined on every workload.
struct EndToEnd {
    double setup_s = 0.0;              ///< median construction + warm-up time
    double melem_per_s = 0.0;          ///< elements sorted per host-wall second
    double modeled_ns_per_elem = 0.0;  ///< modeled K40c time per element
    double device_mem_overhead = 0.0;  ///< device bytes beyond the data, / data (see README)
    double latency_p50_ms = 0.0;       ///< geometric mean over request classes of class medians
    /// Median of per-window p99s (windows of >= 1000 operations, per class
    /// for direct calls).  Printed, but gated as a per-layer metric: on a
    /// shared virtual machine the sub-millisecond tail is set by host
    /// scheduling noise that changes from minute to minute.
    double latency_p99_ms = 0.0;
    double slo_attainment = 0.0;       ///< share of operations Ok within the limit
    double cpu_ns_per_elem = 0.0;      ///< process user + sys CPU per element
    double peak_rss_mb = 0.0;
    double ok_rate = 0.0;              ///< 1 - error_rate

    [[nodiscard]] MetricList to_metrics() const;
};

/// Per-layer metrics of a traced run (BENCHMARK.json `per_layer`, in this
/// order).  A layer the workload does not pass through reports 0.
/// "Per op" means per gpu_array_sort call (direct workloads) or per request
/// (served workloads).
struct LayerMetrics {
    double latency_p99_ms = 0.0;  ///< EndToEnd::latency_p99_ms of the traced window
    // core: three-phase sort and fused batch kernels (per op).
    double phase1_wall_ms = 0.0, phase2_wall_ms = 0.0, phase3_wall_ms = 0.0;
    double phase1_modeled_ms = 0.0, phase2_modeled_ms = 0.0, phase3_modeled_ms = 0.0;
    double fused_modeled_ms = 0.0;     ///< ragged / pair fused kernels
    double transfer_modeled_ms = 0.0;  ///< modeled H2D + D2H
    // simt: interpreter, launches, cost model.  Counts are computed from
    // KernelStats lane totals, per element sorted.
    double host_ns_per_op = 0.0;  ///< kernel host wall / simulated ALU ops
    double ops = 0.0, coalesced_bytes = 0.0, random_accesses = 0.0, shared_accesses = 0.0;
    double launches = 0.0, graph_nodes = 0.0;  ///< per op
    double phase3_imbalance = 0.0;             ///< sum warp max / sum warp mean cycles
    // tune.
    double sketch_modeled_ms = 0.0;  ///< per request
    double sketch_host_us = 0.0;     ///< median timed tune::sketch_* call
    double tune_decisions = 0.0, plan_switches = 0.0, tuned_batches = 0.0;
    // serve.
    double submit_us_p50 = 0.0, submit_us_p99 = 0.0;
    double queue_wait_ms_p50 = 0.0, queue_wait_ms_p99 = 0.0;
    double service_ms_p50 = 0.0;
    double observe_lag_ms = 0.0;  ///< p50 of latency - lateness - queue - service
    double batch_occupancy = 0.0, batches = 0.0, pool_reuse_rate = 0.0;
    double graph_cache_hit_rate = 0.0;
    double compute_utilization = 0.0, overlap_speedup = 0.0, cpu_fallbacks = 0.0;
    // fleet.
    double routed_max_share = 0.0, steals = 0.0, util_spread = 0.0;
    // Harness health.
    double late_ms_p99 = 0.0, late_ms_max = 0.0;
    // Self time per span name (ms per op), from the trace.  Phase spans are
    // covered by their kernels (see paper_uniform.cpp), so they have none.
    double self_call_ms = 0.0, self_kernel_ms = 0.0;
    double self_request_ms = 0.0, self_submit_ms = 0.0, self_queue_ms = 0.0,
           self_service_ms = 0.0;
    double trace_overhead_pct = 0.0;  ///< traced vs untraced cpu_ns_per_elem

    [[nodiscard]] MetricList to_metrics() const;
};

/// One timed window of a workload.
struct WindowResult {
    std::uint64_t attempted = 0;  ///< operations (calls or requests) made
    std::uint64_t failed = 0;     ///< not Ok, wrong bytes, or nondeterministic model
    std::uint64_t ops = 0;        ///< operations timed in the window
    EndToEnd e2e;                 ///< setup_s left to the caller
    LayerMetrics layers;          ///< self times and overhead left to the caller
    MetricList extra;             ///< printed, not part of the result line
};

/// A workload with its inputs and host references generated from the seed.
/// setup() builds the system under test (replacing any previous one) and
/// warms it up; run() measures one window on the system last set up.
class Workload {
  public:
    virtual ~Workload() = default;
    /// Seconds spent constructing and warming up.
    virtual double setup() = 0;
    /// Runs for at least `seconds` (whole units of work), recording spans
    /// into `tracer` when it is on.
    virtual WindowResult run(double seconds, Tracer& tracer) = 0;
    [[nodiscard]] virtual Fingerprint fingerprint() const = 0;
};

/// Every workload ledger_bench runs.  BENCHMARK.json gates all but
/// serve_small (see README.md).
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generates the inputs of workload `name` from `seed`; null when unknown.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

[[nodiscard]] std::unique_ptr<Workload> make_paper_uniform(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_serve_small(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed);

/// Shape of one distinct serve_mixed request body.  The bodies of one
/// (kind, n, distribution) combination form one request class of the
/// per-class latency percentiles.
struct MixedShape {
    gas::serve::JobKind kind = gas::serve::JobKind::Uniform;
    std::size_t n = 0;  ///< row length (ragged rows: n/2 .. n)
    workload::Distribution dist = workload::Distribution::Uniform;
    std::size_t cls = 0;
};

/// Distinct bodies per serve_mixed class.  The modeled cost of a body
/// depends on its values, so this many are averaged to keep the seed from
/// moving modeled_ns_per_elem by more than a few percent.
constexpr std::size_t kMixedBodiesPerClass = 32;

/// Every distinct serve_mixed body in generation order: kMixedBodiesPerClass
/// of each of the 3 kinds x 4 sizes x 4 distributions, classes 0..47.
[[nodiscard]] std::vector<MixedShape> serve_mixed_shapes();

/// Derives an input seed from the run seed and a stream index (splitmix64).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace ledger
