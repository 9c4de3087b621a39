#include "workload.hpp"

namespace ledger {

MetricList EndToEnd::to_metrics() const {
    return {
        {"setup_s", setup_s, "s"},
        {"melem_per_s", melem_per_s, "Melem/s"},
        {"modeled_ns_per_elem", modeled_ns_per_elem, "ns/elem"},
        {"device_mem_overhead", device_mem_overhead, "fraction"},
        {"latency_p50_ms", latency_p50_ms, "ms"},
        {"slo_attainment", slo_attainment, "fraction"},
        {"cpu_ns_per_elem", cpu_ns_per_elem, "ns/elem"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"ok_rate", ok_rate, "fraction"},
    };
}

MetricList LayerMetrics::to_metrics() const {
    return {
        {"latency_p99_ms", latency_p99_ms, "ms"},
        {"core.phase1_wall_ms", phase1_wall_ms, "ms/op"},
        {"core.phase2_wall_ms", phase2_wall_ms, "ms/op"},
        {"core.phase3_wall_ms", phase3_wall_ms, "ms/op"},
        {"core.phase1_modeled_ms", phase1_modeled_ms, "ms/op"},
        {"core.phase2_modeled_ms", phase2_modeled_ms, "ms/op"},
        {"core.phase3_modeled_ms", phase3_modeled_ms, "ms/op"},
        {"core.fused_modeled_ms", fused_modeled_ms, "ms/op"},
        {"core.transfer_modeled_ms", transfer_modeled_ms, "ms/op"},
        {"simt.host_ns_per_op", host_ns_per_op, "ns"},
        {"simt.ops", ops, "computed/elem"},
        {"simt.coalesced_bytes", coalesced_bytes, "computed-B/elem"},
        {"simt.random_accesses", random_accesses, "computed/elem"},
        {"simt.shared_accesses", shared_accesses, "computed/elem"},
        {"simt.launches", launches, "1/op"},
        {"simt.graph_nodes", graph_nodes, "1/op"},
        {"simt.phase3_imbalance", phase3_imbalance, "ratio"},
        {"tune.sketch_modeled_ms", sketch_modeled_ms, "ms/op"},
        {"tune.sketch_host_us", sketch_host_us, "us"},
        {"tune.decisions", tune_decisions, "count"},
        {"tune.plan_switches", plan_switches, "count"},
        {"tune.tuned_batches", tuned_batches, "count"},
        {"serve.submit_us_p50", submit_us_p50, "us"},
        {"serve.submit_us_p99", submit_us_p99, "us"},
        {"serve.queue_wait_ms_p50", queue_wait_ms_p50, "ms"},
        {"serve.queue_wait_ms_p99", queue_wait_ms_p99, "ms"},
        {"serve.service_ms_p50", service_ms_p50, "ms"},
        {"serve.observe_lag_ms", observe_lag_ms, "ms"},
        {"serve.batch_occupancy", batch_occupancy, "req/batch"},
        {"serve.batches", batches, "count"},
        {"serve.pool_reuse_rate", pool_reuse_rate, "fraction"},
        {"serve.graph_cache_hit_rate", graph_cache_hit_rate, "fraction"},
        {"serve.compute_utilization", compute_utilization, "fraction"},
        {"serve.overlap_speedup", overlap_speedup, "ratio"},
        {"serve.cpu_fallbacks", cpu_fallbacks, "count"},
        {"fleet.routed_max_share", routed_max_share, "fraction"},
        {"fleet.steals", steals, "count"},
        {"fleet.util_spread", util_spread, "fraction"},
        {"gen.late_ms_p99", late_ms_p99, "ms"},
        {"gen.late_ms_max", late_ms_max, "ms"},
        {"self.call_ms", self_call_ms, "ms/op"},
        {"self.kernel_ms", self_kernel_ms, "ms/op"},
        {"self.request_ms", self_request_ms, "ms/op"},
        {"self.submit_ms", self_submit_ms, "ms/op"},
        {"self.queue_ms", self_queue_ms, "ms/op"},
        {"self.service_ms", self_service_ms, "ms/op"},
        {"trace.overhead_pct", trace_overhead_pct, "%"},
    };
}

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"paper_uniform", "serve_small", "serve_mixed"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
    if (name == "paper_uniform") return make_paper_uniform(seed);
    if (name == "serve_small") return make_serve_small(seed);
    if (name == "serve_mixed") return make_serve_mixed(seed);
    return nullptr;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

}  // namespace ledger
