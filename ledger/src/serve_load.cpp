// serve_small and serve_mixed: open-loop traffic into an asynchronous
// gas::serve::Server.  One generator thread submits on a fixed schedule;
// one observer thread timestamps and checks each response as it resolves.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <random>
#include <thread>

#include "fleet/fleet.hpp"
#include "kernels.hpp"
#include "oracle.hpp"
#include "serve/server.hpp"
#include "tune/sketch.hpp"
#include "workload.hpp"
#include "workload/generators.hpp"

namespace ledger {
namespace {

using gas::serve::JobKind;

struct Spec {
    const char* name;
    double rate_hz;              ///< open-loop send rate
    std::size_t devices;
    unsigned workers_per_device;
    double slo_ms;               ///< latency limit for slo_attainment
};

/// One distinct request body with its host reference.
struct Input {
    std::size_t cls = 0;  ///< request class (distinct shape) for per-class percentiles
    JobKind kind = JobKind::Uniform;
    std::size_t num_arrays = 0;
    std::size_t array_size = 0;              ///< Uniform / Pairs row length
    std::vector<float> values;               ///< rows, CSR values or pair keys
    std::vector<float> payload;              ///< Pairs: index_payload()
    std::vector<std::uint64_t> offsets;      ///< Ragged CSR offsets
    std::vector<float> expected;             ///< sorted rows / sorted keys

    /// Bytes the request stages on the device (keys plus any payload).
    [[nodiscard]] double bytes() const {
        return static_cast<double>((values.size() + payload.size()) * sizeof(float));
    }

    [[nodiscard]] gas::serve::Job job() const {
        gas::serve::Job j;
        j.kind = kind;
        j.values = values;
        j.payload = payload;
        j.offsets = offsets;
        j.num_arrays = num_arrays;
        j.array_size = array_size;
        return j;
    }

    [[nodiscard]] bool check(const gas::serve::Response& r) const {
        if (!r.ok()) return false;
        if (kind == JobKind::Pairs) {
            return pairs_match(values, expected, r.values, r.payload, array_size);
        }
        return same_bytes(r.values, expected);
    }
};

Input make_rows(JobKind kind, std::size_t arrays, std::size_t n, workload::Distribution dist,
                std::uint64_t seed) {
    Input in;
    in.kind = kind;
    in.num_arrays = arrays;
    if (kind == JobKind::Ragged) {
        auto rd = workload::make_ragged_dataset(arrays, n / 2, n, dist, seed);
        in.offsets.assign(rd.offsets.begin(), rd.offsets.end());
        in.values = std::move(rd.values);
        in.expected = sorted_ragged(in.values, in.offsets);
        return in;
    }
    in.array_size = n;
    in.values = workload::make_dataset(arrays, n, dist, seed).values;
    in.expected = sorted_rows(in.values, n);
    if (kind == JobKind::Pairs) in.payload = index_payload(in.values.size());
    return in;
}

/// Per-request timestamps.  The generator fills the send fields before
/// handing the request to the observer, which fills the rest.
struct Record {
    std::size_t input = 0;
    double due_us = 0.0;
    double late_ms = 0.0;
    double submit_start_us = 0.0;
    double submit_end_us = 0.0;
    double observed_us = 0.0;
    double queue_ms = 0.0;
    double service_ms = 0.0;
    std::uint64_t batch = 0;
    bool ok = false;
};

/// Failed requests count as beyond any latency limit.
constexpr double kFailedLatencyMs = 1e6;

class ServeLoad final : public Workload {
  public:
    ServeLoad(Spec spec, std::uint64_t seed, std::vector<Input> inputs,
              std::vector<std::size_t> order, std::vector<std::size_t> warm)
        : spec_(spec), seed_(seed), inputs_(std::move(inputs)), order_(std::move(order)),
          warm_(std::move(warm)) {}

    double setup() override {
        teardown();
        const auto t0 = Clock::now();
        fleet_ = std::make_unique<gas::fleet::DeviceFleet>(
            spec_.devices, simt::tesla_k40c(), simt::DeviceMemory::Mode::Backed,
            spec_.workers_per_device);
        fleet_->set_exec_mode(simt::ExecMode::Warp);
        server_ = std::make_unique<gas::serve::Server>(*fleet_, gas::serve::ServerConfig{});
        // One request at a time, so that the warm-up does the same work on
        // every run: no batching.  Two passes let every device of a fleet
        // meet most shapes whichever device the router or a thief picks.
        for (int pass = 0; pass < 2; ++pass) {
            for (const std::size_t i : warm_) {
                if (!inputs_[i].check(server_->submit(inputs_[i].job()).result.get())) {
                    ++setup_failures_;
                }
            }
        }
        const double secs = ms_between(t0, Clock::now()) / 1e3;

        // Every warm-up response has resolved, so the schedulers are idle and
        // their device writes happened before these reads.
        base_ = server_->stats();
        base_launches_.clear();
        base_nodes_ = 0;
        double device_peak = 0.0, largest = 0.0;
        for (std::size_t d = 0; d < fleet_->size(); ++d) {
            const simt::Device& dev = fleet_->device(d);
            base_launches_.push_back(dev.kernel_log().size());
            base_nodes_ += dev.graph_telemetry().nodes;
            device_peak =
                std::max(device_peak, static_cast<double>(dev.memory().peak_bytes_in_use()));
        }
        for (const std::size_t i : warm_) largest = std::max(largest, inputs_[i].bytes());
        warm_overhead_ = device_peak / largest - 1.0;
        return secs;
    }

    WindowResult run(double seconds, Tracer& tracer) override {
        const auto count = static_cast<std::size_t>(
            std::max(1.0, std::round(seconds * spec_.rate_hz)));
        std::vector<Record> rec(count);
        const auto period = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / spec_.rate_hz));
        if (tracer.on()) tracer.reserve(count * 4);

        struct Handoff {
            std::size_t k;
            std::uint64_t id;
            std::future<gas::serve::Response> result;
        };
        std::mutex m;
        std::condition_variable cv;
        std::deque<Handoff> handoff;  // guarded by m
        bool sending_done = false;    // guarded by m

        const auto origin = Clock::now();
        const auto us_at = [&](Clock::time_point t) { return ms_between(origin, t) * 1e3; };
        const auto first_due = origin + std::chrono::milliseconds(1);

        std::thread observer([&] {
            minimize_timer_slack();
            std::vector<Handoff> outstanding;
            const auto finish = [&](Handoff& h) {
                const auto t = Clock::now();
                const gas::serve::Response r = h.result.get();
                Record& x = rec[h.k];
                x.observed_us = us_at(t);
                x.queue_ms = r.queue_ms;
                x.service_ms = r.service_ms;
                x.batch = r.batch_id;
                x.ok = inputs_[x.input].check(r);
                if (tracer.on()) trace_request(tracer, h.id, x);
            };
            for (;;) {
                {
                    std::unique_lock lk(m);
                    if (outstanding.empty()) {
                        cv.wait(lk, [&] { return !handoff.empty() || sending_done; });
                    }
                    for (auto& h : handoff) outstanding.push_back(std::move(h));
                    handoff.clear();
                    if (outstanding.empty() && sending_done) return;
                }
                if (outstanding.empty()) continue;
                // Block briefly on the oldest, then sweep them all: a response
                // that overtakes an older one is seen within the timeout.
                outstanding.front().result.wait_for(std::chrono::microseconds(100));
                std::size_t kept = 0;
                for (std::size_t i = 0; i < outstanding.size(); ++i) {
                    Handoff& h = outstanding[i];
                    if (h.result.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
                        finish(h);
                    } else {
                        if (kept != i) outstanding[kept] = std::move(h);
                        ++kept;
                    }
                }
                outstanding.resize(kept);
            }
        });

        const auto stop_observer = [&] {
            {
                std::lock_guard lk(m);
                sending_done = true;
            }
            cv.notify_one();
            observer.join();
        };
        // Process CPU per element is sampled once per second of traffic; its
        // median over those windows is the metric, so that a burst of host
        // contention (which inflates spinning and cache misses) moves one
        // window rather than the run.
        const auto per_window = static_cast<std::size_t>(std::max(1.0, std::round(spec_.rate_hz)));
        std::vector<double> cpu_at{process_cpu_seconds()};
        std::vector<double> sent_at{0.0};
        double sent = 0.0;
        minimize_timer_slack();
        try {
            for (std::size_t k = 0; k < count; ++k) {
                Record& x = rec[k];
                x.input = order_[k % order_.size()];
                gas::serve::Job job = inputs_[x.input].job();
                const auto due = first_due + period * static_cast<long>(k);
                std::this_thread::sleep_until(due);
                const auto s0 = Clock::now();
                auto ticket = server_->submit(std::move(job));
                const auto s1 = Clock::now();
                x.due_us = us_at(due);
                x.late_ms = ms_between(due, s0);
                x.submit_start_us = us_at(s0);
                x.submit_end_us = us_at(s1);
                {
                    std::lock_guard lk(m);
                    handoff.push_back(Handoff{k, ticket.id, std::move(ticket.result)});
                }
                cv.notify_one();
                sent += static_cast<double>(inputs_[x.input].values.size());
                if ((k + 1) % per_window == 0 && k + 1 < count) {
                    cpu_at.push_back(process_cpu_seconds());
                    sent_at.push_back(sent);
                }
            }
        } catch (...) {
            stop_observer();
            throw;
        }
        stop_observer();
        cpu_at.push_back(process_cpu_seconds());
        sent_at.push_back(sent);
        std::vector<double> cpu_ns_per_elem;
        for (std::size_t w = 0; w + 1 < cpu_at.size(); ++w) {
            cpu_ns_per_elem.push_back((cpu_at[w + 1] - cpu_at[w]) * 1e9 /
                                      (sent_at[w + 1] - sent_at[w]));
        }
        const gas::serve::ServerStats end = server_->stats();
        server_->stop();  // joins the schedulers: the device logs are ours to read
        WindowResult w = summarize(rec, end, tracer.on());
        w.e2e.cpu_ns_per_elem = nearest_rank(cpu_ns_per_elem, 50);
        w.extra.push_back({"cpu_ns_per_elem_whole_run",
                           (cpu_at.back() - cpu_at.front()) * 1e9 / sent, "ns/elem"});
        return w;
    }

    [[nodiscard]] Fingerprint fingerprint() const override {
        Fingerprint f = build_fingerprint();
        f.exec_mode = simt::to_string(simt::ExecMode::Warp);
        f.host_workers_per_device = spec_.workers_per_device;
        f.devices = static_cast<unsigned>(spec_.devices);
        f.seed = seed_;
        f.workload = spec_.name;
        return f;
    }

  private:
    void teardown() {
        server_.reset();  // the server borrows the fleet's devices
        fleet_.reset();
    }

    /// Records the request's spans as measured.  The server's queue clock
    /// starts inside submit(), so the queue span (drawn from submit entry)
    /// overlaps the submit span; queue and service must still end by the
    /// time the observer saw the response, or the trace reports a violation.
    static void trace_request(Tracer& tracer, std::uint64_t id, const Record& x) {
        const std::size_t req = tracer.add("request", x.due_us, x.observed_us, id);
        tracer.add("submit", x.submit_start_us, x.submit_end_us, id, req);
        const double q_end = x.submit_start_us + x.queue_ms * 1e3;
        tracer.add("queue", x.submit_start_us, q_end, id, req, x.batch);
        tracer.add("service", q_end, q_end + x.service_ms * 1e3, id, req, x.batch);
    }

    WindowResult summarize(const std::vector<Record>& rec, const gas::serve::ServerStats& s,
                           bool traced) {
        WindowResult w;
        w.attempted = rec.size() + setup_failures_;
        w.failed = std::exchange(setup_failures_, 0);
        w.ops = rec.size();
        const auto reqs = static_cast<double>(rec.size());

        double elements = 0.0, ok_elements = 0.0, last_us = 0.0;
        std::uint64_t within_slo = 0;
        std::vector<double> latency, late, submit_us, queue, service, lag;
        std::vector<std::vector<double>> latency_by_class;
        for (const Record& x : rec) {
            const auto n = static_cast<double>(inputs_[x.input].values.size());
            elements += n;
            const double lat = (x.observed_us - x.due_us) / 1e3;
            last_us = std::max(last_us, x.observed_us);
            if (x.ok) {
                ok_elements += n;
                if (lat <= spec_.slo_ms) ++within_slo;
            } else {
                ++w.failed;
            }
            latency.push_back(x.ok ? lat : kFailedLatencyMs);
            const std::size_t cls = inputs_[x.input].cls;
            if (latency_by_class.size() <= cls) latency_by_class.resize(cls + 1);
            latency_by_class[cls].push_back(latency.back());
            late.push_back(x.late_ms);
            submit_us.push_back(x.submit_end_us - x.submit_start_us);
            queue.push_back(x.queue_ms);
            service.push_back(x.service_ms);
            // Response::queue_ms already covers the submit() call.
            lag.push_back(lat - x.late_ms - x.queue_ms - x.service_ms);
        }
        const double window_s = (last_us - rec.front().due_us) / 1e6;

        // Per-device deltas since the warm-up.
        const std::size_t devices = s.devices.size();
        double overlap_ms = 0.0;      // summed over devices: device time
        double overlap_max_ms = 0.0;  // the fleet's pipeline makespan
        double routed_max = 0.0, routed_sum = 0.0;
        double util_min = 1.0, util_max = 0.0;
        for (std::size_t d = 0; d < devices; ++d) {
            const auto& now = s.devices[d];
            const auto& was = base_.devices[d];
            overlap_ms += now.modeled_overlap_ms - was.modeled_overlap_ms;
            overlap_max_ms = std::max(overlap_max_ms, now.modeled_overlap_ms - was.modeled_overlap_ms);
            const auto routed = static_cast<double>(now.routed - was.routed);
            routed_max = std::max(routed_max, routed);
            routed_sum += routed;
            util_min = std::min(util_min, now.compute_utilization);
            util_max = std::max(util_max, now.compute_utilization);
        }
        KernelTotals kernels;
        std::uint64_t nodes = 0;
        for (std::size_t d = 0; d < fleet_->size(); ++d) {
            const simt::Device& dev = fleet_->device(d);
            nodes += dev.graph_telemetry().nodes;
            const auto& log = dev.kernel_log();
            for (std::size_t i = base_launches_[d]; i < log.size(); ++i) kernels.add(log[i]);
        }
        const auto delta = [](std::uint64_t a, std::uint64_t b) {
            return static_cast<double>(a - b);
        };

        EndToEnd& e = w.e2e;
        e.melem_per_s = ok_elements / window_s / 1e6;
        e.modeled_ns_per_elem = overlap_ms * 1e6 / elements;
        e.device_mem_overhead = warm_overhead_;
        e.latency_p50_ms = class_geomean_percentile(latency_by_class, 50);
        e.latency_p99_ms = windowed_percentile(latency, 99);
        e.slo_attainment = static_cast<double>(within_slo) / reqs;
        e.peak_rss_mb = peak_rss_mb();
        e.ok_rate = 1.0 - static_cast<double>(w.failed) / static_cast<double>(w.attempted);

        LayerMetrics& l = w.layers;
        kernels.fill(l, reqs, elements);
        l.transfer_modeled_ms =
            (s.modeled_h2d_ms + s.modeled_d2h_ms - base_.modeled_h2d_ms - base_.modeled_d2h_ms) /
            reqs;
        l.graph_nodes = static_cast<double>(nodes - base_nodes_) / reqs;
        l.sketch_modeled_ms = (s.tune_sketch_ms - base_.tune_sketch_ms) / reqs;
        if (traced) l.sketch_host_us = sketch_host_us();
        l.tune_decisions = delta(s.tune_decisions, base_.tune_decisions);
        l.plan_switches = delta(s.tune_plan_switches, base_.tune_plan_switches);
        l.tuned_batches = delta(s.tuned_batches, base_.tuned_batches);
        l.submit_us_p50 = nearest_rank(submit_us, 50);
        l.submit_us_p99 = nearest_rank(submit_us, 99);
        l.queue_wait_ms_p50 = nearest_rank(queue, 50);
        l.queue_wait_ms_p99 = nearest_rank(queue, 99);
        l.service_ms_p50 = nearest_rank(service, 50);
        l.observe_lag_ms = nearest_rank(lag, 50);
        const double batches = delta(s.batches, base_.batches);
        l.batches = batches;
        l.batch_occupancy =
            batches > 0 ? delta(s.batched_requests, base_.batched_requests) / batches : 0.0;
        const double acquires = delta(s.pool.acquires, base_.pool.acquires);
        l.pool_reuse_rate =
            acquires > 0 ? delta(s.pool.reuse_hits, base_.pool.reuse_hits) / acquires : 0.0;
        const double graphs = delta(s.graph_cache_hits + s.graph_cache_misses,
                                    base_.graph_cache_hits + base_.graph_cache_misses);
        l.graph_cache_hit_rate =
            graphs > 0 ? delta(s.graph_cache_hits, base_.graph_cache_hits) / graphs : 0.0;
        l.compute_utilization =
            overlap_max_ms > 0 ? (s.compute_busy_ms - base_.compute_busy_ms) /
                                     (overlap_max_ms * static_cast<double>(devices))
                               : 0.0;
        l.overlap_speedup =
            overlap_max_ms > 0 ? (s.modeled_serial_ms - base_.modeled_serial_ms) / overlap_max_ms
                               : 0.0;
        l.cpu_fallbacks = delta(s.cpu_fallbacks, base_.cpu_fallbacks);
        l.routed_max_share = routed_sum > 0 ? routed_max / routed_sum : 0.0;
        l.steals = delta(s.steals, base_.steals);
        l.util_spread = util_max - util_min;
        l.late_ms_p99 = nearest_rank(late, 99);
        l.late_ms_max = nearest_rank(late, 100);

        w.extra = {
            {"requests", reqs, "count"},
            {"error_rate", static_cast<double>(w.failed) / static_cast<double>(w.attempted),
             "fraction"},
            {"latency_p50_all_requests_ms", nearest_rank(latency, 50), "ms"},
            {"latency_p99_whole_run_ms", nearest_rank(latency, 99), "ms"},
            {"modeled_makespan_ns_per_elem", overlap_max_ms * 1e6 / elements, "ns/elem"},
            {"gen.late_ms_p99", l.late_ms_p99, "ms"},
            {"gen.late_ms_max", l.late_ms_max, "ms"},
            {"serve.batch_occupancy", l.batch_occupancy, "req/batch"},
        };
        return w;
    }

    /// Median host time of one tune::sketch_* call over the distinct request
    /// bodies the server sketches (pair requests are never sketched).
    [[nodiscard]] double sketch_host_us() const {
        std::vector<double> us;
        for (const Input& in : inputs_) {
            if (in.kind == JobKind::Pairs) continue;
            const auto t0 = Clock::now();
            const gas::tune::Sketch sk =
                in.kind == JobKind::Ragged
                    ? gas::tune::sketch_ragged(in.values, in.offsets)
                    : gas::tune::sketch_values(in.values, in.num_arrays, in.array_size);
            const auto t1 = Clock::now();
            if (sk.elements != in.values.size()) continue;  // keeps the call observable
            us.push_back(ms_between(t0, t1) * 1e3);
        }
        return nearest_rank(us, 50);
    }

    Spec spec_;
    std::uint64_t seed_;
    std::vector<Input> inputs_;
    std::vector<std::size_t> order_;  ///< input index of request k is order_[k % size]
    std::vector<std::size_t> warm_;   ///< inputs submitted by the warm-up
    std::uint64_t setup_failures_ = 0;
    gas::serve::ServerStats base_;    ///< stats right after the warm-up
    std::vector<std::size_t> base_launches_;
    std::uint64_t base_nodes_ = 0;
    /// Peak device bytes of the fullest device after the warm-up, per byte
    /// of the largest warm-up request, minus one: pool retention plus sort
    /// temporaries beyond the data.
    double warm_overhead_ = 0.0;
    std::unique_ptr<gas::fleet::DeviceFleet> fleet_;
    std::unique_ptr<gas::serve::Server> server_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_small(std::uint64_t seed) {
    // 256 distinct 4 x 256 uniform requests (one class), sent in a fixed cycle.
    constexpr std::size_t kDistinct = 256;
    std::vector<Input> inputs;
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < kDistinct; ++i) {
        inputs.push_back(
            make_rows(JobKind::Uniform, 4, 256, workload::Distribution::Uniform, mix_seed(seed, i)));
        order.push_back(i);
    }
    std::vector<std::size_t> warm(32);
    for (std::size_t i = 0; i < warm.size(); ++i) warm[i] = i;
    return std::make_unique<ServeLoad>(Spec{"serve_small", 1000.0, 1, 2, 10.0}, seed,
                                       std::move(inputs), std::move(order), std::move(warm));
}

std::vector<MixedShape> serve_mixed_shapes() {
    const JobKind kinds[] = {JobKind::Uniform, JobKind::Ragged, JobKind::Pairs};
    const std::size_t sizes[] = {64, 256, 1000, 4000};
    const workload::Distribution dists[] = {
        workload::Distribution::Uniform, workload::Distribution::ZipfHot,
        workload::Distribution::NearlySorted, workload::Distribution::FewDistinct};
    std::vector<MixedShape> shapes;
    for (std::size_t v = 0; v < kMixedBodiesPerClass; ++v) {
        std::size_t cls = 0;
        for (const JobKind kind : kinds) {
            for (const std::size_t n : sizes) {
                for (const auto dist : dists) shapes.push_back(MixedShape{kind, n, dist, cls++});
            }
        }
    }
    return shapes;
}

std::unique_ptr<Workload> make_serve_mixed(std::uint64_t seed) {
    // Sent in one fixed shuffle of the whole set of bodies that repeats: the
    // seed changes the values, never the sequence of shapes.  The warm-up
    // sends the first body of each class.
    std::vector<Input> inputs;
    std::vector<std::size_t> warm;
    for (const MixedShape& s : serve_mixed_shapes()) {
        if (s.cls == warm.size()) warm.push_back(inputs.size());
        inputs.push_back(make_rows(s.kind, 4, s.n, s.dist, mix_seed(seed, inputs.size())));
        inputs.back().cls = s.cls;
    }
    std::vector<std::size_t> order(inputs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937_64 rng(20160816);  // fixed: the order is part of the workload
    std::shuffle(order.begin(), order.end(), rng);
    return std::make_unique<ServeLoad>(Spec{"serve_mixed", 200.0, 2, 1, 50.0}, seed,
                                       std::move(inputs), std::move(order), std::move(warm));
}

}  // namespace ledger
