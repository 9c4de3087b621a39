// paper_uniform: the paper's experiment.  Back-to-back direct
// gas::gpu_array_sort calls from one thread on one device with one host
// worker per core; N = 500 arrays of uniform floats per call, n cycling
// through the Fig. 4-7 sizes.  Only core and simt do work here.

#include <algorithm>
#include <array>
#include <span>

#include "core/gpu_array_sort.hpp"
#include "kernels.hpp"
#include "oracle.hpp"
#include "simt/device.hpp"
#include "workload.hpp"
#include "workload/generators.hpp"

namespace ledger {
namespace {

constexpr std::size_t kArrays = 500;
constexpr std::array<std::size_t, 4> kSizes{1000, 2000, 3000, 4000};
/// Latency limit of one call for slo_attainment, per element it sorts:
/// about twice the median n = 4000 call on a 4-core x86 host (~8-9 Melem/s),
/// so that the share drops when calls get much slower, not with host noise.
constexpr double kSloNsPerElem = 250.0;

struct Input {
    std::size_t n = 0;
    std::vector<float> values;
    std::vector<float> sorted;
};

class PaperUniform final : public Workload {
  public:
    explicit PaperUniform(std::uint64_t seed) : seed_(seed), workers_(host_cores()) {
        for (std::size_t i = 0; i < kSizes.size(); ++i) {
            auto ds = workload::make_dataset(kArrays, kSizes[i], workload::Distribution::Uniform,
                                             mix_seed(seed, i));
            Input in;
            in.n = kSizes[i];
            in.sorted = sorted_rows(ds.values, in.n);
            in.values = std::move(ds.values);
            inputs_.push_back(std::move(in));
        }
        work_.resize(kArrays * kSizes.back());
    }

    double setup() override {
        device_.reset();
        const Input& warm = inputs_.back();  // largest call: sets the memory peak
        std::copy(warm.values.begin(), warm.values.end(), work_.begin());
        const auto t0 = Clock::now();
        device_ = std::make_unique<simt::Device>(simt::tesla_k40c(),
                                                 simt::DeviceMemory::Mode::Backed, workers_);
        device_->set_exec_mode(simt::ExecMode::Warp);
        (void)gas::gpu_array_sort(*device_, std::span<float>(work_.data(), warm.values.size()),
                                  kArrays, warm.n);
        const double secs = ms_between(t0, Clock::now()) / 1e3;
        device_->clear_kernel_log();
        if (!same_bytes(std::span<const float>(work_.data(), warm.values.size()), warm.sorted)) {
            ++setup_failures_;
        }
        return secs;
    }

    WindowResult run(double seconds, Tracer& tracer) override {
        WindowResult w;
        w.attempted = w.failed = std::exchange(setup_failures_, 0);
        std::array<std::vector<double>, kSizes.size()> latency_ms;
        std::array<double, kSizes.size()> first_modeled{};
        std::array<bool, kSizes.size()> seen{};
        double overhead_largest = 0.0;
        double call_wall_ms = 0.0;
        double elements = 0.0;
        double first_cycle_elements = 0.0;
        double transfer_modeled_ms = 0.0;
        std::uint64_t within_slo = 0;
        double slowest_ns_per_elem = 0.0;
        std::uint64_t nondeterministic = 0;
        KernelTotals kernels;
        std::uint64_t graph_nodes = 0;
        if (tracer.on()) tracer.reserve(256 * 9);

        const auto origin = Clock::now();
        const auto us_at = [&](Clock::time_point t) { return ms_between(origin, t) * 1e3; };
        // Process CPU per element is taken per pass over the call list; the
        // median pass is the metric (see serve_load.cpp).
        std::vector<double> cpu_ns_per_elem;
        const double cpu0 = process_cpu_seconds();
        double cpu_pass = cpu0;
        do {
            double pass_elements = 0.0;
            for (std::size_t i = 0; i < inputs_.size(); ++i) {
                const Input& in = inputs_[i];
                const std::span<float> data(work_.data(), in.values.size());
                std::copy(in.values.begin(), in.values.end(), data.begin());
                const std::uint64_t nodes0 = device_->graph_telemetry().nodes;

                const auto c0 = Clock::now();
                const gas::SortStats st = gas::gpu_array_sort(*device_, data, kArrays, in.n);
                const auto c1 = Clock::now();

                const double ms = ms_between(c0, c1);
                bool ok = same_bytes(data, in.sorted);
                const double modeled = st.modeled_total_ms();
                if (!seen[i]) {
                    seen[i] = true;
                    first_modeled[i] = modeled;
                    first_cycle_elements += static_cast<double>(data.size());
                    if (i + 1 == inputs_.size()) overhead_largest = st.overhead_fraction();
                } else if (modeled != first_modeled[i]) {
                    ok = false;  // the modeled clock must be a pure function of the input
                    ++nondeterministic;
                }
                ++w.attempted;
                if (!ok) ++w.failed;
                const double ns_per_elem = ms * 1e6 / static_cast<double>(data.size());
                if (ok && ns_per_elem <= kSloNsPerElem) ++within_slo;
                slowest_ns_per_elem = std::max(slowest_ns_per_elem, ns_per_elem);
                latency_ms[i].push_back(ms);
                call_wall_ms += ms;
                elements += static_cast<double>(data.size());
                pass_elements += static_cast<double>(data.size());

                if (tracer.on()) {
                    transfer_modeled_ms += st.h2d_ms + st.d2h_ms;
                    graph_nodes += device_->graph_telemetry().nodes - nodes0;
                    trace_call(tracer, w.attempted, us_at(c0), us_at(c1), kernels);
                }
                device_->clear_kernel_log();
            }
            const double cpu_now = process_cpu_seconds();
            cpu_ns_per_elem.push_back((cpu_now - cpu_pass) * 1e9 / pass_elements);
            cpu_pass = cpu_now;
        } while (ms_between(origin, Clock::now()) < seconds * 1e3);
        const double cpu_s = cpu_pass - cpu0;
        const auto calls = static_cast<double>(w.attempted);
        w.ops = w.attempted;

        double first_modeled_ms = 0.0;
        for (const double m : first_modeled) first_modeled_ms += m;
        // Throughput of the median call at each size, so that a call stalled
        // by the host does not move it.
        double median_call_s = 0.0, call_list_elements = 0.0;
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            median_call_s += nearest_rank(latency_ms[i], 50) / 1e3;
            call_list_elements += static_cast<double>(inputs_[i].values.size());
        }
        const std::vector<std::vector<double>> by_size(latency_ms.begin(), latency_ms.end());

        EndToEnd& e = w.e2e;
        e.melem_per_s = call_list_elements / median_call_s / 1e6;
        e.modeled_ns_per_elem = first_modeled_ms * 1e6 / first_cycle_elements;
        e.device_mem_overhead = overhead_largest;
        e.latency_p50_ms = class_geomean_percentile(by_size, 50);
        e.latency_p99_ms = class_geomean_percentile(by_size, 99);
        e.slo_attainment = static_cast<double>(within_slo) / calls;
        e.cpu_ns_per_elem = nearest_rank(cpu_ns_per_elem, 50);
        e.peak_rss_mb = peak_rss_mb();
        e.ok_rate = 1.0 - static_cast<double>(w.failed) / calls;

        LayerMetrics& l = w.layers;
        kernels.fill(l, calls, elements);
        l.transfer_modeled_ms = transfer_modeled_ms / calls;
        l.graph_nodes = static_cast<double>(graph_nodes) / calls;

        w.extra = {
            {"calls", calls, "count"},
            {"error_rate", static_cast<double>(w.failed) / calls, "fraction"},
            {"nondeterministic_calls", static_cast<double>(nondeterministic), "count"},
            {"melem_per_s_whole_run", elements / (call_wall_ms / 1e3) / 1e6, "Melem/s"},
            {"cpu_ns_per_elem_whole_run", cpu_s * 1e9 / elements, "ns/elem"},
            {"modeled_ms_per_call_list", first_modeled_ms, "ms"},
            {"slowest_call_ns_per_elem", slowest_ns_per_elem, "ns/elem"},
        };
        return w;
    }

    [[nodiscard]] Fingerprint fingerprint() const override {
        Fingerprint f = build_fingerprint();
        f.exec_mode = simt::to_string(simt::ExecMode::Warp);
        f.host_workers_per_device = workers_;
        f.devices = 1;
        f.seed = seed_;
        f.workload = "paper_uniform";
        return f;
    }

  private:
    /// Adds this call's kernels to `kernels` and records call -> phase ->
    /// kernel spans: one phase span per run of consecutive kernels of one
    /// stage.  Kernel start times are not logged, so the kernels are laid
    /// back to back from their logged wall times, centred in the call; the
    /// phase spans therefore have no self time of their own.
    void trace_call(Tracer& tracer, std::uint64_t id, double c0_us, double c1_us,
                    KernelTotals& kernels) {
        const auto& log = device_->kernel_log();
        double kernel_us = 0.0;
        for (const auto& k : log) kernel_us += k.wall_ms * 1e3;
        const std::size_t call = tracer.add("call", c0_us, c1_us, id);
        double t = c0_us + std::max(0.0, (c1_us - c0_us) - kernel_us) / 2.0;
        for (std::size_t i = 0; i < log.size();) {
            const Stage s = kernel_stage(log[i].name);
            std::size_t j = i;
            double run_us = 0.0;
            for (; j < log.size() && kernel_stage(log[j].name) == s; ++j) {
                run_us += log[j].wall_ms * 1e3;
            }
            const std::size_t parent =
                s == Stage::Other ? call : tracer.add(stage_name(s), t, t + run_us, id, call);
            for (; i < j; ++i) {
                kernels.add(log[i]);
                const double end = t + log[i].wall_ms * 1e3;
                tracer.add("kernel", t, end, id, parent);
                t = end;
            }
        }
    }

    std::uint64_t seed_;
    unsigned workers_;
    std::vector<Input> inputs_;
    std::vector<float> work_;
    std::unique_ptr<simt::Device> device_;
    std::uint64_t setup_failures_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_uniform(std::uint64_t seed) {
    return std::make_unique<PaperUniform>(seed);
}

}  // namespace ledger
