// Ablation A4 (beyond the paper): sensitivity of sample-sort bucketing to
// the input distribution, and the effect of the hybrid skew-aware phase-3
// sorter (DESIGN.md section 8).  The paper's evaluation is uniform-only;
// skewed and duplicate-heavy inputs unbalance buckets and stretch phase 3.
//
// Each distribution runs twice — Options::hybrid_phase3 off (the paper's
// one-lane-per-bucket insertion sort) and on — and the run emits a
// machine-readable BENCH_phase3_skew.json with two asserted acceptance
// gates: the zipf-hot adversary's modeled phase-3 makespan must improve by
// at least 3x, and the uniform total must stay within 2% (the hybrid keeps
// balanced inputs on the classic fast path).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/analysis.hpp"
#include "core/gpu_array_sort.hpp"
#include "simt/device.hpp"
#include "workload/generators.hpp"

namespace {

struct Run {
    double total_ms = 0.0;
    double phase3_ms = 0.0;
    double imbalance = 1.0;
    std::uint32_t max_bucket = 0;
};

Run run_once(const workload::Dataset& ds, bool hybrid) {
    auto values = ds.values;  // each run sorts a fresh copy
    simt::Device dev = bench::make_device();
    gas::Options opts;
    opts.validate = true;  // correctness must hold on every distribution
    opts.collect_bucket_sizes = true;
    opts.hybrid_phase3 = hybrid;
    const auto s = gas::gpu_array_sort(dev, std::span<float>(values), ds.num_arrays,
                                       ds.array_size, opts);
    return {s.modeled_kernel_ms(), s.phase3.modeled_ms, s.phase3_imbalance, s.max_bucket};
}

}  // namespace

int main(int argc, char** argv) {
    const bench::Args args = bench::parse(argc, argv);
    std::string json_path = "BENCH_phase3_skew.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json" && i + 1 < argc) json_path = argv[i + 1];
    }
    const std::size_t num_arrays = args.full ? 50000 : 1000;
    const std::size_t n = 1000;

    std::printf("Ablation A4: input-distribution sensitivity (n = %zu, N = %zu)\n", n,
                num_arrays);
    std::printf("baseline = hybrid_phase3 off (paper's phase 3); hybrid = skew-aware sorter\n");
    bench::rule('=');
    std::printf("%16s | %10s %10s | %10s %10s | %8s %9s %8s\n", "distribution",
                "base p3", "hyb p3", "base tot", "hyb tot", "max bkt", "imbalance",
                "speedup");
    bench::rule();

    struct Row {
        std::string name;
        Run base;
        Run hyb;
    };
    std::vector<Row> rows;
    for (const auto dist : workload::all_distributions()) {
        const auto ds = workload::make_dataset(num_arrays, n, dist, 4);
        Row r;
        r.name = workload::to_string(dist);
        r.base = run_once(ds, /*hybrid=*/false);
        r.hyb = run_once(ds, /*hybrid=*/true);
        const double speedup = r.hyb.phase3_ms > 0.0 ? r.base.phase3_ms / r.hyb.phase3_ms : 1.0;
        std::printf("%16s | %8.2fms %8.2fms | %8.2fms %8.2fms | %8u %8.2fx %7.2fx\n",
                    r.name.c_str(), r.base.phase3_ms, r.hyb.phase3_ms, r.base.total_ms,
                    r.hyb.total_ms, r.base.max_bucket, r.base.imbalance, speedup);
        std::fflush(stdout);
        rows.push_back(std::move(r));
    }
    bench::rule();

    // Acceptance gates (asserted, and recorded in the JSON).
    double zipf_speedup = 0.0;
    double uniform_drift = 1.0;
    double zipf_imb_base = 0.0;
    double zipf_imb_hyb = 0.0;
    for (const Row& r : rows) {
        if (r.name == "zipf-hot" && r.hyb.phase3_ms > 0.0) {
            zipf_speedup = r.base.phase3_ms / r.hyb.phase3_ms;
            zipf_imb_base = r.base.imbalance;
            zipf_imb_hyb = r.hyb.imbalance;
        }
        if (r.name == "uniform" && r.base.total_ms > 0.0) {
            uniform_drift = std::abs(r.hyb.total_ms - r.base.total_ms) / r.base.total_ms;
        }
    }
    const bool zipf_pass = zipf_speedup >= 3.0;
    const bool uniform_pass = uniform_drift <= 0.02;
    std::printf("gate: zipf-hot phase-3 speedup %.2fx (need >= 3x) ........ %s\n",
                zipf_speedup, zipf_pass ? "PASS" : "FAIL");
    std::printf("gate: uniform total drift %.3f%% (need <= 2%%) ............ %s\n",
                uniform_drift * 100.0, uniform_pass ? "PASS" : "FAIL");
    std::printf("zipf-hot phase-3 lane imbalance: %.1fx baseline -> %.1fx hybrid\n",
                zipf_imb_base, zipf_imb_hyb);

    obs::Json j;
    j.begin_object().field("bench", "phase3_skew").field("num_arrays", num_arrays);
    j.field("array_size", n).array("distributions");
    const auto write_run = [&j](const char* name, const Run& run) {
        j.object(name).field("phase3_ms", run.phase3_ms).field("total_ms", run.total_ms);
        j.field("imbalance", run.imbalance).end_object();
    };
    for (const Row& r : rows) {
        j.begin_object().field("name", r.name);
        write_run("baseline", r.base);
        write_run("hybrid", r.hyb);
        j.field("phase3_speedup", r.hyb.phase3_ms > 0.0 ? r.base.phase3_ms / r.hyb.phase3_ms : 1.0);
        j.field("max_bucket", r.base.max_bucket).end_object();
    }
    j.end_array().object("gates").object("zipf_hot_phase3_speedup");
    j.field("value", zipf_speedup).field("min", 3.0).field("pass", zipf_pass).end_object();
    j.object("uniform_total_drift").field("value", uniform_drift).field("max", 0.02);
    j.field("pass", uniform_pass).end_object().end_object().end_object();
    bench::write_json_file(json_path, j);

    const bool inert = bench::verify_sanitize_off_guarantee([](simt::Device& dev) {
        // The skewed distribution exercises the hybrid cooperative path and
        // the degenerate few-distinct input the single-hot-bucket one.
        auto hot = workload::make_dataset(8, 1000, workload::Distribution::ZipfHot, 4);
        gas::gpu_array_sort(dev, hot.values, 8, 1000);
        auto small = workload::make_dataset(16, 500, workload::Distribution::FewDistinct, 4);
        gas::gpu_array_sort(dev, small.values, 16, 500);
    });
    return (inert && zipf_pass && uniform_pass) ? 0 : 1;
}
