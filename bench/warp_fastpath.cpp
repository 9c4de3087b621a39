// warp_fastpath — acceptance gate for the warp-vectorized interpreter fast
// path (SIMT_EXEC=warp / Device::set_exec_mode).
//
// Three sections, each sorting the same dataset under both execution modes:
//
//   quick  — a small fig-4-shaped workload; always runs.  Gates: the warp
//            path must deliver >= 3x the scalar interpreter's throughput
//            measured in the same run, with 0 output byte mismatches and 0
//            KernelStats drift.  Its warp throughput is recorded flat in the
//            JSON; --baseline prints the committed rate beside the fresh one
//            as host-dependent information, not gated.
//   fig4   — the paper's Figure-4 workload at the default bench scale
//            (N = 2500 arrays of n = 1000 floats).  Gates: the warp path
//            must deliver >= 3x the scalar interpreter's wall-clock
//            throughput (elements/second), with 0 output byte mismatches
//            and 0 KernelStats drift across every launched kernel.
//   paper  — a paper-scale run (N = 2e5 arrays, the top of the paper's N
//            axis) on the warp path alone, proving full scale completes
//            inside a bench budget on the functional simulator.
//
//   warp_fastpath [--quick] [--skip-paper-scale] [--json PATH]
//                 [--baseline PATH]
//
// Exit code 0 iff every gate that ran passed.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/gpu_array_sort.hpp"
#include "core/validate.hpp"
#include "simt/device.hpp"
#include "workload/generators.hpp"

namespace {

struct ModeRun {
    std::vector<float> values;            ///< sorted output bytes
    std::vector<simt::KernelStats> log;   ///< full kernel log of the run
    double wall_s = 0.0;                  ///< host wall time of the sort only
};

ModeRun run_mode(const workload::Dataset& ds, simt::ExecMode mode) {
    ModeRun r;
    r.values = ds.values;  // each run sorts a fresh copy of the same bytes
    simt::Device dev = bench::make_device();
    dev.set_exec_mode(mode);
    const auto t0 = std::chrono::steady_clock::now();
    gas::gpu_array_sort(dev, std::span<float>(r.values), ds.num_arrays, ds.array_size);
    r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    r.log.assign(dev.kernel_log().begin(), dev.kernel_log().end());
    return r;
}

/// Number of output elements whose bit patterns differ.
std::size_t byte_mismatches(const std::vector<float>& a, const std::vector<float>& b) {
    if (a.size() != b.size()) return std::max(a.size(), b.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) ++bad;
    }
    return bad;
}

/// Number of kernel-log rows whose deterministic KernelStats fields differ
/// (wall_ms is host time and legitimately differs between modes).
std::size_t stats_drift(const std::vector<simt::KernelStats>& a,
                        const std::vector<simt::KernelStats>& b) {
    if (a.size() != b.size()) return std::max(a.size(), b.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto& s = a[i];
        const auto& w = b[i];
        const bool same =
            s.name == w.name && s.grid_dim == w.grid_dim && s.block_dim == w.block_dim &&
            s.shared_bytes_per_block == w.shared_bytes_per_block &&
            s.totals.ops == w.totals.ops &&
            s.totals.shared_accesses == w.totals.shared_accesses &&
            s.totals.coalesced_bytes == w.totals.coalesced_bytes &&
            s.totals.random_accesses == w.totals.random_accesses &&
            s.traffic_bytes == w.traffic_bytes && s.compute_ms == w.compute_ms &&
            s.memory_ms == w.memory_ms && s.modeled_ms == w.modeled_ms &&
            s.warp_max_cycles == w.warp_max_cycles &&
            s.warp_mean_cycles == w.warp_mean_cycles && s.imbalance == w.imbalance;
        if (!same) ++bad;
    }
    return bad;
}

struct Section {
    std::size_t num_arrays = 0;
    std::size_t array_size = 0;
    double scalar_eps = 0.0;  ///< scalar elements/second
    double warp_eps = 0.0;    ///< warp elements/second
    double speedup = 0.0;
    std::size_t mismatches = 0;
    std::size_t drift = 0;
};

Section run_section(const char* name, std::size_t num_arrays, std::size_t array_size) {
    const auto ds = workload::make_dataset(num_arrays, array_size,
                                           workload::Distribution::Uniform, 4);
    const auto scalar = run_mode(ds, simt::ExecMode::Scalar);
    const auto warp = run_mode(ds, simt::ExecMode::Warp);
    const double elems = static_cast<double>(num_arrays * array_size);
    Section s;
    s.num_arrays = num_arrays;
    s.array_size = array_size;
    s.scalar_eps = elems / scalar.wall_s;
    s.warp_eps = elems / warp.wall_s;
    s.speedup = s.warp_eps / s.scalar_eps;
    s.mismatches = byte_mismatches(scalar.values, warp.values);
    s.drift = stats_drift(scalar.log, warp.log);
    std::printf("%-6s N=%-7zu n=%-5zu | scalar %8.2fs (%7.2f Me/s) | warp %8.2fs "
                "(%7.2f Me/s) | %5.2fx | %zu byte mismatches, %zu stats drift\n",
                name, num_arrays, array_size, elems / s.scalar_eps, s.scalar_eps / 1e6,
                elems / s.warp_eps, s.warp_eps / 1e6, s.speedup, s.mismatches, s.drift);
    std::fflush(stdout);
    return s;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool paper_scale = true;
    std::string json_path;
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--skip-paper-scale") == 0) {
            paper_scale = false;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: warp_fastpath [--quick] [--skip-paper-scale]\n"
                         "                     [--json PATH] [--baseline PATH]\n");
            return 2;
        }
    }
    // The full run owns the committed artifact; --quick (the smoke test)
    // writes nothing unless asked, so it can never clobber the baseline.
    if (json_path.empty() && !quick) json_path = "BENCH_warp_fastpath.json";

    std::printf("warp_fastpath: scalar reference interpreter vs SIMT_EXEC=warp fast path\n");
    bench::rule('=');

    const Section q = run_section("quick", 250, 1000);
    // In-run ratio, not an absolute rate: both modes run on this host in
    // this process, so the gate holds on any machine.
    bool ok = q.speedup >= 3.0 && q.mismatches == 0 && q.drift == 0;
    std::printf("gate: quick warp speedup %.2fx (need >= 3x), %zu mismatches, %zu drift ... "
                "%s\n",
                q.speedup, q.mismatches, q.drift, ok ? "PASS" : "FAIL");

    Section f4;
    double paper_wall_s = 0.0;
    double paper_eps = 0.0;
    bool paper_sorted = false;
    bool fig4_pass = true;
    if (!quick) {
        f4 = run_section("fig4", 2500, 1000);
        fig4_pass = f4.speedup >= 3.0 && f4.mismatches == 0 && f4.drift == 0;
        std::printf("gate: fig4 warp speedup %.2fx (need >= 3x), %zu mismatches, "
                    "%zu drift ... %s\n",
                    f4.speedup, f4.mismatches, f4.drift, fig4_pass ? "PASS" : "FAIL");
        ok = ok && fig4_pass;

        if (paper_scale) {
            // Paper-scale demonstration: the top of the paper's N axis on the
            // warp path.  2e8 elements — scalar would take minutes; the gate
            // is simply "completes, and the output is genuinely sorted".
            const std::size_t N = 200000, n = 1000;
            std::printf("paper  N=%zu n=%zu (%.1f GB sorted in-simulator) ...\n", N, n,
                        static_cast<double>(N * n * sizeof(float)) / 1e9);
            std::fflush(stdout);
            auto ds = workload::make_dataset(N, n, workload::Distribution::Uniform, 4);
            simt::Device dev = bench::make_device();
            dev.set_exec_mode(simt::ExecMode::Warp);
            const auto t0 = std::chrono::steady_clock::now();
            gas::gpu_array_sort(dev, std::span<float>(ds.values), N, n);
            paper_wall_s =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
            paper_eps = static_cast<double>(N * n) / paper_wall_s;
            paper_sorted =
                gas::all_arrays_sorted(std::span<const float>(ds.values), N, n);
            std::printf("paper  N=%zu n=%zu | warp %8.2fs (%7.2f Me/s) | sorted: %s\n", N,
                        n, paper_wall_s, paper_eps / 1e6, paper_sorted ? "yes" : "NO");
            ok = ok && paper_sorted;
        }
    }

    if (!baseline_path.empty()) {
        const auto base = bench::baseline_number(baseline_path, "quick_warp_elems_per_sec");
        if (base) {
            std::printf("info: quick warp throughput %.2f Me/s, committed %.2f Me/s "
                        "(host-dependent, not gated)\n",
                        q.warp_eps / 1e6, *base / 1e6);
        } else {
            std::printf("info: no quick_warp_elems_per_sec in %s\n", baseline_path.c_str());
        }
    }

    if (!json_path.empty()) {
        obs::Json j;
        const auto section = [&j](const char* name, const Section& s) {
            j.object(name).field("num_arrays", s.num_arrays).field("array_size", s.array_size);
            j.field("scalar_elems_per_sec", s.scalar_eps).field("warp_elems_per_sec", s.warp_eps);
            j.field("speedup", s.speedup).field("byte_mismatches", s.mismatches);
            j.field("stats_drift", s.drift).end_object();
        };
        const auto gate = [&j](const char* name, const char* bound_key, auto value,
                               auto bound, bool pass) {
            j.object(name).field("value", value).field(bound_key, bound).field("pass", pass);
            j.end_object();
        };
        j.begin_object().field("bench", "warp_fastpath");
        section("quick", q);
        j.field("quick_warp_elems_per_sec", q.warp_eps);
        if (!quick) {
            section("fig4", f4);
            if (paper_scale) {
                j.object("paper_scale").field("num_arrays", 200000).field("array_size", 1000);
                j.field("wall_s", paper_wall_s).field("elems_per_sec", paper_eps);
                j.field("sorted", paper_sorted).end_object();
            }
            j.object("gates");
            gate("fig4_speedup", "min", f4.speedup, 3.0, f4.speedup >= 3.0);
            gate("fig4_byte_mismatches", "max", f4.mismatches, 0, f4.mismatches == 0);
            gate("fig4_stats_drift", "max", f4.drift, 0, f4.drift == 0);
            j.end_object();
        }
        j.field("pass", ok).end_object();
        ok = bench::write_json_file(json_path, j) && ok;
    }

    return ok ? 0 : 1;
}
