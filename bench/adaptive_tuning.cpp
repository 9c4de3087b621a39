// adaptive_tuning — acceptance gate for the gas::tune closed loop
// (ISSUE 9: sketch -> planner -> controller inside gas::serve).
//
// Drives one request stream whose distribution shifts mid-stream through the
// four planning regimes — uniform -> zipf-hot -> few-distinct ->
// nearly-sorted — and serves it three ways:
//
//   adaptive  — through a gas::serve::Server with auto_tune on: the real
//               production loop (per-request sketches, per-regime controller
//               cells, feedback from observed modeled cost).  The server runs
//               every batch on the fused row kernel (gas.ragged_fused).
//   statics   — the same stream with each frozen candidate configuration
//               pinned for every request: the paper defaults plus the union
//               of candidate plans the planner would consider.  These call
//               gpu_array_sort directly, so they run the three-phase
//               pipeline, not the kernel the adaptive arm runs.
//   off       — one representative request through an auto_tune=off server,
//               checked bit-for-bit (bytes AND KernelStats) against a direct
//               gpu_ragged_sort over the same rows: the "off pins the static
//               defaults" contract for the kernel serve runs.
//
// Cost is the simulator's modeled Tesla-K40c milliseconds summed over every
// launched kernel, so the comparison is deterministic across hosts.  Gates:
//
//   * adaptive total cost >= 1.2x better than the BEST static, and strictly
//     better than EVERY static;
//   * 0 output byte mismatches vs a std::sort reference, on every arm;
//   * auto_tune=off reproduces the direct path bit-for-bit;
//   * total sketch overhead <= 5% of the UNTUNED (paper-default) sort cost.
//
// The statics and the adaptive arm run different kernels, so the advantage
// mixes plan choice with kernel choice, and the sketch share is taken
// against the three-phase pipeline's cost.
//
//   adaptive_tuning [--quick] [--json PATH] [--baseline PATH]
//
// The quick stream always runs and its adaptive advantage is recorded flat
// in the JSON so the bench-smoke ctest can diff a fresh --quick run against
// the committed BENCH_tune.json (>20% regression fails).  The full run owns
// the committed artifact.  Exit code 0 iff every gate that ran passed.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/gpu_array_sort.hpp"
#include "core/ragged_sort.hpp"
#include "core/resilient.hpp"
#include "serve/server.hpp"
#include "simt/device.hpp"
#include "tune/planner.hpp"
#include "workload/generators.hpp"

namespace {

constexpr std::size_t kArrays = 16;
constexpr std::size_t kSize = 4000;

struct Request {
    workload::Distribution dist;
    std::vector<float> values;
    std::vector<float> reference;  ///< per-row std::sort of the same bytes
};

/// The mid-stream-shifting workload: `per_regime` consecutive requests per
/// regime, in the order the issue names.
std::vector<Request> make_stream(std::size_t per_regime) {
    const workload::Distribution regimes[] = {
        workload::Distribution::Uniform, workload::Distribution::ZipfHot,
        workload::Distribution::FewDistinct, workload::Distribution::NearlySorted};
    std::vector<Request> stream;
    std::uint64_t seed = 1;
    for (const auto dist : regimes) {
        for (std::size_t r = 0; r < per_regime; ++r) {
            Request req;
            req.dist = dist;
            req.values = workload::make_dataset(kArrays, kSize, dist, seed++).values;
            req.reference = req.values;
            for (std::size_t a = 0; a < kArrays; ++a) {
                const auto row = req.reference.begin() +
                                 static_cast<std::ptrdiff_t>(a * kSize);
                std::sort(row, row + kSize);
            }
            stream.push_back(std::move(req));
        }
    }
    return stream;
}

/// The paper-classic base configuration the whole comparison is rooted at:
/// with the hybrid phase 3 off, an unresolved hot bucket goes quadratic and
/// plan choice is worth real money.
gas::Options base_options() {
    gas::Options opts;
    opts.hybrid_phase3 = false;
    return opts;
}

std::size_t element_mismatches(const std::vector<float>& got,
                               const std::vector<float>& want) {
    if (got.size() != want.size()) return std::max(got.size(), want.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) ++bad;
    }
    return bad;
}

double log_modeled_ms(const simt::Device& dev) {
    double total = 0.0;
    for (const auto& k : dev.kernel_log()) total += k.modeled_ms;
    return total;
}

struct ArmResult {
    std::string name;
    double modeled_ms = 0.0;    ///< summed over every kernel of the stream
    std::size_t mismatches = 0;
    double sketch_ms = 0.0;     ///< adaptive arm only
};

/// Every frozen configuration a non-adaptive deployment could have shipped:
/// the union of candidate plans over the four regime sketches, deduplicated
/// by shape and uniquified by bucket target where names collide.
std::vector<std::pair<std::string, gas::Options>> static_arms(
    const std::vector<Request>& stream, const simt::DeviceProperties& props) {
    std::vector<std::pair<std::string, gas::Options>> arms;
    const auto same_shape = [](const gas::Options& a, const gas::Options& b) {
        return a.sampling_rate == b.sampling_rate && a.bucket_target == b.bucket_target &&
               a.strategy == b.strategy && a.threads_per_bucket == b.threads_per_bucket &&
               a.phase3_small_cutoff == b.phase3_small_cutoff &&
               a.phase3_bitonic_cutoff == b.phase3_bitonic_cutoff;
    };
    for (const auto& req : stream) {
        const auto sketch = gas::tune::sketch_values(req.values, kArrays, kSize);
        for (const auto& c :
             gas::tune::make_candidates(sketch, kSize, base_options(), props)) {
            bool known = false;
            for (const auto& [name, opts] : arms) known = known || same_shape(opts, c.opts);
            if (known) continue;
            std::string name = c.name;
            for (const auto& [existing, opts] : arms) {
                if (existing == name || existing.rfind(name + "-bt", 0) == 0) {
                    name += "-bt" + std::to_string(c.opts.bucket_target);
                    break;
                }
            }
            arms.emplace_back(std::move(name), c.opts);
        }
    }
    return arms;
}

ArmResult run_static(const std::string& name, const gas::Options& opts,
                     const std::vector<Request>& stream) {
    ArmResult r;
    r.name = name;
    simt::Device dev = bench::make_device();
    for (const auto& req : stream) {
        auto values = req.values;
        gas::gpu_array_sort(dev, std::span<float>(values), kArrays, kSize, opts);
        r.mismatches += element_mismatches(values, req.reference);
    }
    r.modeled_ms = log_modeled_ms(dev);
    return r;
}

ArmResult run_adaptive(const std::vector<Request>& stream) {
    ArmResult r;
    r.name = "adaptive";
    simt::Device dev = bench::make_device();
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;
    cfg.auto_tune = true;
    gas::serve::Server server(dev, cfg);
    for (const auto& req : stream) {
        gas::serve::Job job;
        job.kind = gas::serve::JobKind::Uniform;
        job.num_arrays = kArrays;
        job.array_size = kSize;
        job.values = req.values;
        job.opts = base_options();
        auto ticket = server.submit(std::move(job));
        server.pump();
        const auto resp = ticket.result.get();
        if (!resp.ok()) {
            r.mismatches += kArrays * kSize;
            continue;
        }
        r.mismatches += element_mismatches(resp.values, req.reference);
    }
    r.sketch_ms = server.stats().tune_sketch_ms;
    server.stop();
    r.modeled_ms = log_modeled_ms(dev);
    return r;
}

/// The auto_tune=off contract: a server with tuning off must emit exactly
/// the kernel sequence of a direct gpu_ragged_sort over uniform offsets (the
/// fused kernel serve runs) — bytes and every deterministic KernelStats field.
bool off_reproduces_direct() {
    const auto req = make_stream(1).front();  // one uniform request

    simt::Device direct_dev = bench::make_device();
    auto direct = req.values;
    gas::gpu_ragged_sort(direct_dev, std::span<float>(direct),
                         gas::resilient::uniform_offsets(kArrays, kSize), base_options());

    simt::Device serve_dev = bench::make_device();
    gas::serve::ServerConfig cfg;
    cfg.manual_pump = true;
    cfg.auto_tune = false;
    gas::serve::Server server(serve_dev, cfg);
    gas::serve::Job job;
    job.kind = gas::serve::JobKind::Uniform;
    job.num_arrays = kArrays;
    job.array_size = kSize;
    job.values = req.values;
    job.opts = base_options();
    auto ticket = server.submit(std::move(job));
    server.pump();
    const auto resp = ticket.result.get();
    server.stop();

    const std::size_t bytes = resp.ok() ? element_mismatches(resp.values, direct)
                                        : kArrays * kSize;
    const auto& a = direct_dev.kernel_log();
    const auto& b = serve_dev.kernel_log();
    std::size_t drift = a.size() == b.size() ? 0 : std::max(a.size(), b.size());
    for (std::size_t i = 0; drift == 0 && i < a.size(); ++i) {
        const auto& s = a[i];
        const auto& w = b[i];
        const bool same =
            s.name == w.name && s.grid_dim == w.grid_dim && s.block_dim == w.block_dim &&
            s.shared_bytes_per_block == w.shared_bytes_per_block &&
            s.totals.ops == w.totals.ops &&
            s.totals.shared_accesses == w.totals.shared_accesses &&
            s.totals.coalesced_bytes == w.totals.coalesced_bytes &&
            s.totals.random_accesses == w.totals.random_accesses &&
            s.traffic_bytes == w.traffic_bytes && s.modeled_ms == w.modeled_ms;
        if (!same) drift = 1;
    }
    const bool ok = bytes == 0 && drift == 0;
    std::printf("gate: auto_tune=off vs direct — %zu byte mismatches, %s stats drift "
                "(%zu kernels) ... %s\n",
                bytes, drift == 0 ? "no" : "HAS", a.size(), ok ? "PASS" : "FAIL");
    return ok;
}

struct StreamReport {
    ArmResult adaptive;
    std::vector<ArmResult> statics;
    double best_static_ms = 0.0;
    std::string best_static;
    double advantage = 0.0;  ///< best_static_ms / adaptive_ms
    bool beats_all = true;
    std::size_t total_mismatches = 0;
};

StreamReport run_stream(const char* label, std::size_t per_regime) {
    const auto stream = make_stream(per_regime);
    const auto props = bench::make_device().props();
    std::printf("%s stream: %zu requests (%zu per regime), %zu arrays x %zu floats\n",
                label, stream.size(), per_regime, kArrays, kSize);

    StreamReport rep;
    rep.adaptive = run_adaptive(stream);
    rep.total_mismatches = rep.adaptive.mismatches;
    std::printf("  %-16s %10.3f modeled ms (%7.3f ms/request, sketch %.3f ms), "
                "%zu mismatches\n",
                rep.adaptive.name.c_str(), rep.adaptive.modeled_ms,
                rep.adaptive.modeled_ms / static_cast<double>(stream.size()),
                rep.adaptive.sketch_ms, rep.adaptive.mismatches);

    rep.best_static_ms = 1e300;
    for (const auto& [name, opts] : static_arms(stream, props)) {
        const auto arm = run_static(name, opts, stream);
        std::printf("  %-16s %10.3f modeled ms (%7.3f ms/request), %zu mismatches\n",
                    arm.name.c_str(), arm.modeled_ms,
                    arm.modeled_ms / static_cast<double>(stream.size()), arm.mismatches);
        rep.total_mismatches += arm.mismatches;
        rep.beats_all = rep.beats_all && rep.adaptive.modeled_ms < arm.modeled_ms;
        if (arm.modeled_ms < rep.best_static_ms) {
            rep.best_static_ms = arm.modeled_ms;
            rep.best_static = arm.name;
        }
        rep.statics.push_back(arm);
    }
    rep.advantage = rep.best_static_ms / rep.adaptive.modeled_ms;
    std::printf("  adaptive advantage: %.2fx over best static (%s)\n", rep.advantage,
                rep.best_static.c_str());
    return rep;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::string json_path;
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: adaptive_tuning [--quick] [--json PATH] "
                         "[--baseline PATH]\n");
            return 2;
        }
    }
    // The full run owns the committed artifact; --quick (the smoke test)
    // writes nothing unless asked, so it can never clobber the baseline.
    if (json_path.empty() && !quick) json_path = "BENCH_tune.json";

    std::printf("adaptive_tuning: gas::tune closed loop vs every frozen static plan\n");
    bench::rule('=');

    const StreamReport q = run_stream("quick", 2);
    bool ok = q.total_mismatches == 0;
    ok = off_reproduces_direct() && ok;

    StreamReport full;
    double sketch_share = 0.0;
    bool gate_sketch = true;
    if (!quick) {
        bench::rule();
        full = run_stream("full", 5);
        const bool gate_adv = full.advantage >= 1.2;
        std::printf("gate: adaptive %.2fx over best static '%s' (need >= 1.2x) ... %s\n",
                    full.advantage, full.best_static.c_str(),
                    gate_adv ? "PASS" : "FAIL");
        std::printf("gate: adaptive strictly beats every static ... %s\n",
                    full.beats_all ? "PASS" : "FAIL");
        std::printf("gate: 0 byte mismatches across all arms (%zu) ... %s\n",
                    full.total_mismatches,
                    full.total_mismatches == 0 ? "PASS" : "FAIL");
        // Sketch overhead is measured against the UNTUNED cost — what the
        // stream costs with the options the client actually submitted
        // (paper-default) — because that is the bill the sketch rides on.
        double untuned_ms = 0.0;
        for (const auto& arm : full.statics) {
            if (arm.name == "paper-default") untuned_ms = arm.modeled_ms;
        }
        sketch_share = full.adaptive.sketch_ms / untuned_ms;
        gate_sketch = sketch_share <= 0.05;
        std::printf("gate: sketch overhead %.3f ms = %.2f%% of untuned sort cost "
                    "(need <= 5%%) ... %s\n",
                    full.adaptive.sketch_ms, 100.0 * sketch_share,
                    gate_sketch ? "PASS" : "FAIL");
        ok = ok && gate_adv && full.beats_all && full.total_mismatches == 0 &&
             gate_sketch;
    }

    bool baseline_pass = true;
    if (!baseline_path.empty()) {
        const double base =
            bench::baseline_number(baseline_path, "quick_adaptive_advantage").value_or(0.0);
        if (base <= 0.0) {
            std::printf("baseline: no quick_adaptive_advantage in %s — FAIL\n",
                        baseline_path.c_str());
            baseline_pass = false;
        } else {
            baseline_pass = q.advantage >= 0.8 * base;
            std::printf("gate: quick adaptive advantage %.2fx vs baseline %.2fx "
                        "(need >= 80%%) ... %s\n",
                        q.advantage, base, baseline_pass ? "PASS" : "FAIL");
        }
        ok = ok && baseline_pass;
    }

    if (!json_path.empty()) {
        obs::Json j;
        const auto arms = [&j](const StreamReport& rep) {
            j.object("adaptive").field("modeled_ms", rep.adaptive.modeled_ms);
            j.field("sketch_ms", rep.adaptive.sketch_ms);
            j.field("mismatches", rep.adaptive.mismatches).end_object();
            for (const auto& arm : rep.statics) {
                j.object(arm.name).field("modeled_ms", arm.modeled_ms);
                j.field("mismatches", arm.mismatches).end_object();
            }
            j.field("advantage", rep.advantage);
        };
        j.begin_object().field("bench", "adaptive_tuning").field("arrays", kArrays);
        j.field("array_size", kSize).object("quick");
        arms(q);
        j.end_object().field("quick_adaptive_advantage", q.advantage);
        if (!quick) {
            j.object("full");
            arms(full);
            j.field("best_static", full.best_static).end_object().object("gates");
            j.object("adaptive_vs_best_static").field("value", full.advantage);
            j.field("min", 1.2).field("pass", full.advantage >= 1.2).end_object();
            j.object("beats_every_static").field("pass", full.beats_all).end_object();
            j.object("byte_mismatches").field("value", full.total_mismatches);
            j.field("max", 0).field("pass", full.total_mismatches == 0).end_object();
            j.object("sketch_overhead").field("value_ms", full.adaptive.sketch_ms);
            j.field("share", sketch_share).field("max_share", 0.05);
            j.field("pass", gate_sketch).end_object().end_object();
        }
        j.field("pass", ok).end_object();
        ok = bench::write_json_file(json_path, j) && ok;
    }

    return ok ? 0 : 1;
}
