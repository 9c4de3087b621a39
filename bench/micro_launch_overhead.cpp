// Launch-overhead microbenchmark: launches/second through the persistent
// worker pool vs. the old per-launch strategy (spawn + join a std::thread
// per worker, each constructing a fresh BlockCtx with its 48 KB arena), and
// the pool's loop-of-launches vs. one submitted simt::Graph.
//
// Small grids are where overhead dominates — a 4-block kernel simulates in
// microseconds, so per-launch thread creation was the bill.  GPU-ArraySort
// issues dozens of launches per sort (STA: 3 kernels x 8 passes x 3 sorts),
// which is why the pool exists; a work graph removes the remaining
// per-launch scheduling round-trip by keeping the worker team resident for
// the whole DAG.  Gates:
//
//   pool vs spawn   >= 3x launches/sec on small grids (full mode only)
//   graph vs loop   >= 2x launches/sec on small grids (fig4-shaped chains)
//   pool wakes      a 24-launch loop at grid 4 wakes the pool 24 times; one
//                   submit of the same chain wakes it at most
//                   quick_graph_pool_wakes_per_submit times (the baseline's
//                   value, else 1 — Device::submit's one round-trip promise)
//
//   micro_launch_overhead [--quick] [--iters N] [--json PATH]
//                         [--baseline PATH]
//
// The full run owns the committed BENCH_graph.json artifact; --quick is the
// bench-smoke ctest body — it trims iterations and skips the slow spawn
// comparison.  Every gate is a ratio or a count taken in the same run, so
// it holds on any host; the grid-4 graph launch rate is printed beside the
// committed one as information only, since it measures the host as much as
// the code.  Exit code 0 iff every gate passed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "simt/cost_model.hpp"
#include "simt/device.hpp"
#include "simt/graph.hpp"
#include "simt/kernel.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// The tiny kernel body every launch strategy executes per block.
void tiny_body(simt::BlockCtx& blk) {
    blk.for_each_thread([&](simt::ThreadCtx& tc) { tc.ops(1); });
}

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Launches/sec through Device::launch (the persistent pool).
double pool_rate(simt::Device& dev, unsigned grid, unsigned block, int iters) {
    for (int i = 0; i < 16; ++i) dev.launch({"micro.tiny", grid, block}, tiny_body);
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) dev.launch({"micro.tiny", grid, block}, tiny_body);
    return iters / seconds_since(t0);
}

/// Launches/sec with the pre-pool strategy: every launch spawns `workers`
/// std::threads, each of which constructs its own BlockCtx (48 KB shared
/// arena included), pulls blocks from a shared counter, and is joined.
/// Cost aggregation mirrors Device::launch so the work per block matches.
double spawn_rate(const simt::DeviceProperties& props, unsigned grid, unsigned block,
                  unsigned workers, int iters) {
    const simt::CostModel model(props);
    workers = std::min(workers, grid);
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
        std::vector<simt::BlockCost> records(grid);
        std::atomic<unsigned> next{0};
        auto worker = [&](unsigned slot) {
            simt::BlockCtx ctx(block, grid, props.shared_memory_per_block,
                               simt::ThreadOrder::Forward, slot);
            for (unsigned b = next.fetch_add(1); b < grid; b = next.fetch_add(1)) {
                ctx.begin_block(b);
                tiny_body(ctx);
                records[b] = model.block_cost(ctx.lanes());
            }
        };
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) threads.emplace_back(worker, w);
        for (auto& t : threads) t.join();
        double cycles = 0.0;
        for (const auto& r : records) cycles += r.cycles;
        (void)cycles;
    }
    return iters / seconds_since(t0);
}

/// A `chain`-node dependency chain issued as `chain` separate
/// Device::launch calls (one scheduling round-trip each).
void loop_chain(simt::Device& dev, unsigned grid, unsigned block, unsigned chain) {
    for (unsigned k = 0; k < chain; ++k) dev.launch({"micro.tiny", grid, block}, tiny_body);
}

/// The same chain built as a graph and run by one Device::submit: the
/// worker team stays resident across all `chain` nodes, so the per-launch
/// wake/join round-trip is paid once per graph.
void graph_chain(simt::Device& dev, unsigned grid, unsigned block, unsigned chain) {
    simt::Graph g;
    simt::Graph::NodeId prev = 0;
    for (unsigned k = 0; k < chain; ++k) {
        prev = k == 0 ? g.add_kernel({"micro.tiny", grid, block}, tiny_body)
                      : g.add_kernel({"micro.tiny", grid, block}, tiny_body, {prev});
    }
    dev.submit(g);
}

/// Kernel launches/sec of `run_chain` (loop_chain or graph_chain).  Graph
/// construction is timed too — a sorter rebuilds its graph per sort, so
/// build cost is part of the win.
template <typename RunChain>
double chain_rate(RunChain run_chain, simt::Device& dev, unsigned grid, unsigned block,
                  unsigned chain, int iters) {
    for (int i = 0; i < 4; ++i) run_chain(dev, grid, block, chain);
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) run_chain(dev, grid, block, chain);
    return iters * chain / seconds_since(t0);
}

/// Pool wakes (Device::pool_wakes) that one run of `run_chain` costs.
template <typename RunChain>
std::uint64_t chain_wakes(RunChain run_chain, simt::Device& dev, unsigned grid,
                          unsigned block, unsigned chain) {
    const std::uint64_t before = dev.pool_wakes();
    run_chain(dev, grid, block, chain);
    return dev.pool_wakes() - before;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::string json_path;
    std::string baseline_path;
    int iters = 2000;
    int spawn_iters = 300;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
            baseline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
            iters = std::max(1, std::atoi(argv[++i]));
            spawn_iters = std::max(1, iters / 4);
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("usage: %s [--quick] [--iters N] [--json PATH] [--baseline PATH]\n",
                        argv[0]);
            return 0;
        }
    }
    if (quick) {
        iters = std::min(iters, 400);
        spawn_iters = std::min(spawn_iters, 100);
    }
    // The full run owns the committed artifact; --quick (the smoke test)
    // writes nothing unless asked, so it can never clobber the baseline.
    if (json_path.empty() && !quick) json_path = "BENCH_graph.json";

    const unsigned workers = std::max(std::thread::hardware_concurrency(), 1u);
    simt::Device dev(simt::tesla_k40c(), simt::DeviceMemory::Mode::Backed, workers);
    const unsigned grids[] = {1, 4, 16, 64, 256};
    const unsigned block = 32;
    // A fig4-shaped sort issues a few dozen dependent launches (3 phases plus
    // negate/verify variants; STA is 3 kernels x 8 passes x 3 sorts).
    const unsigned chain = 24;

    obs::Json json;
    json.begin_object().field("bench", "micro_launch_overhead").field("workers", workers);
    json.field("block_dim", block);
    bool ok = true;

    std::printf("Launch overhead: persistent pool vs per-launch thread spawning\n");
    std::printf("host workers: %u, block_dim: %u, %d pool iters / %d spawn iters\n",
                workers, block, iters, spawn_iters);
    bench::rule('=');

    bool spawn_ok = true;
    if (!quick) {
        std::printf("%8s | %18s %18s | %8s\n", "grid", "pool launches/s",
                    "spawn launches/s", "speedup");
        bench::rule();
        json.array("results");
        for (const unsigned grid : grids) {
            // Larger grids do real per-block work; scale iterations down so
            // the bench stays quick without losing resolution.
            const int scale = grid >= 64 ? 4 : 1;
            const double pool = pool_rate(dev, grid, block, iters / scale);
            const double spawn = spawn_rate(dev.props(), grid, block, workers,
                                            spawn_iters / scale);
            const double speedup = pool / spawn;
            if (grid <= 16 && speedup < 3.0) spawn_ok = false;
            std::printf("%8u | %18.0f %18.0f | %7.1fx\n", grid, pool, spawn, speedup);
            std::fflush(stdout);
            json.begin_object().field("grid", grid).field("pool_launches_per_sec", pool);
            json.field("spawn_launches_per_sec", spawn).field("speedup", speedup).end_object();
        }
        json.end_array();
        std::printf("small grids (<=16 blocks) pool >= 3x spawn: %s\n",
                    spawn_ok ? "yes" : "NO");
        ok = ok && spawn_ok;
        bench::rule();
    }

    // Graph submission vs the loop of pool launches: the same `chain`-node
    // dependency chain, one Device::submit vs `chain` Device::launch calls.
    // The comparison targets the multi-worker scheduling protocol the graph
    // amortizes (per-launch park/wake vs one resident team), so the device
    // gets at least 4 workers even on a small CI host; grid=1 is reported
    // but not gated — Device::launch clamps a 1-block kernel to the inline
    // path, where there is no round-trip on either side to amortize.
    const unsigned team_workers = std::max(workers, 4u);
    simt::Device team_dev(simt::tesla_k40c(), simt::DeviceMemory::Mode::Backed,
                          team_workers);
    std::printf("Graph launches: %u-kernel chain as one Device::submit vs a launch loop "
                "(%u workers)\n",
                chain, team_workers);
    std::printf("%8s | %18s %18s | %8s\n", "grid", "graph launches/s",
                "loop launches/s", "speedup");
    bench::rule();
    json.array("graph");
    bool graph_ok = true;
    double quick_rate = 0.0;
    // Sized so each measurement spans ~100ms — launch rates on a timeshared
    // host need to average over several scheduler quanta; --quick keeps the
    // full size here because the graph gate is the point of the quick run.
    const int chain_iters = 2000 / static_cast<int>(chain) * 4;
    // Best-of-3 per side: launch rates on a shared host are scheduler-noisy,
    // and each side's best run is its honest capability.
    const auto best_of = [](const auto& measure) {
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) best = std::max(best, measure());
        return best;
    };
    for (const unsigned grid : grids) {
        const int scale = grid >= 64 ? 4 : 1;
        const int n = chain_iters / scale;
        const double loop =
            best_of([&] { return chain_rate(loop_chain, team_dev, grid, block, chain, n); });
        const double graph =
            best_of([&] { return chain_rate(graph_chain, team_dev, grid, block, chain, n); });
        const double speedup = graph / loop;
        // The gate sits on the overhead-dominated point (a 4-block grid is
        // too small to hide any scheduling round-trip).  Larger grids are
        // reported but not gated: past ~16 blocks per-block work dominates
        // and on a uniprocessor CI host the ratio degenerates toward 1.
        if (grid == 4 && speedup < 2.0) graph_ok = false;
        if (grid == 4) quick_rate = graph;
        std::printf("%8u | %18.0f %18.0f | %7.1fx\n", grid, graph, loop, speedup);
        std::fflush(stdout);
        json.begin_object().field("grid", grid).field("chain", chain);
        json.field("graph_launches_per_sec", graph).field("loop_launches_per_sec", loop);
        json.field("speedup", speedup).end_object();
    }
    json.end_array();
    std::printf("overhead-dominated small grid (4 blocks) graph >= 2x loop: %s\n",
                graph_ok ? "yes" : "NO");
    ok = ok && graph_ok;

    // The launch-rate advantage above rests on Device::submit waking the
    // pool once per graph where the loop wakes it once per launch.  Those
    // counts are the same on every host, so they carry the committed
    // baseline's gate; the loop's count also proves the counter sees wakes.
    const std::uint64_t loop_wakes = chain_wakes(loop_chain, team_dev, 4, block, chain);
    const std::uint64_t submit_wakes = chain_wakes(graph_chain, team_dev, 4, block, chain);
    std::optional<double> allowed_wakes = 1.0;
    if (!baseline_path.empty()) {
        allowed_wakes =
            bench::baseline_number(baseline_path, "quick_graph_pool_wakes_per_submit");
        if (!allowed_wakes) {
            std::printf("baseline: no quick_graph_pool_wakes_per_submit in %s — FAIL\n",
                        baseline_path.c_str());
        }
    }
    const bool wakes_ok = loop_wakes == chain && allowed_wakes &&
                          static_cast<double>(submit_wakes) <= *allowed_wakes;
    std::printf("gate: pool wakes at grid 4: loop %llu (need %u), submit %llu "
                "(need <= %.0f) ... %s\n",
                static_cast<unsigned long long>(loop_wakes), chain,
                static_cast<unsigned long long>(submit_wakes), allowed_wakes.value_or(0.0),
                wakes_ok ? "PASS" : "FAIL");
    ok = ok && wakes_ok;
    if (!baseline_path.empty()) {
        const double base =
            bench::baseline_number(baseline_path, "quick_graph_launches_per_sec").value_or(0.0);
        std::printf("info: grid-4 graph launch rate %.0f/s, committed %.0f/s "
                    "(host-dependent, not gated)\n",
                    quick_rate, base);
    }
    bench::rule();

    // The numbers above are only honest if the sanitizer machinery is
    // provably inert by default: same kernel, default vs all-checks device,
    // every deterministic KernelStats field bit-identical.
    const bool inert = bench::verify_sanitize_off_guarantee([](simt::Device& d) {
        for (int i = 0; i < 32; ++i) d.launch({"micro.tiny", 16, 32}, tiny_body);
    });
    ok = ok && inert;

    json.field("quick_graph_launches_per_sec", quick_rate);
    json.field("quick_loop_pool_wakes", loop_wakes);
    json.field("quick_graph_pool_wakes_per_submit", submit_wakes);
    json.field("pool_wakes_ok", wakes_ok);
    json.field("sanitize_off_bit_identical", inert);
    json.field("small_grid_pool_speedup_ge_3x", spawn_ok);
    json.field("small_grid_graph_speedup_ge_2x", graph_ok).field("pass", ok).end_object();

    bench::rule();
    std::printf("%s\n", json.str().c_str());
    if (!json_path.empty()) ok = bench::write_json_file(json_path, json) && ok;
    return ok ? 0 : 1;
}
