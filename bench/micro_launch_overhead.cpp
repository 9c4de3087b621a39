// Launch-overhead microbenchmark: launches/second through the persistent
// worker pool vs. the old per-launch strategy (spawn + join a std::thread
// per worker, each constructing a fresh BlockCtx with its 48 KB arena).
//
// Small grids are where overhead dominates — a 4-block kernel simulates in
// microseconds, so per-launch thread creation was the bill.  GPU-ArraySort
// issues dozens of launches per sort (STA: 3 kernels x 8 passes x 3 sorts),
// which is why the pool exists.  Gates:
//
//   pool vs spawn   >= 3x launches/sec on small grids (full mode only)
//   pool wakes      a 24-launch loop at grid 4 wakes the pool 24 times, one
//                   per multi-block launch
//
//   micro_launch_overhead [--quick] [--iters N] [--json PATH]
//
// The full run owns the committed BENCH_graph.json artifact; --quick is the
// bench-smoke ctest body — it skips the slow spawn comparison.  Every gate
// is a ratio or a count taken in the same run, so it holds on any host.
// Exit code 0 iff every gate passed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "simt/cost_model.hpp"
#include "simt/device.hpp"
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

/// Pool wakes (Device::pool_wakes) that `chain` launches of a `grid`-block
/// kernel cost.
std::uint64_t loop_wakes(simt::Device& dev, unsigned grid, unsigned block, unsigned chain) {
    const std::uint64_t before = dev.pool_wakes();
    for (unsigned k = 0; k < chain; ++k) dev.launch({"micro.tiny", grid, block}, tiny_body);
    return dev.pool_wakes() - before;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::string json_path;
    int iters = 2000;
    int spawn_iters = 300;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
            iters = std::max(1, std::atoi(argv[++i]));
            spawn_iters = std::max(1, iters / 4);
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("usage: %s [--quick] [--iters N] [--json PATH]\n", argv[0]);
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
    // A sort issues a few dozen dependent launches (3 phases plus
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

    // One pool wake per multi-block launch.  The count is the same on every
    // host; the device gets at least 4 workers so a 4-block launch fans out
    // even on a small CI host.
    simt::Device wake_dev(simt::tesla_k40c(), simt::DeviceMemory::Mode::Backed,
                          std::max(workers, 4u));
    const std::uint64_t wakes = loop_wakes(wake_dev, 4, block, chain);
    const bool wakes_ok = wakes == chain;
    std::printf("gate: pool wakes for %u launches at grid 4: %llu (need %u) ... %s\n", chain,
                static_cast<unsigned long long>(wakes), chain, wakes_ok ? "PASS" : "FAIL");
    ok = ok && wakes_ok;
    bench::rule();

    // The numbers above are only honest if the sanitizer machinery is
    // provably inert by default: same kernel, default vs all-checks device,
    // every deterministic KernelStats field bit-identical.
    const bool inert = bench::verify_sanitize_off_guarantee([](simt::Device& d) {
        for (int i = 0; i < 32; ++i) d.launch({"micro.tiny", 16, 32}, tiny_body);
    });
    ok = ok && inert;

    json.field("quick_loop_pool_wakes", wakes);
    json.field("pool_wakes_ok", wakes_ok);
    json.field("sanitize_off_bit_identical", inert);
    json.field("small_grid_pool_speedup_ge_3x", spawn_ok).field("pass", ok).end_object();

    bench::rule();
    std::printf("%s\n", json.str().c_str());
    if (!json_path.empty()) ok = bench::write_json_file(json_path, json) && ok;
    return ok ? 0 : 1;
}
