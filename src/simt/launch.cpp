#include <atomic>
#include <chrono>
#include <thread>

#include "simt/device.hpp"
#include "simt/sanitize/shadow.hpp"

namespace simt {

namespace detail {

/// Per-block cost record, indexed by block id so aggregation order (and
/// therefore the modeled time) is identical for any worker count.  The
/// sanitizer's per-block result rides along for the same reason: findings
/// are merged in block order no matter which worker ran the block.
struct BlockRecord {
    double cycles = 0.0;
    double traffic = 0.0;
    double warp_max_cycles = 0.0;
    double warp_mean_cycles = 0.0;
    LaneCounters totals;
    std::size_t shared_high_water = 0;
    sanitize::SlotShadow::BlockResult san;
};

namespace {

void run_block(const std::function<void(BlockCtx&)>& body, BlockCtx& ctx,
               const CostModel& model, unsigned block, BlockRecord& rec) {
    ctx.begin_block(block);
    body(ctx);
    const BlockCost cost = model.block_cost(ctx.lanes());
    rec.cycles = cost.cycles;
    rec.traffic = cost.traffic_bytes;
    rec.warp_max_cycles = cost.warp_max_cycles;
    rec.warp_mean_cycles = cost.warp_mean_cycles;
    for (const LaneCounters& lane : ctx.lanes()) rec.totals += lane;
    rec.shared_high_water = ctx.shared_high_water();
    if (sanitize::SlotShadow* shadow = ctx.sanitizer()) {
        shadow->end_block();
        rec.san = shadow->take_block_result();
    }
}

}  // namespace
}  // namespace detail

void Device::check_launch(const LaunchConfig& cfg) {
    bump_progress();  // heartbeat: a launch reached the device
    if (cfg.grid_dim == 0 || cfg.block_dim == 0) {
        throw LaunchError("launch '" + cfg.name + "': zero grid or block dimension");
    }
    if (cfg.block_dim > props_.max_threads_per_block) {
        throw LaunchError("launch '" + cfg.name + "': block_dim " +
                          std::to_string(cfg.block_dim) + " exceeds device limit " +
                          std::to_string(props_.max_threads_per_block));
    }

    if (faults_) {
        // Corruption models bit flips since the previous launch, so it is
        // applied (and, in detected mode, raised) before this kernel's body
        // consumes the data; the launch-fail check then decides whether the
        // launch itself is refused.  Neither hook runs a block or logs stats.
        const auto corrupt = faults_->on_launch_corrupt(memory_, cfg.name);
        std::uint64_t launch_ordinal = 0;
        const bool refuse = faults_->on_launch_fail(cfg.name, launch_ordinal);
        if (corrupt.fired && corrupt.detected) {
            throw TransferError(corrupt.offset, corrupt.bits);
        }
        if (refuse) {
            throw LaunchFault(cfg.name, launch_ordinal);
        }
        if (faults_->on_launch_hang(cfg.name, launch_ordinal)) {
            // The stuck-kernel arm: hold the launch in wall time, polling the
            // hang handler, until it says Abort or the plan's safety valve
            // expires.  Progress ticks are NOT bumped while hung — that is
            // exactly the stagnation a watchdog detects.
            const auto& plan = faults_->plan();
            const auto poll = std::chrono::microseconds(std::max<std::uint64_t>(
                plan.hang_check_us, 1));
            const auto start = std::chrono::steady_clock::now();
            for (;;) {
                if (hang_handler_ && hang_handler_() == HangAction::Abort) break;
                const double hung_ms = std::chrono::duration<double, std::milli>(
                                           std::chrono::steady_clock::now() - start)
                                           .count();
                if (hung_ms >= plan.hang_max_ms) break;
                std::this_thread::sleep_for(poll);
            }
            const double hung_ms = std::chrono::duration<double, std::milli>(
                                       std::chrono::steady_clock::now() - start)
                                       .count();
            throw StallFault(cfg.name, launch_ordinal, hung_ms);
        }
    }
}

KernelStats Device::finish_launch(const LaunchConfig& cfg,
                                  std::vector<detail::BlockRecord>& records,
                                  double wall_ms) {
    KernelStats stats;
    stats.name = cfg.name;
    stats.grid_dim = cfg.grid_dim;
    stats.block_dim = cfg.block_dim;
    stats.wall_ms = wall_ms;

    // Deterministic aggregation in block order.
    std::vector<double> block_cycles(cfg.grid_dim);
    double traffic = 0.0;
    for (unsigned b = 0; b < cfg.grid_dim; ++b) {
        block_cycles[b] = records[b].cycles;
        traffic += records[b].traffic;
        stats.totals += records[b].totals;
        stats.warp_max_cycles += records[b].warp_max_cycles;
        stats.warp_mean_cycles += records[b].warp_mean_cycles;
        stats.shared_bytes_per_block =
            std::max(stats.shared_bytes_per_block, records[b].shared_high_water);
    }
    stats.imbalance =
        stats.warp_mean_cycles > 0.0 ? stats.warp_max_cycles / stats.warp_mean_cycles : 1.0;

    cost_model_.finalize(stats, block_cycles, traffic);
    kernel_log_.push_back(stats);

    if (sanitize_options_.any()) {
        // Merge per-block sanitizer results in block order (deterministic
        // for any worker count), capped at max_findings per launch.
        sanitize::LaunchSanitizeStats ls;
        ls.kernel = cfg.name;
        ls.grid_dim = cfg.grid_dim;
        ls.block_dim = cfg.block_dim;
        std::size_t launch_findings = 0;
        for (unsigned b = 0; b < cfg.grid_dim; ++b) {
            sanitize::SlotShadow::BlockResult& san = records[b].san;
            ls.tracked_accesses += san.tracked_accesses;
            ls.bank_conflict_cycles += san.bank_conflict_cycles;
            ls.worst_bank_degree = std::max(ls.worst_bank_degree, san.worst_bank_degree);
            sanitize_report_.suppressed += san.suppressed;
            for (sanitize::Finding& f : san.findings) {
                if (launch_findings < sanitize_options_.max_findings) {
                    sanitize_report_.findings.push_back(std::move(f));
                    ++launch_findings;
                } else {
                    ++sanitize_report_.suppressed;
                }
            }
        }
        ls.findings = launch_findings;
        sanitize_report_.launches.push_back(std::move(ls));
        if (sanitize_options_.strict && launch_findings > 0) {
            throw SanitizeError(cfg.name, launch_findings);
        }
    }
    bump_progress();  // heartbeat: the launch retired
    return stats;
}

KernelStats Device::launch(const LaunchConfig& cfg,
                           const std::function<void(BlockCtx&)>& body) {
    check_launch(cfg);

    const bool sanitizing = sanitize_options_.any();
    std::vector<detail::BlockRecord> records(cfg.grid_dim);
    const unsigned workers = std::min(host_workers_, cfg.grid_dim);
    ThreadPool& workers_pool = pool();

    const auto t0 = std::chrono::steady_clock::now();
    if (workers <= 1) {
        // Sequential path still goes through slot 0 so the shared-memory
        // arena is reused across launches instead of reallocated.
        workers_pool.reserve_slots(1);
        BlockCtx& ctx = workers_pool.block_ctx(0);
        ctx.configure(cfg.block_dim, cfg.grid_dim, props_.shared_memory_per_block,
                      thread_order_, /*slot=*/0, exec_mode_, props_.warp_size);
        if (sanitizing) {
            ctx.enable_sanitize(sanitize_options_, cfg.name);
        } else {
            ctx.disable_sanitize();
        }
        for (unsigned b = 0; b < cfg.grid_dim; ++b) {
            detail::run_block(body, ctx, cost_model_, b, records[b]);
        }
    } else {
        // Persistent worker pool: each worker owns a BlockCtx (its execution
        // slot) and pulls block ids from a shared counter.  A failing block
        // drains the counter so peers stop early; the pool rethrows the
        // first exception after every worker has stopped.  Shadow state is
        // per slot, so sanitizing needs no cross-worker synchronization.
        std::atomic<unsigned> next{0};
        workers_pool.run(workers, [&](unsigned w) {
            BlockCtx& ctx = workers_pool.block_ctx(w);
            ctx.configure(cfg.block_dim, cfg.grid_dim, props_.shared_memory_per_block,
                          thread_order_, /*slot=*/w, exec_mode_, props_.warp_size);
            if (sanitizing) {
                ctx.enable_sanitize(sanitize_options_, cfg.name);
            } else {
                ctx.disable_sanitize();
            }
            try {
                for (unsigned b = next.fetch_add(1); b < cfg.grid_dim;
                     b = next.fetch_add(1)) {
                    detail::run_block(body, ctx, cost_model_, b, records[b]);
                }
            } catch (...) {
                next.store(cfg.grid_dim);  // drain remaining work
                throw;
            }
        });
    }
    const auto t1 = std::chrono::steady_clock::now();
    return finish_launch(cfg, records,
                         std::chrono::duration<double, std::milli>(t1 - t0).count());
}

double Device::total_modeled_ms() const {
    double total = 0.0;
    for (const KernelStats& k : kernel_log_) total += k.modeled_ms;
    return total;
}

double Device::total_wall_ms() const {
    double total = 0.0;
    for (const KernelStats& k : kernel_log_) total += k.wall_ms;
    return total;
}

}  // namespace simt
