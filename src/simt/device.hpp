#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "simt/cost_model.hpp"
#include "simt/device_memory.hpp"
#include "simt/device_properties.hpp"
#include "simt/faults/injector.hpp"
#include "simt/kernel.hpp"
#include "simt/sanitize/finding.hpp"
#include "simt/sanitize/options.hpp"
#include "simt/thread_pool.hpp"

namespace simt {

class Graph;
struct GraphStats;
namespace detail {
struct BlockRecord;
}

/// A simulated SIMT device: properties + global memory + kernel launcher +
/// a log of every launch's modeled cost.
class Device {
  public:
    explicit Device(DeviceProperties props = tesla_k40c(),
                    DeviceMemory::Mode mode = DeviceMemory::Mode::Backed,
                    unsigned host_workers = 1)
        : props_(std::move(props)),
          memory_(props_.global_memory_bytes, mode),
          cost_model_(props_),
          host_workers_(std::max(host_workers, 1u)),
          sanitize_options_(sanitize::SanitizeOptions::from_env()) {}

    [[nodiscard]] const DeviceProperties& props() const { return props_; }
    [[nodiscard]] DeviceMemory& memory() { return memory_; }
    [[nodiscard]] const DeviceMemory& memory() const { return memory_; }
    [[nodiscard]] const CostModel& cost_model() const { return cost_model_; }

    /// Lane execution order for subsequent launches (race detection in tests).
    void set_thread_order(ThreadOrder order) { thread_order_ = order; }
    [[nodiscard]] ThreadOrder thread_order() const { return thread_order_; }

    /// Interpreter execution mode for subsequent launches.  Defaults from
    /// the SIMT_EXEC environment variable (unset: Warp, the fast path, which
    /// batches for_each_warp regions a lane group at a time); Scalar is the
    /// reference interpreter, with bit-identical output bytes and
    /// KernelStats.
    void set_exec_mode(ExecMode mode) { exec_mode_ = mode; }
    [[nodiscard]] ExecMode exec_mode() const { return exec_mode_; }

    /// Host worker threads simulating blocks concurrently (default 1 =
    /// sequential).  Blocks of a well-formed kernel touch disjoint global
    /// data, so results are identical for any worker count; per-block costs
    /// are recorded by block index, keeping modeled time deterministic too.
    /// Kernels needing per-resident-block scratch key it off BlockCtx::slot().
    void set_host_workers(unsigned workers) { host_workers_ = std::max(workers, 1u); }
    [[nodiscard]] unsigned host_workers() const { return host_workers_; }

    /// Runs `body` once per block, functionally simulating the kernel, and
    /// returns modeled + measured cost.  The stats are also appended to the
    /// device's kernel log.
    KernelStats launch(const LaunchConfig& cfg, const std::function<void(BlockCtx&)>& body);

    /// Executes a whole work graph (simt/graph.hpp) in one scheduling
    /// round-trip: the worker pool is woken once and stays resident while
    /// every node — including dynamically enqueued ones — drains.  Each
    /// kernel node goes through the same validation, fault hooks, per-block
    /// execution, and block-order aggregation as launch(), so its
    /// KernelStats (and the kernel log) are bit-identical to the
    /// equivalent loop of launches.  Defined in graph.cpp.
    GraphStats submit(Graph& graph);

    /// Times the worker pool has been woken: one per launch() that fans out
    /// to more than one worker, one per submit() on a multi-worker device,
    /// none for inline (1-worker) execution; 0 before the first launch.
    [[nodiscard]] std::uint64_t pool_wakes() const { return pool_ ? pool_->wakes() : 0; }

    /// Cumulative counters over every submit() on this device, consumed by
    /// the serve layer's observability ("graph" stats block).
    struct GraphTelemetry {
        std::uint64_t graphs = 0;           ///< graphs submitted
        std::uint64_t nodes = 0;            ///< nodes executed (kernel + host)
        std::uint64_t kernel_nodes = 0;     ///< kernel nodes executed
        std::uint64_t host_nodes = 0;       ///< host decision nodes executed
        std::uint64_t device_enqueued = 0;  ///< nodes enqueued mid-execution
        std::uint64_t pruned = 0;           ///< nodes skipped (gate or prune)
    };
    [[nodiscard]] const GraphTelemetry& graph_telemetry() const {
        return graph_telemetry_;
    }
    void clear_graph_telemetry() { graph_telemetry_ = {}; }

    [[nodiscard]] const std::vector<KernelStats>& kernel_log() const { return kernel_log_; }
    void clear_kernel_log() { kernel_log_.clear(); }

    /// The compute-sanitizer analog (simt::sanitize).  Defaults come from
    /// the GAS_SANITIZE_RUNTIME environment variable (normally: all off).
    /// Checks never touch LaneCounters or KernelStats — enabling them
    /// changes only the sanitize report, never modeled results.
    void set_sanitize_options(const sanitize::SanitizeOptions& opts) {
        sanitize_options_ = opts;
    }
    [[nodiscard]] const sanitize::SanitizeOptions& sanitize_options() const {
        return sanitize_options_;
    }
    /// Findings + per-launch statistics accumulated since the last clear.
    [[nodiscard]] const sanitize::SanitizeReport& sanitize_report() const {
        return sanitize_report_;
    }
    void clear_sanitize_report() { sanitize_report_ = {}; }

    /// Deterministic fault injection (simt::faults).  Off by default: the
    /// injector does not exist, hooks are single null-pointer checks, and
    /// KernelStats stay bit-identical to an uninstrumented device (asserted
    /// by tests, like the sanitizer's off-mode guarantee).  Installing a plan
    /// replaces any previous injector and resets its report.
    void set_fault_plan(faults::FaultPlan plan) {
        faults_ = std::make_unique<faults::FaultInjector>(std::move(plan));
        memory_.set_fault_injector(faults_.get());
    }
    void clear_fault_plan() {
        memory_.set_fault_injector(nullptr);
        faults_.reset();
    }
    /// Current injector (null when no plan is installed).  Timeline and
    /// other consumers poll this so plans installed later still apply.
    [[nodiscard]] faults::FaultInjector* fault_injector() { return faults_.get(); }
    /// Events fired/armed/suppressed since the plan was installed (an empty
    /// report when no plan is).
    [[nodiscard]] const faults::FaultReport& fault_report() const {
        static const faults::FaultReport kEmpty;
        return faults_ ? faults_->report() : kEmpty;
    }
    void clear_fault_report() {
        if (faults_) faults_->clear_report();
    }

    /// Heartbeat: a monotonically increasing tick, bumped at every launch
    /// entry and completion (and at each graph node as it settles).  A
    /// watchdog on another thread can poll this — the only Device member
    /// safe to read off the owning thread — to distinguish a device that is
    /// making progress from one that is hung.
    [[nodiscard]] std::uint64_t progress_ticks() const {
        return progress_ticks_.load(std::memory_order_relaxed);
    }

    /// What a hang handler tells a hung launch to do on each poll.
    enum class HangAction : std::uint8_t { Wait, Abort };

    /// Installed by a supervisor (gas::health watchdog): consulted every
    /// plan.hang_check_us while an injected hang holds a launch.  Returning
    /// Abort makes the launch throw StallFault immediately instead of
    /// waiting out the plan's hang_max_ms safety valve.  The handler runs on
    /// the launching thread and must not call back into the device.
    void set_hang_handler(std::function<HangAction()> handler) {
        hang_handler_ = std::move(handler);
    }

    /// Sum of modeled_ms over the kernel log (one sequential stream).
    [[nodiscard]] double total_modeled_ms() const;
    /// Sum of wall_ms over the kernel log.
    [[nodiscard]] double total_wall_ms() const;

    /// Models a host<->device transfer of `bytes` over PCIe; returns modeled
    /// milliseconds (the caller does the actual memcpy through buffers).
    [[nodiscard]] double transfer_ms(std::size_t bytes) const {
        return static_cast<double>(bytes) / (props_.pcie_bandwidth_gbps * 1e9) * 1e3;
    }

  private:
    /// The persistent worker pool (and its BlockCtx slots), created on first
    /// launch and kept for the device's lifetime: repeated launches reuse
    /// parked threads and warm shared-memory arenas instead of spawning and
    /// allocating per launch.
    ThreadPool& pool() {
        if (!pool_) pool_ = std::make_unique<ThreadPool>();
        return *pool_;
    }

    /// Pre-launch gate shared by launch() and submit(): configuration
    /// validation plus the fault-injection hooks, in that order, so a
    /// kernel refused by either never runs a block or logs stats.
    void check_launch(const LaunchConfig& cfg);
    /// Post-execution core shared by launch() and submit(): block-order
    /// aggregation of the per-block records, cost-model finalization, the
    /// kernel-log append, and the sanitize merge (strict mode throws).
    KernelStats finish_launch(const LaunchConfig& cfg,
                              std::vector<detail::BlockRecord>& records,
                              double wall_ms);

    DeviceProperties props_;
    DeviceMemory memory_;
    CostModel cost_model_;
    ThreadOrder thread_order_ = ThreadOrder::Forward;
    ExecMode exec_mode_ = exec_mode_from_env();
    unsigned host_workers_ = 1;
    std::unique_ptr<ThreadPool> pool_;
    std::vector<KernelStats> kernel_log_;
    GraphTelemetry graph_telemetry_;
    sanitize::SanitizeOptions sanitize_options_;
    sanitize::SanitizeReport sanitize_report_;
    std::unique_ptr<faults::FaultInjector> faults_;
    std::atomic<std::uint64_t> progress_ticks_{0};
    std::function<HangAction()> hang_handler_;

    void bump_progress() { progress_ticks_.fetch_add(1, std::memory_order_relaxed); }
    friend class Graph;  // graph executor publishes node-granular heartbeats
};

}  // namespace simt
