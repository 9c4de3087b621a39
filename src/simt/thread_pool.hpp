#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "simt/kernel.hpp"

namespace simt {

/// Persistent host worker pool backing Device::launch.
///
/// Spawning and joining a std::thread per launch costs tens of microseconds —
/// often more than simulating a small grid — and one GPU-ArraySort run issues
/// dozens of launches (the STA baseline issues 3 kernels x 8 passes per sort).
/// The pool parks workers on a condition variable between launches and binds
/// each worker to a stable execution slot whose BlockCtx (including its
/// shared-memory arena) is reused across launches, so a steady-state launch
/// costs one wakeup instead of thread creation plus a 48 KB allocation.
///
/// Determinism contract: the pool only decides *which worker* runs which
/// block; everything observable (per-block cost records, aggregation order,
/// slot numbering) is keyed by block id / worker id in Device::launch exactly
/// as it was with per-launch threads, so KernelStats are bit-identical for
/// any worker count.
class ThreadPool {
  public:
    ThreadPool() = default;
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;
    ~ThreadPool();

    /// Runs task(worker) for worker = 0..workers-1 and blocks until every
    /// call returns.  Worker 0 runs on the calling thread; the rest run on
    /// pool threads, spawned lazily on first use and kept for later runs.
    /// The first exception thrown by any worker (caller included) is
    /// rethrown here after all workers have stopped — identical semantics to
    /// the old spawn-and-join pool.  Not reentrant: one run at a time
    /// (Device::launch, the only caller, is itself not thread-safe).
    void run(unsigned workers, const std::function<void(unsigned)>& task);

    /// The BlockCtx bound to execution slot `worker`.  During a run, slot w
    /// is touched only by worker w, so no locking is needed; slots are
    /// created up front by reserve_slots()/run() on the calling thread.
    [[nodiscard]] BlockCtx& block_ctx(unsigned worker) { return *slots_[worker]; }

    /// Ensures ctx slots [0, workers) exist.  Must not overlap a run().
    void reserve_slots(unsigned workers);

    /// Pool threads currently alive (excludes the caller; grows on demand).
    [[nodiscard]] unsigned threads() const { return static_cast<unsigned>(threads_.size()); }

    /// Times run() has woken the pool threads: one per multi-worker run (a
    /// 1-worker run executes inline and wakes nobody).  Safe from any thread.
    [[nodiscard]] std::uint64_t wakes() const {
        const std::scoped_lock lock(mutex_);
        return generation_;
    }

  private:
    void worker_main(unsigned index);
    void ensure_threads(unsigned count);

    std::vector<std::thread> threads_;
    std::vector<std::unique_ptr<BlockCtx>> slots_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;  ///< workers wait here for a new job
    std::condition_variable done_cv_;  ///< run() waits here for completion
    const std::function<void(unsigned)>* task_ = nullptr;
    std::uint64_t generation_ = 0;  ///< bumped once per run(); wakes workers
    unsigned participants_ = 0;     ///< pool threads drafted into the current run
    unsigned remaining_ = 0;        ///< drafted pool threads still working
    std::exception_ptr failure_;
    bool stopping_ = false;
};

}  // namespace simt
