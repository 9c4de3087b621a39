#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/resilient.hpp"
#include "fleet/fleet.hpp"
#include "health/config.hpp"
#include "health/state.hpp"
#include "serve/ewma.hpp"
#include "serve/pool.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"
#include "simt/device.hpp"
#include "simt/stream.hpp"

namespace gas::serve {

/// A sampling rate low enough that make_plan and the fused kernel always
/// clamp the regular sample to its floor, one key per bucket (s = p).
/// Server sorts every keys-only batch with it: in the fused row kernel the
/// sample sort is one serial lane, so on long rows a larger sample costs
/// more than its smoother splitters save.
inline constexpr double kLeanSampleRate = 1e-3;

/// Fraction of a device's memory a batch (data + sort temporaries) may use;
/// single requests above every shard's budget degrade to the CPU path.
inline constexpr double kMemorySafetyFactor = 0.9;

struct ServerConfig {
    /// Bounded submission queue (fleet-wide, summed over shard queues).  At
    /// capacity an async submit waits for space (or for the server to stop).
    /// 0 means "admit nothing": every submit is rejected immediately (there
    /// is no space to wait for).
    std::size_t queue_capacity = 1024;

    /// Micro-batch ceilings: at most this many requests / fused arrays per
    /// device batch.  The memory budget (kMemorySafetyFactor) caps batches
    /// further.
    std::size_t max_batch_requests = 64;
    std::size_t max_batch_arrays = 8192;

    /// Stream pipeline depth for each shard's simt::Timeline overlap model
    /// (2 = double buffering).  Must be >= 1, like ooc::OocOptions.
    unsigned num_streams = 2;

    /// After waking on a non-empty queue, wait this long for more
    /// compatible requests before closing the batch (async mode only).
    /// 0 = serve whatever is queued right now.
    double linger_us = 0.0;

    /// Manual-pump mode: no scheduler threads; the caller drives batches by
    /// calling pump().  Deterministic (tests, benches).  A full queue
    /// rejects: there is no concurrent consumer to wait for.
    bool manual_pump = false;

    /// Per-request response verification (gas::resilient): expected multiset
    /// checksums are taken from the host copy while staging, and one verify
    /// kernel checks sortedness + checksum per row after the device sort.  A
    /// request with any failing row is quarantined — its response comes from
    /// a solo host re-sort of the original input, never the suspect device
    /// bytes.  Off by default: no extra kernel, bit-identical responses.
    bool verify_responses = false;

    /// Retry policy for transient device errors (gas::resilient::transient):
    /// a failed fused batch is re-staged from the intact host copies and
    /// re-executed with modeled backoff; after max_attempts the batch is
    /// re-routed to a surviving device (fleet) or quarantined to the host
    /// path (last device standing).  Also drives acquire-side allocation
    /// retries (pool trim between attempts).
    gas::resilient::RetryPolicy retry{};

    /// An idle shard may steal up to this many queued requests at a time
    /// from the most loaded peer.  0 disables work stealing.
    std::size_t max_steal_requests = 8;

    /// Closed-loop health subsystem (gas::health): per-shard watchdog + hang
    /// handler, the Healthy/Degraded/Quarantined/Probation state machine
    /// with probe-sort re-admission, and priority shedding when the queue is
    /// full.  Disabled by default: with health.enabled false the server
    /// behaves bit-for-bit like the pre-health server (one-way quarantine,
    /// blocking admission, no watchdog thread, no hang handlers installed).
    gas::health::HealthConfig health{};
};

/// Asynchronous batch-sort service over a fleet of simulated devices.
///
/// Concurrent callers submit() jobs into a bounded priority queue.  Each
/// request is placed on the least loaded device of the fleet
/// (fleet::least_loaded; arrays are independent, so placement moves load,
/// never bytes) and lands in that shard's queue.  Each shard runs one
/// scheduler thread — the only toucher of its simt::Device, whose launch
/// path is single-caller by contract — which coalesces compatible neighbours
/// (same job kind, the same row length n for uniform and pair jobs, and the
/// same options the fused kernel reads) into fused micro-batches.  Every batch is one row
/// table sorted by one call of the fused CSR kernel (sort_ragged_on_device,
/// or sort_ragged_pairs_on_device for two planes), with data staged in
/// pooled device buffers (serve::BufferPool, one per shard) and modeled H2D/compute/D2H
/// overlap tracked on a per-shard multi-stream simt::Timeline.  Keys-only
/// batches (uniform and ragged) sort with kLeanSampleRate in place of the
/// submitted sampling rate: the fused kernel sorts its regular sample in one
/// serial lane, which a 10% sample makes the long pole on long rows.  Pair
/// batches keep their submitted options, since key-equal payload order
/// depends on the splitters.  An idle
/// shard steals bounded runs of queued requests from its most loaded peer,
/// so a burst routed to one device spreads across the fleet.  Constructing
/// from a single simt::Device& is the N=1 degenerate fleet: identical
/// behaviour and API to the pre-fleet server.
///
/// Robustness: admission control (a full queue blocks async submitters and
/// rejects under manual pump), per-request deadlines (expired jobs complete
/// as TimedOut, at submit or in queue), cancel() for queued jobs, and
/// graceful degradation — a request no device can serve (footprint above
/// the memory budget, or a row too large for the fused kernels' shared
/// staging) runs on the host CPU path instead of failing, and never aborts
/// the batch it was queued with.
///
/// Resilience (gas::resilient): transient device errors — allocation
/// failures, refused launches, detected corruption, failed verification —
/// retry the fused batch per ServerConfig::retry (host copies are untouched
/// until copy-back, so every attempt re-stages clean data).  Exhausted
/// retries mean the device is gone: with surviving peers the shard is
/// quarantined — removed from routing — and its batch plus everything still
/// queued on it re-routes to the survivors, whose re-execution from the
/// intact host copies yields byte-identical responses; the last live device
/// instead quarantines the batch to solo host re-sorts, exactly the
/// single-device behaviour.  With verify_responses on, each request's rows
/// are individually checked (sortedness + multiset checksum vs the
/// pre-staging host data) and only failing requests are quarantined — their
/// batchmates are served normally.  ServerStats counts retries, quarantines,
/// steals, re-routes and device losses, with a per-device breakdown.
///
/// Fusion preserves results.  The fused kernel (detail::fused_sort) sorts
/// one row per block with no inter-row coupling: splitters, bucket counts
/// and bucket offsets stay in that block's shared memory.  K compatible
/// requests concatenated into one row table therefore give each request
/// exactly the bytes a direct gpu_ragged_sort / gpu_ragged_pair_sort of it
/// (with the batch's effective options) would have given, on any device of
/// the fleet, while paying one launch instead of K.  A sorted key row has
/// one byte pattern (short of -0.0 and +0.0 in one row), so uniform
/// requests also get the bytes of a direct gas::gpu_array_sort.
/// tests/serve/test_batch.cpp, the uniform table test in
/// tests/serve/test_server.cpp and the served-vs-direct kernel-log test in
/// tests/tune/test_tune.cpp assert it.
class Server {
  public:
    struct Ticket {
        std::uint64_t id = 0;
        std::future<Response> result;
    };

    /// Single-device server (the N=1 degenerate fleet).  The server borrows
    /// the device for its lifetime: no other code may launch kernels or
    /// allocate device memory until stop()/destruction.
    explicit Server(simt::Device& device, ServerConfig cfg = {});

    /// Fleet server: one shard (queue, BufferPool, Timeline, scheduler
    /// thread) per device.  The fleet must outlive the server; the same
    /// borrow-for-lifetime rule applies to every device in it.
    explicit Server(gas::fleet::DeviceFleet& fleet, ServerConfig cfg = {});

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;
    ~Server();  ///< stop(/*cancel_pending=*/false): drains, then joins

    /// Submits a job.  Returns a ticket whose future resolves to the
    /// Response (including rejections — the future always resolves).
    /// Throws std::invalid_argument for malformed jobs (undersized buffers,
    /// non-ascending offsets).
    Ticket submit(Job job);

    /// Removes a still-queued request; true on success, false when it
    /// already started (or finished) service.
    bool cancel(std::uint64_t id);

    /// Blocks until the queue is empty and no batch is in flight.  In
    /// manual-pump mode this simply pumps until empty.
    void drain();

    /// Stops the schedulers.  cancel_pending=false serves everything still
    /// queued first (graceful drain); true completes queued requests as
    /// Cancelled without executing them.  Idempotent.
    void stop(bool cancel_pending = false);

    /// Manual-pump mode: serve queued requests now; returns requests
    /// retired.  Round-robins the shards, each stealing when its own queue
    /// is empty and then taking one step() per pass — the same step a
    /// scheduler thread takes — until every queue is drained.  Throws
    /// std::logic_error when the server runs scheduler threads.
    std::size_t pump();

    [[nodiscard]] ServerStats stats() const;
    [[nodiscard]] std::string stats_json() const { return stats().to_json(); }
    [[nodiscard]] const ServerConfig& config() const { return cfg_; }
    [[nodiscard]] std::size_t num_devices() const { return shards_.size(); }

  private:
    struct Shard;

    struct Pending {
        std::uint64_t id = 0;
        Job job;
        std::promise<Response> promise;
        Clock::time_point submitted_at{};
        std::size_t arrays = 0;    ///< fused-array count this job contributes
        std::size_t elements = 0;  ///< total values (cost-share weight)
        /// Queue occupancy observed at admission (backpressure signal,
        /// copied into the Response on every completion path).
        double backpressure = 0.0;
    };
    using PendingPtr = std::unique_ptr<Pending>;

    static constexpr std::size_t kPriorities = 3;

    /// One device's slice of the server: queue, pool, overlap timeline and
    /// (async mode) scheduler thread.  Queue fields and `breakdown` are
    /// guarded by the server-wide mutex_; `queued` and `queued_elements`
    /// (and the fleet-wide queued_) change only through the queue ledger
    /// (enqueue_locked, unqueue_locked, drain_queues_locked).  Pool and
    /// timeline are touched by the owning scheduler (timeline mutations
    /// happen under mutex_ so stats() can fold all shards).
    struct Shard {
        Shard(std::size_t idx, simt::Device& dev, unsigned streams);

        std::size_t index;
        simt::Device* device;
        std::size_t memory_budget;
        BufferPool pool;
        simt::Timeline timeline;
        std::deque<PendingPtr> queue[kPriorities];
        std::size_t queued = 0;
        std::size_t queued_elements = 0;
        std::size_t in_flight = 0;
        bool quarantined = false;
        DeviceBreakdown breakdown;

        // gas::health wiring (all inert with health.enabled off).
        gas::health::Machine health;  ///< per-device state machine (mutex_)
        /// EWMA of queued_elements (kEwmaAlpha), the smoothed_load
        /// fleet::least_loaded's anti-flap ranking reads (mutex_).
        Ewma load_ewma;
        /// Set by the watchdog when the device heartbeat stalls past the
        /// deadline; read lock-free by the hang handler (abort the hung
        /// launch) and cleared when progress resumes or a batch finishes.
        std::atomic<bool> stall_flag{false};
        std::uint64_t probe_count = 0;  ///< probe seed stream (owning thread)
        // Watchdog bookkeeping (watchdog thread only, under mutex_).
        std::uint64_t hb_last_ticks = 0;
        Clock::time_point hb_last_change{};

        std::thread scheduler;
    };

    Server(ServerConfig cfg, gas::fleet::DeviceFleet* fleet,
           std::unique_ptr<gas::fleet::DeviceFleet> owned);

    void scheduler_main(Shard& shard);
    /// One scheduling step on `shard`: take a batch, finish the requests
    /// that timed out on the way, and serve the batch (marked in flight
    /// while it runs).  Called with `lk` (on mutex_) held; releases it for
    /// the work and returns with it held again.  Returns the requests
    /// retired.  pump() and scheduler_main() decide only when to step.
    std::size_t step(Shard& shard, std::unique_lock<std::mutex>& lk);
    /// The queue ledger (lock held): the only writers of Shard::queued,
    /// Shard::queued_elements and queued_.  enqueue_locked appends to the
    /// shard's queue for the request's priority; unqueue_locked removes `*it`
    /// from `q` (one of the shard's queues), moves `it` to the next element
    /// and returns the request; drain_queues_locked empties every queue of
    /// the shard in priority order.
    void enqueue_locked(Shard& shard, PendingPtr p);
    PendingPtr unqueue_locked(Shard& shard, std::deque<PendingPtr>& q,
                              std::deque<PendingPtr>::iterator& it);
    std::vector<PendingPtr> drain_queues_locked(Shard& shard);
    /// Places a job on a shard index (lock held).  Falls back to id % N
    /// when nothing is live (all-devices-lost host path).
    [[nodiscard]] std::size_t route_locked(const Pending& p) const;
    /// True when `thief` could steal at least one request right now.
    [[nodiscard]] bool steal_candidate_locked(const Shard& thief) const;
    /// Moves up to cfg_.max_steal_requests requests from the most loaded
    /// peer into `thief`; returns how many moved (lock held).
    std::size_t steal_into_locked(Shard& thief);
    /// Pops one batch worth of compatible requests from the shard's queue
    /// (lock held).  Expired requests encountered on the way complete as
    /// TimedOut into `expired`.
    std::vector<PendingPtr> take_batch(Shard& shard, std::vector<PendingPtr>& expired);
    void serve_batch(Shard& shard, std::vector<PendingPtr> batch);
    /// Runs one fused batch of any kind over its row table: stage, sort,
    /// verify, copy back or quarantine each request, release.
    void execute_batch(Shard& shard, std::vector<PendingPtr>& batch);
    void run_cpu_fallback(Pending& p, bool quarantined = false);
    /// Completes a request without serving it (rejected, timed out,
    /// cancelled, shed, failed, or empty): its input goes back as submitted
    /// with `status` and `why`.  Never call with mutex_ held; counters are
    /// the call sites' job.
    void finish_unserved(Pending& p, Status status, const std::string& why);
    /// Completes verification-failed requests as solo host re-sorts (the
    /// suspect device bytes are never copied back).
    void quarantine_failed(std::vector<PendingPtr>& victims);
    /// Device loss: quarantines the shard and re-homes its batch + queue on
    /// surviving shards; the last live device host-serves the batch instead.
    void quarantine_and_reroute(Shard& shard, std::vector<PendingPtr>& batch);
    void fail_batch(std::vector<PendingPtr>& batch, const std::string& why);
    void finish_batch(Shard& shard, std::vector<PendingPtr>& batch, double h2d_ms,
                      double d2h_ms, double kernel_ms, Clock::time_point service_start);
    [[nodiscard]] bool needs_cpu_fallback(const Shard& shard, const Job& job) const;
    [[nodiscard]] BufferPool::Lease acquire_or_trim(Shard& shard, std::size_t bytes);

    // gas::health internals (all no-ops / pass-throughs with health off).
    /// Samples the shard's queue-depth EWMA (stats) and, with health on, its
    /// queued-elements EWMA (placement's smoothed_load).  Lock held.
    void sample_load_locked(Shard& shard);
    /// Queue-full admission under health shedding: drops the oldest queued
    /// request of the least important non-empty class at or below the
    /// newcomer's priority (into `victim`), making room.  Returns false when
    /// everything queued outranks the newcomer — the newcomer itself sheds.
    /// Lock held.
    bool shed_for_admission_locked(Priority incoming, PendingPtr& victim);
    /// One probe-sort cycle against a quarantined shard's device.  Must run
    /// on the device-owning thread (scheduler, or the pump caller); takes
    /// mutex_ internally for the state-machine transition.
    void run_probe_cycle(Shard& shard);
    /// Watchdog thread body: heartbeat stall detection.
    void watchdog_main();

    std::unique_ptr<gas::fleet::DeviceFleet> owned_fleet_;  ///< Device& ctor only
    gas::fleet::DeviceFleet* fleet_;
    ServerConfig cfg_;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex mutex_;
    std::condition_variable queue_cv_;  ///< schedulers wait for work
    std::condition_variable space_cv_;  ///< async submitters wait here for space
    std::condition_variable idle_cv_;   ///< drain() waits here
    std::size_t queued_ = 0;     ///< fleet-wide, sum of shard queues
    std::size_t in_flight_ = 0;  ///< fleet-wide, sum of shard batches
    bool stopping_ = false;
    bool cancel_pending_ = false;
    std::uint64_t next_id_ = 1;
    std::uint64_t next_batch_id_ = 1;

    // gas::health (all guarded by mutex_ unless noted).
    HealthStats hstats_;
    std::condition_variable watchdog_cv_;
    std::thread watchdog_;  ///< started only with health on, async mode

    // Guarded by mutex_.
    ServerStats stats_;
    LatencyDigest queue_wait_digest_;
    LatencyDigest wall_digest_;
    LatencyDigest modeled_digest_;
};

}  // namespace gas::serve
