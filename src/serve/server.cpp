#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "core/pair_sort.hpp"
#include "core/ragged_sort.hpp"
#include "fleet/router.hpp"
#include "health/probe.hpp"

namespace gas::serve {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Two jobs can share a fused batch: same kind, same row length for uniform
/// and pair jobs, and the same options the fused kernel reads (anything that
/// changes splitters, bucketing or the in-bucket sort).  validate and
/// collect_bucket_sizes are server-owned and deliberately excluded.
bool compatible(const Job& a, const Job& b) {
    if (a.kind != b.kind) return false;
    if (a.kind != JobKind::Ragged && a.array_size != b.array_size) return false;
    const Options& x = a.opts;
    const Options& y = b.opts;
    return x.bucket_target == y.bucket_target && x.sampling_rate == y.sampling_rate &&
           x.order == y.order && x.hybrid_phase3 == y.hybrid_phase3 &&
           x.phase3_small_cutoff == y.phase3_small_cutoff &&
           x.phase3_bitonic_cutoff == y.phase3_bitonic_cutoff;
}

/// Queue-depth EWMA update (DeviceBreakdown::queue_depth_ewma), sampled at
/// every enqueue and batch take.
void sample_queue_depth(DeviceBreakdown& d, std::size_t depth) {
    d.queue_depth_ewma = ewma_step(d.queue_depth_ewma, static_cast<double>(depth));
}

bool expired(const Job& job, Clock::time_point now) {
    return job.deadline.has_value() && *job.deadline <= now;
}

std::size_t job_arrays(const Job& job) {
    if (job.kind == JobKind::Ragged) {
        return job.offsets.size() < 2 ? 0 : job.offsets.size() - 1;
    }
    return job.num_arrays;
}

std::size_t job_elements(const Job& job) {
    if (job.kind == JobKind::Ragged) {
        return job.offsets.size() < 2
                   ? 0
                   : static_cast<std::size_t>(job.offsets.back() - job.offsets.front());
    }
    return job.num_arrays * job.array_size;
}

/// Device planes a job stages: pairs carry their payload beside the keys.
std::size_t job_planes(const Job& job) { return job.kind == JobKind::Pairs ? 2 : 1; }

/// Where a job's rows start in its host buffers (a CSR table may begin past
/// element 0).
std::size_t host_base(const Job& job) {
    return job.kind == JobKind::Ragged ? static_cast<std::size_t>(job.offsets.front()) : 0;
}

/// Device bytes a fused batch of `head`'s kind occupies with `elements`
/// values in all: the fused kernel keeps splitters, counts and offsets in
/// shared memory, so a batch needs only its pooled data planes.
std::size_t batch_bytes(const Job& head, std::size_t elements) {
    return job_planes(head) * BufferPool::class_bytes(elements * sizeof(float));
}

void validate_job(const Job& job) {
    switch (job.kind) {
        case JobKind::Uniform:
            if (job.values.size() < job.num_arrays * job.array_size) {
                throw std::invalid_argument("serve: uniform job values smaller than N x n");
            }
            break;
        case JobKind::Pairs:
            if (job.values.size() < job.num_arrays * job.array_size ||
                job.payload.size() < job.num_arrays * job.array_size) {
                throw std::invalid_argument("serve: pair job buffers smaller than N x n");
            }
            break;
        case JobKind::Ragged: {
            for (std::size_t i = 1; i < job.offsets.size(); ++i) {
                if (job.offsets[i] < job.offsets[i - 1]) {
                    throw std::invalid_argument("serve: ragged offsets not ascending");
                }
            }
            if (!job.offsets.empty() && job.values.size() < job.offsets.back()) {
                throw std::invalid_argument("serve: ragged values smaller than offsets");
            }
            break;
        }
    }
}

/// Host comparison mirroring the device's key order.
struct KeyLess {
    bool descending = false;
    bool operator()(float a, float b) const { return descending ? a > b : a < b; }
};

}  // namespace

Server::Shard::Shard(std::size_t idx, simt::Device& dev, unsigned streams)
    : index(idx),
      device(&dev),
      memory_budget(static_cast<std::size_t>(
          static_cast<double>(dev.memory().capacity()) * kMemorySafetyFactor)),
      pool(dev.memory()),
      timeline(std::max(1u, streams)) {
    breakdown.name = "dev" + std::to_string(idx);
    // Engine stalls from an injected fault plan (simt::faults) show up in the
    // overlap model; plans installed after construction still apply.
    timeline.attach_faults(dev);
}

Server::Server(simt::Device& device, ServerConfig cfg)
    : Server(cfg, nullptr, std::make_unique<gas::fleet::DeviceFleet>(device)) {}

Server::Server(gas::fleet::DeviceFleet& devices, ServerConfig cfg)
    : Server(cfg, &devices, nullptr) {}

Server::Server(ServerConfig cfg, gas::fleet::DeviceFleet* f,
               std::unique_ptr<gas::fleet::DeviceFleet> owned)
    : owned_fleet_(std::move(owned)),
      fleet_(f != nullptr ? f : owned_fleet_.get()),
      cfg_(cfg) {
    if (cfg_.num_streams == 0) {
        throw std::invalid_argument("serve::Server: 0 streams");
    }
    if (cfg_.max_batch_requests == 0 || cfg_.max_batch_arrays == 0) {
        throw std::invalid_argument("serve::Server: batch ceilings must be >= 1");
    }
    shards_.reserve(fleet_->size());
    for (std::size_t i = 0; i < fleet_->size(); ++i) {
        shards_.push_back(std::make_unique<Shard>(i, fleet_->device(i), cfg_.num_streams));
    }
    if (cfg_.health.enabled) {
        for (auto& s : shards_) {
            s->health = gas::health::Machine(cfg_.health);
            Shard* sp = s.get();
            // Hung launches (simt fault injection, or a real stall in a live
            // backend) poll this handler.  Async mode waits for the watchdog
            // to flag the stall; manual_pump has no watchdog thread, so the
            // hang aborts deterministically on the first poll.
            s->device->set_hang_handler([this, sp] {
                if (cfg_.manual_pump) {
                    std::lock_guard lk(mutex_);
                    ++hstats_.hangs_detected;
                    return simt::Device::HangAction::Abort;
                }
                return sp->stall_flag.load(std::memory_order_relaxed)
                           ? simt::Device::HangAction::Abort
                           : simt::Device::HangAction::Wait;
            });
        }
    }
    if (!cfg_.manual_pump) {
        for (auto& s : shards_) {
            s->scheduler = std::thread(&Server::scheduler_main, this, std::ref(*s));
        }
        if (cfg_.health.enabled) {
            watchdog_ = std::thread(&Server::watchdog_main, this);
        }
    }
}

Server::~Server() { stop(/*cancel_pending=*/false); }

Server::Ticket Server::submit(Job job) {
    validate_job(job);
    const auto now = Clock::now();

    auto pending = std::make_unique<Pending>();
    pending->job = std::move(job);
    pending->submitted_at = now;
    pending->arrays = job_arrays(pending->job);
    pending->elements = job_elements(pending->job);

    Ticket ticket;
    ticket.result = pending->promise.get_future();

    PendingPtr shed_victim;  ///< overflow-shed casualty, completed after unlock
    std::unique_lock lk(mutex_);
    // Completes the newcomer without queueing it.
    auto respond = [&](Status status, const char* why) {
        lk.unlock();
        finish_unserved(*pending, status, why);
        return std::move(ticket);
    };
    pending->id = next_id_++;
    ticket.id = pending->id;
    ++stats_.submitted;
    pending->backpressure =
        cfg_.queue_capacity > 0
            ? static_cast<double>(queued_) / static_cast<double>(cfg_.queue_capacity)
            : 1.0;

    if (stopping_) {
        ++stats_.rejected;
        return respond(Status::Rejected, "server stopped");
    }
    if (expired(pending->job, now)) {
        ++stats_.timed_out;
        return respond(Status::TimedOut, "deadline expired at submit");
    }
    if (pending->elements == 0) {  // nothing to sort: complete right away
        ++stats_.accepted;
        ++stats_.completed;
        return respond(Status::Ok, "");
    }
    if (cfg_.queue_capacity == 0) {
        ++stats_.rejected;
        return respond(Status::Rejected, "queue capacity is 0");
    }
    if (queued_ >= cfg_.queue_capacity) {
        if (cfg_.health.enabled) {
            // Overload protection replaces block/reject: drop the oldest
            // queued request of the least important class at or below the
            // newcomer's priority.  When everything queued outranks the
            // newcomer, the newcomer itself is the drop.
            ++stats_.shed;
            if (!shed_for_admission_locked(pending->job.priority, shed_victim)) {
                return respond(Status::Shed, "shed: queue full");
            }
        } else if (cfg_.manual_pump) {
            ++stats_.rejected;
            return respond(Status::Rejected, "queue full");
        } else {
            space_cv_.wait(lk,
                           [&] { return queued_ < cfg_.queue_capacity || stopping_; });
            if (stopping_) {
                ++stats_.rejected;
                return respond(Status::Rejected, "server stopped");
            }
        }
    }

    ++stats_.accepted;
    Shard& shard = *shards_[route_locked(*pending)];
    ++shard.breakdown.routed;
    enqueue_locked(shard, std::move(pending));
    sample_load_locked(shard);
    stats_.queue_peak = std::max(stats_.queue_peak, queued_);
    lk.unlock();
    if (shed_victim) {
        finish_unserved(*shed_victim, Status::Shed, "shed: displaced under overload");
    }
    // All shard schedulers share one cv; wake them all so the routed (or a
    // steal-capable) one runs.
    queue_cv_.notify_all();
    return ticket;
}

std::size_t Server::route_locked(const Pending& p) const {
    std::vector<fleet::ShardLoad> loads;
    loads.reserve(shards_.size());
    for (const auto& s : shards_) {
        fleet::ShardLoad l;
        l.queued_elements = s->queued_elements;
        l.live = !s->quarantined;
        l.eligible = l.live && !needs_cpu_fallback(*s, p.job);
        if (cfg_.health.enabled) {
            // Anti-flap ranking + probation/degraded traffic shaping; with
            // health off the ShardLoad defaults reproduce raw ranking.
            l.smoothed_load = s->load_ewma.value;
            l.weight = s->health.route_weight();
        }
        loads.push_back(l);
    }
    const std::size_t target = fleet::least_loaded(loads);
    // The all-devices-lost sentinel is unreachable (the last live device is
    // never quarantined); spread by request id defensively if it ever shows
    // up — a quarantined shard's scheduler host-serves its queue.
    return target < shards_.size() ? target
                                   : static_cast<std::size_t>(p.id % shards_.size());
}

bool Server::steal_candidate_locked(const Shard& thief) const {
    if (cfg_.max_steal_requests == 0 || thief.quarantined || thief.queued > 0) {
        return false;
    }
    for (const auto& sp : shards_) {
        const Shard& victim = *sp;
        if (&victim == &thief || victim.queued == 0) continue;
        for (const auto& q : victim.queue) {
            if (!q.empty() && !needs_cpu_fallback(thief, q.back()->job)) return true;
        }
    }
    return false;
}

std::size_t Server::steal_into_locked(Shard& thief) {
    if (cfg_.max_steal_requests == 0 || thief.quarantined || thief.queued > 0) {
        return 0;
    }
    // Victims in descending load order; one victim supplies the whole steal.
    std::vector<Shard*> victims;
    for (auto& sp : shards_) {
        if (sp.get() != &thief && sp->queued > 0) victims.push_back(sp.get());
    }
    std::sort(victims.begin(), victims.end(), [](const Shard* a, const Shard* b) {
        return a->queued_elements > b->queued_elements;
    });
    std::size_t moved = 0;
    for (Shard* victim : victims) {
        // Take from the back of the lowest-priority queues first: the work
        // the victim would reach last is the cheapest to relocate.
        for (std::size_t pr = kPriorities; pr-- > 0;) {
            auto& q = victim->queue[pr];
            while (!q.empty() && moved < cfg_.max_steal_requests &&
                   !needs_cpu_fallback(thief, q.back()->job)) {
                auto last = std::prev(q.end());
                enqueue_locked(thief, unqueue_locked(*victim, q, last));
                ++victim->breakdown.steals_out;
                ++thief.breakdown.steals_in;
                ++stats_.steals;
                ++moved;
            }
        }
        if (moved > 0) break;
    }
    return moved;
}

bool Server::cancel(std::uint64_t id) {
    PendingPtr victim;
    {
        std::lock_guard lk(mutex_);
        for (auto& sp : shards_) {
            for (auto& q : sp->queue) {
                for (auto it = q.begin(); it != q.end(); ++it) {
                    if ((*it)->id == id) {
                        victim = unqueue_locked(*sp, q, it);
                        ++stats_.cancelled;
                        break;
                    }
                }
                if (victim) break;
            }
            if (victim) break;
        }
        if (victim && stopping_ && queued_ == 0) queue_cv_.notify_all();
    }
    if (!victim) return false;
    space_cv_.notify_one();
    finish_unserved(*victim, Status::Cancelled, "cancelled");
    return true;
}

void Server::drain() {
    if (cfg_.manual_pump) {
        pump();
        return;
    }
    std::unique_lock lk(mutex_);
    idle_cv_.wait(lk, [&] { return queued_ == 0 && in_flight_ == 0; });
}

void Server::stop(bool cancel_pending) {
    {
        std::lock_guard lk(mutex_);
        bool any_joinable = false;
        for (const auto& s : shards_) any_joinable |= s->scheduler.joinable();
        if (stopping_ && !any_joinable && queued_ == 0) return;
        stopping_ = true;
        cancel_pending_ = cancel_pending;
    }
    queue_cv_.notify_all();
    space_cv_.notify_all();
    watchdog_cv_.notify_all();
    if (watchdog_.joinable()) watchdog_.join();
    bool joined = false;
    for (auto& s : shards_) {
        if (s->scheduler.joinable()) {
            s->scheduler.join();
            joined = true;
        }
    }
    if (!joined && cfg_.manual_pump && !cancel_pending) {
        // Graceful manual stop: serve what is still queued.
        while (pump() > 0) {}
    }
    // Cancel anything left (async cancel_pending exits the schedulers with
    // the queues intact; manual cancel_pending never served them).
    std::vector<PendingPtr> leftovers;
    {
        std::lock_guard lk(mutex_);
        for (auto& sp : shards_) {
            for (auto& p : drain_queues_locked(*sp)) leftovers.push_back(std::move(p));
        }
        stats_.cancelled += leftovers.size();
    }
    for (auto& p : leftovers) {
        finish_unserved(*p, Status::Cancelled, "server stopped with request still queued");
    }
    if (cfg_.health.enabled) {
        // The handlers capture `this`; drop them before the server goes away
        // (the devices outlive it).  No launches are possible here — the
        // schedulers are joined and manual mode has no other device toucher.
        for (auto& s : shards_) s->device->set_hang_handler({});
    }
    idle_cv_.notify_all();
}

std::size_t Server::pump() {
    if (!cfg_.manual_pump) {
        throw std::logic_error("serve::Server::pump: server runs its own scheduler threads");
    }
    // One probe per quarantined shard per pump() call: the deterministic
    // stand-in for the async probe timer.  Probes run before serving so a
    // freshly re-admitted (Probation) shard participates in this pump.
    if (cfg_.health.enabled) {
        for (auto& sp : shards_) {
            bool probe = false;
            {
                std::lock_guard lk(mutex_);
                probe = sp->quarantined;
            }
            if (probe) run_probe_cycle(*sp);
        }
    }
    // One step per shard per pass mirrors the scheduler-thread cadence:
    // shards drain their own queues in lockstep (overlapping in the model),
    // and an empty shard steals before stepping.
    std::unique_lock lk(mutex_);
    std::size_t retired = 0;
    for (;;) {
        std::size_t pass = 0;
        for (auto& sp : shards_) {
            steal_into_locked(*sp);
            pass += step(*sp, lk);
        }
        if (pass == 0) break;
        retired += pass;
    }
    return retired;
}

void Server::scheduler_main(Shard& shard) {
    std::unique_lock lk(mutex_);
    // A stopping scheduler exits only once no batch is in flight anywhere: a
    // peer whose device is lost re-homes its in-flight batch into the
    // survivors' queues, and a survivor that had already exited would leave
    // those requests (and stop()) waiting forever.
    const auto finished = [&] {
        return stopping_ && (cancel_pending_ || (queued_ == 0 && in_flight_ == 0));
    };
    for (;;) {
        if (cfg_.health.enabled && shard.quarantined && !finished()) {
            // Quarantined: nothing is routed here, so instead of parking on
            // the work predicate, wake on the probe timer and run seeded
            // probe sorts until the state machine re-admits the device.
            queue_cv_.wait_for(lk, std::chrono::duration<double, std::milli>(
                                       gas::health::kProbeIntervalMs));
            if (finished()) break;
            if (shard.quarantined) {
                lk.unlock();
                run_probe_cycle(shard);
                lk.lock();
            }
            continue;
        }
        queue_cv_.wait(lk, [&] {
            if (finished()) return true;
            if (cfg_.health.enabled && shard.quarantined) return true;  // go probe
            return shard.queued > 0 || steal_candidate_locked(shard);
        });
        if (finished()) break;
        if (cfg_.health.enabled && shard.quarantined) continue;
        if (shard.queued == 0 && steal_into_locked(shard) == 0) continue;
        if (cfg_.linger_us > 0.0 && !stopping_ &&
            shard.queued < cfg_.max_batch_requests) {
            // Best-effort coalescing window: let a concurrent burst land
            // before the batch is closed.
            queue_cv_.wait_for(lk, std::chrono::duration<double, std::micro>(cfg_.linger_us));
        }
        step(shard, lk);
        // Wake peers blocked on the stop predicate once the last queued or
        // in-flight request retires (no other notify would come).
        if (finished()) queue_cv_.notify_all();
    }
}

std::size_t Server::step(Shard& shard, std::unique_lock<std::mutex>& lk) {
    std::vector<PendingPtr> timed_out;
    auto batch = take_batch(shard, timed_out);
    stats_.timed_out += timed_out.size();
    shard.in_flight = batch.size();
    in_flight_ += batch.size();
    lk.unlock();
    space_cv_.notify_all();

    const std::size_t retired = batch.size() + timed_out.size();
    for (auto& p : timed_out) {
        finish_unserved(*p, Status::TimedOut, "deadline expired in queue");
    }
    if (!batch.empty()) serve_batch(shard, std::move(batch));

    lk.lock();
    in_flight_ -= shard.in_flight;
    shard.in_flight = 0;
    if (queued_ == 0 && in_flight_ == 0) idle_cv_.notify_all();
    return retired;
}

void Server::enqueue_locked(Shard& shard, PendingPtr p) {
    ++shard.queued;
    shard.queued_elements += p->elements;
    ++queued_;
    shard.queue[static_cast<std::size_t>(p->job.priority)].push_back(std::move(p));
}

Server::PendingPtr Server::unqueue_locked(Shard& shard, std::deque<PendingPtr>& q,
                                          std::deque<PendingPtr>::iterator& it) {
    PendingPtr p = std::move(*it);
    it = q.erase(it);
    --shard.queued;
    shard.queued_elements -= p->elements;
    --queued_;
    return p;
}

std::vector<Server::PendingPtr> Server::drain_queues_locked(Shard& shard) {
    std::vector<PendingPtr> all;
    for (auto& q : shard.queue) {
        for (auto it = q.begin(); it != q.end();) all.push_back(unqueue_locked(shard, q, it));
    }
    return all;
}

std::vector<Server::PendingPtr> Server::take_batch(Shard& shard,
                                                   std::vector<PendingPtr>& timed_out) {
    const auto now = Clock::now();
    std::vector<PendingPtr> batch;

    // Head: first live request in priority order.
    for (auto& q : shard.queue) {
        while (!q.empty() && batch.empty()) {
            auto front = q.begin();
            PendingPtr head = unqueue_locked(shard, q, front);
            if (expired(head->job, now)) {
                timed_out.push_back(std::move(head));
            } else {
                batch.push_back(std::move(head));
            }
        }
        if (!batch.empty()) break;
    }
    if (batch.empty()) {
        sample_load_locked(shard);
        return batch;
    }

    const Job& head = batch.front()->job;
    // A fallback-bound request is served alone: it never joins a device
    // batch and nothing can ride with it.
    if (needs_cpu_fallback(shard, head)) return batch;

    std::size_t total_arrays = batch.front()->arrays;
    std::size_t total_elements = batch.front()->elements;

    auto fits_memory = [&](std::size_t elements) {
        return batch_bytes(head, elements) <= shard.memory_budget;
    };

    for (auto& q : shard.queue) {
        auto it = q.begin();
        while (it != q.end() && batch.size() < cfg_.max_batch_requests) {
            Pending& cand = **it;
            if (expired(cand.job, now)) {
                timed_out.push_back(unqueue_locked(shard, q, it));
                continue;
            }
            if (!compatible(head, cand.job) || needs_cpu_fallback(shard, cand.job) ||
                total_arrays + cand.arrays > cfg_.max_batch_arrays ||
                !fits_memory(total_elements + cand.elements)) {
                ++it;  // stays queued; will head its own batch later
                continue;
            }
            total_arrays += cand.arrays;
            total_elements += cand.elements;
            batch.push_back(unqueue_locked(shard, q, it));
        }
        if (batch.size() >= cfg_.max_batch_requests) break;
    }
    sample_load_locked(shard);
    return batch;
}

bool Server::needs_cpu_fallback(const Shard& shard, const Job& job) const {
    const auto& props = shard.device->props();
    if (batch_bytes(job, job_elements(job)) > shard.memory_budget) return true;
    if (job.kind != JobKind::Ragged) {
        return !ragged_row_fits_shared(job.array_size, props, job_planes(job));
    }
    for (std::size_t i = 1; i < job.offsets.size(); ++i) {
        const auto n = static_cast<std::size_t>(job.offsets[i] - job.offsets[i - 1]);
        if (!ragged_row_fits_shared(n, props)) return true;
    }
    return false;
}

BufferPool::Lease Server::acquire_or_trim(Shard& shard, std::size_t bytes) {
    // Cached idle ranges may be fragmenting the arena (or an injected
    // allocation fault fired): trim and retry per the configured policy,
    // recording each attempt and its modeled backoff.
    const unsigned max_attempts = std::max(cfg_.retry.max_attempts, 1u);
    for (unsigned attempt = 1;; ++attempt) {
        try {
            return shard.pool.acquire(bytes);
        } catch (const simt::DeviceBadAlloc&) {
            if (attempt >= max_attempts) throw;
            shard.pool.trim();
            std::lock_guard lk(mutex_);
            ++stats_.alloc_retries;
            stats_.retry_backoff_ms += cfg_.retry.backoff_ms(attempt, bytes);
        }
    }
}

void Server::serve_batch(Shard& shard, std::vector<PendingPtr> batch) {
    bool dead = false;
    {
        // A batch can only reach a quarantined shard when every device is
        // lost (routing avoids quarantined shards otherwise): pure host mode.
        std::lock_guard lk(mutex_);
        dead = shard.quarantined;
    }
    if (dead) {
        for (auto& p : batch) run_cpu_fallback(*p);
        return;
    }
    if (batch.size() == 1 && needs_cpu_fallback(shard, batch.front()->job)) {
        run_cpu_fallback(*batch.front());
        return;
    }
    // Transient device errors (gas::resilient::transient — allocation
    // failures, refused launches, detected corruption, failed verification)
    // retry the whole batch: execute_batch completes no promise and touches no
    // host buffer before it can throw, so each attempt re-stages clean data.
    // Exhausted retries mean the device is gone: quarantine the shard and
    // re-home its work on the survivors (the last live device host-serves
    // the batch instead).  A non-transient error (a real bug, e.g.
    // SanitizeError) fails the batch.
    const unsigned max_attempts = std::max(cfg_.retry.max_attempts, 1u);
    for (unsigned attempt = 1;; ++attempt) {
        try {
            execute_batch(shard, batch);
            return;
        } catch (const std::exception& e) {
            if (!gas::resilient::transient(e)) {
                fail_batch(batch, e.what());
                return;
            }
            if (attempt < max_attempts) {
                std::lock_guard lk(mutex_);
                ++stats_.retries;
                stats_.retry_backoff_ms +=
                    cfg_.retry.backoff_ms(attempt, batch.front()->id);
                if (cfg_.health.enabled && shard.health.on_transient_fault()) {
                    ++hstats_.demotions;
                }
                continue;
            }
            quarantine_and_reroute(shard, batch);
            return;
        }
    }
}

void Server::quarantine_and_reroute(Shard& shard, std::vector<PendingPtr>& batch) {
    std::vector<PendingPtr> rehome;
    bool survivors = false;
    {
        std::lock_guard lk(mutex_);
        for (const auto& sp : shards_) {
            if (sp.get() != &shard && !sp->quarantined) {
                survivors = true;
                break;
            }
        }
        if (survivors) {
            shard.quarantined = true;
            shard.breakdown.quarantined = true;
            ++stats_.devices_quarantined;
            if (cfg_.health.enabled && shard.health.on_quarantine()) {
                ++hstats_.quarantines;
            }
            rehome = drain_queues_locked(shard);
        }
    }
    if (!survivors) {
        // Last device standing: single-device semantics — this batch
        // quarantines to solo host re-sorts and the device stays routable
        // (the next batch tries it again).
        for (auto& p : batch) run_cpu_fallback(*p, /*quarantined=*/true);
        return;
    }
    for (auto& p : batch) rehome.push_back(std::move(p));
    batch.clear();
    {
        std::lock_guard lk(mutex_);
        for (auto& p : rehome) {
            Shard& target = *shards_[route_locked(*p)];
            ++target.breakdown.reroutes_in;
            ++shard.breakdown.reroutes_out;
            ++stats_.reroutes;
            enqueue_locked(target, std::move(p));
        }
        stats_.queue_peak = std::max(stats_.queue_peak, queued_);
    }
    // Re-homed requests may briefly push the queue above its capacity; the
    // alternative is dropping accepted work on a device loss.
    queue_cv_.notify_all();
}

void Server::execute_batch(Shard& shard, std::vector<PendingPtr>& batch) {
    const auto service_start = Clock::now();
    simt::Device& device = *shard.device;
    const Job& head = batch.front()->job;
    const std::size_t n = head.array_size;  // Uniform / Pairs row length
    const std::size_t planes = job_planes(head);

    // The fused row table: row r occupies device elements
    // [offsets[r], offsets[r + 1]) and request i owns rows
    // [first_row[i], first_row[i + 1]).  Uniform and pair rows are n apart;
    // ragged rows follow each request's CSR table, rebased to its slot.
    std::vector<std::uint64_t> offsets{0};
    std::vector<std::size_t> first_row{0};
    for (const auto& p : batch) {
        const std::uint64_t base = offsets.back();
        if (head.kind == JobKind::Ragged) {
            const auto& off = p->job.offsets;
            for (std::size_t i = 1; i < off.size(); ++i) {
                offsets.push_back(base + (off[i] - off.front()));
            }
        } else {
            for (std::size_t a = 1; a <= p->arrays; ++a) offsets.push_back(base + a * n);
        }
        first_row.push_back(offsets.size() - 1);
    }
    const std::size_t total_arrays = offsets.size() - 1;
    const std::size_t count = offsets.back();
    const std::size_t bytes = count * sizeof(float);

    // One lease per plane, keys first, released in the same order.
    std::vector<BufferPool::Lease> leases;
    leases.reserve(planes);
    const auto release = [&] {
        for (const auto& l : leases) shard.pool.release(l);
        leases.clear();
    };
    try {
        while (leases.size() < planes) leases.push_back(acquire_or_trim(shard, bytes));
        auto keys = simt::DeviceBuffer<float>::borrow(device, leases[0].offset, count);
        auto vals = planes == 2
                        ? simt::DeviceBuffer<float>::borrow(device, leases[1].offset, count)
                        : simt::DeviceBuffer<float>{};
        float* const kdev = keys.span().data();
        float* const vdev = vals.span().data();
        // Expected per-row checksums come from the host copies while staging
        // — ground truth no device fault can touch.
        std::vector<std::uint64_t> expected;
        if (cfg_.verify_responses) expected.reserve(total_arrays);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Job& job = batch[i]->job;
            const std::size_t src = host_base(job);
            const std::size_t dst = offsets[first_row[i]];
            const std::size_t len = batch[i]->elements * sizeof(float);
            std::memcpy(kdev + dst, job.values.data() + src, len);
            if (planes == 2) std::memcpy(vdev + dst, job.payload.data() + src, len);
            if (!cfg_.verify_responses) continue;
            for (std::size_t r = first_row[i]; r < first_row[i + 1]; ++r) {
                const std::size_t at = src + (offsets[r] - dst);
                const std::size_t row_len = offsets[r + 1] - offsets[r];
                expected.push_back(resilient::row_checksum(
                    std::span<const float>(job.values.data() + at, row_len),
                    planes == 2 ? std::span<const float>(job.payload.data() + at, row_len)
                                : std::span<const float>{}));
            }
        }
        const double h2d = device.transfer_ms(planes * bytes);

        Options opts = head.opts;
        opts.validate = false;
        opts.collect_bucket_sizes = false;
        opts.verify_output = false;  // the server verifies per request below
        // Keys-only rows take the lean sample (one key per bucket); pairs keep
        // their submitted rate, as key-equal payload order follows the
        // splitters.
        if (planes == 1) opts.sampling_rate = kLeanSampleRate;

        const SortStats s = planes == 2
                                ? sort_ragged_pairs_on_device(device, keys, vals, offsets, opts)
                                : sort_ragged_on_device(device, keys, offsets, opts);
        double kernel_ms = s.modeled_kernel_ms();

        std::vector<std::uint8_t> row_fail;
        if (cfg_.verify_responses) {
            row_fail.assign(total_arrays, 0);
            kernel_ms += resilient::verify_rows_on_device<float>(
                             device, "gas.verify", std::span<const float>(kdev, count),
                             std::span<const float>(vdev, planes == 2 ? count : 0), offsets,
                             opts.order, expected, row_fail)
                             .modeled_ms;
        }

        // Copy back only verified requests; one with any failing row is
        // quarantined (its host buffer still holds the original input).
        std::vector<PendingPtr> served;
        std::vector<PendingPtr> quarantined;
        std::size_t served_bytes = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Job& job = batch[i]->job;
            const bool bad =
                !row_fail.empty() &&
                std::any_of(row_fail.begin() + static_cast<std::ptrdiff_t>(first_row[i]),
                            row_fail.begin() + static_cast<std::ptrdiff_t>(first_row[i + 1]),
                            [](std::uint8_t f) { return f != 0; });
            if (!bad) {
                const std::size_t src = host_base(job);
                const std::size_t dst = offsets[first_row[i]];
                const std::size_t len = batch[i]->elements * sizeof(float);
                std::memcpy(job.values.data() + src, kdev + dst, len);
                if (planes == 2) std::memcpy(job.payload.data() + src, vdev + dst, len);
                served_bytes += len;
            }
            (bad ? quarantined : served).push_back(std::move(batch[i]));
        }
        const double d2h = device.transfer_ms(planes * served_bytes);
        release();
        if (!served.empty()) {
            finish_batch(shard, served, h2d, d2h, kernel_ms, service_start);
        }
        quarantine_failed(quarantined);
    } catch (...) {
        release();
        throw;
    }
}

void Server::quarantine_failed(std::vector<PendingPtr>& victims) {
    if (victims.empty()) return;
    {
        std::lock_guard lk(mutex_);
        stats_.verify_failures += victims.size();
    }
    // The suspect device bytes were never copied back: each victim re-sorts
    // alone on the host from its original input.
    for (auto& p : victims) run_cpu_fallback(*p, /*quarantined=*/true);
}

void Server::run_cpu_fallback(Pending& p, bool quarantined) {
    const auto service_start = Clock::now();
    Job& job = p.job;
    const KeyLess less{job.opts.order == SortOrder::Descending};
    switch (job.kind) {
        case JobKind::Uniform:
            for (std::size_t a = 0; a < job.num_arrays; ++a) {
                auto* row = job.values.data() + a * job.array_size;
                std::sort(row, row + job.array_size, less);
            }
            break;
        case JobKind::Ragged:
            for (std::size_t i = 1; i < job.offsets.size(); ++i) {
                std::sort(job.values.data() + job.offsets[i - 1],
                          job.values.data() + job.offsets[i], less);
            }
            break;
        case JobKind::Pairs:
            for (std::size_t a = 0; a < job.num_arrays; ++a) {
                const std::size_t base = a * job.array_size;
                std::vector<std::pair<float, float>> row(job.array_size);
                for (std::size_t i = 0; i < job.array_size; ++i) {
                    row[i] = {job.values[base + i], job.payload[base + i]};
                }
                // Stable by key: ties keep submit order (the device path
                // leaves ties unspecified; fallback picks the deterministic
                // choice).
                std::stable_sort(row.begin(), row.end(),
                                 [&](const auto& x, const auto& y) {
                                     return less(x.first, y.first);
                                 });
                for (std::size_t i = 0; i < job.array_size; ++i) {
                    job.values[base + i] = row[i].first;
                    job.payload[base + i] = row[i].second;
                }
            }
            break;
    }
    const auto now = Clock::now();

    Response r;
    r.status = Status::Ok;
    r.cpu_fallback = true;
    r.batch_requests = 1;
    r.queue_ms = ms_between(p.submitted_at, service_start);
    r.service_ms = ms_between(service_start, now);
    r.backpressure = p.backpressure;
    r.values = std::move(job.values);
    r.payload = std::move(job.payload);

    {
        std::lock_guard lk(mutex_);
        ++stats_.completed;
        ++stats_.cpu_fallbacks;
        if (quarantined) ++stats_.quarantined;
        queue_wait_digest_.record(r.queue_ms);
        wall_digest_.record(r.queue_ms + r.service_ms);
        modeled_digest_.record(0.0);
        stats_.wall_service_ms += r.service_ms;
    }
    p.promise.set_value(std::move(r));
}

void Server::fail_batch(std::vector<PendingPtr>& batch, const std::string& why) {
    {
        std::lock_guard lk(mutex_);
        stats_.failed += batch.size();
    }
    for (auto& p : batch) finish_unserved(*p, Status::Failed, why);
}

void Server::finish_unserved(Pending& p, Status status, const std::string& why) {
    Response r;
    r.status = status;
    r.error = why;
    r.backpressure = p.backpressure;
    r.values = std::move(p.job.values);
    r.payload = std::move(p.job.payload);
    p.promise.set_value(std::move(r));
}

void Server::finish_batch(Shard& shard, std::vector<PendingPtr>& batch, double h2d_ms,
                          double d2h_ms, double kernel_ms,
                          Clock::time_point service_start) {
    const auto now = Clock::now();
    const double service_ms = ms_between(service_start, now);
    std::size_t total_elements = 0;
    std::size_t total_arrays = 0;
    for (const auto& p : batch) {
        total_elements += p->elements;
        total_arrays += p->arrays;
    }

    std::vector<Response> responses(batch.size());
    {
        std::lock_guard lk(mutex_);
        const std::uint64_t batch_id = next_batch_id_++;
        // Round-robin this shard's streams; its Timeline mutates under the
        // lock so stats() can fold every shard consistently.
        const std::size_t stream = static_cast<std::size_t>(shard.breakdown.batches) %
                                   shard.timeline.stream_count();
        shard.timeline.h2d(stream, h2d_ms);
        shard.timeline.compute(stream, kernel_ms);
        shard.timeline.d2h(stream, d2h_ms);

        stats_.completed += batch.size();
        ++stats_.batches;
        stats_.batched_requests += batch.size();
        stats_.fused_arrays += total_arrays;
        stats_.modeled_kernel_ms += kernel_ms;
        stats_.modeled_h2d_ms += h2d_ms;
        stats_.modeled_d2h_ms += d2h_ms;
        stats_.wall_service_ms += service_ms;
        ++shard.breakdown.batches;
        shard.breakdown.completed += batch.size();
        shard.breakdown.fused_arrays += total_arrays;
        shard.breakdown.modeled_kernel_ms += kernel_ms;

        if (cfg_.health.enabled) {
            // A batch finished clean on this device: clear any stall flag
            // and advance the recovery streaks (Degraded -> Healthy,
            // Probation -> Healthy after enough clean batches).
            shard.stall_flag.store(false, std::memory_order_relaxed);
            const auto st = shard.health.state();
            if (shard.health.on_clean_batch()) {
                if (st == gas::health::State::Probation) {
                    ++hstats_.readmissions;
                } else {
                    ++hstats_.degraded_recoveries;
                }
            }
        }

        for (std::size_t i = 0; i < batch.size(); ++i) {
            Pending& p = *batch[i];
            Response& r = responses[i];
            r.status = Status::Ok;
            r.batch_id = batch_id;
            r.batch_requests = batch.size();
            r.queue_ms = ms_between(p.submitted_at, service_start);
            r.service_ms = service_ms;
            const double share = total_elements > 0
                                     ? static_cast<double>(p.elements) /
                                           static_cast<double>(total_elements)
                                     : 0.0;
            r.modeled_ms = (h2d_ms + kernel_ms + d2h_ms) * share;
            r.backpressure = p.backpressure;
            r.values = std::move(p.job.values);
            r.payload = std::move(p.job.payload);
            queue_wait_digest_.record(r.queue_ms);
            wall_digest_.record(r.queue_ms + r.service_ms);
            modeled_digest_.record(r.modeled_ms);
        }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->promise.set_value(std::move(responses[i]));
    }
}

ServerStats Server::stats() const {
    std::lock_guard lk(mutex_);
    ServerStats s = stats_;
    s.queue_depth = queued_;
    s.queue_wait_ms = summarize(queue_wait_digest_);
    s.wall_ms = summarize(wall_digest_);
    s.modeled_ms = summarize(modeled_digest_);

    // Fold the fleet: devices run concurrently, so the modeled makespan is
    // the slowest shard's pipeline and engine utilizations are fleet-wide.
    s.devices.clear();
    s.devices.reserve(shards_.size());
    double overlap = 0.0;
    double serial = 0.0;
    double h2d_busy = 0.0;
    double compute_busy = 0.0;
    double d2h_busy = 0.0;
    BufferPool::Stats pool{};
    for (const auto& sp : shards_) {
        const Shard& shard = *sp;
        DeviceBreakdown d = shard.breakdown;
        d.quarantined = shard.quarantined;
        d.queue_depth = shard.queued;
        d.health_state = cfg_.health.enabled
                             ? gas::health::to_string(shard.health.state())
                             : (shard.quarantined ? "quarantined" : "healthy");
        d.modeled_overlap_ms = shard.timeline.elapsed_ms();
        d.compute_utilization = shard.timeline.compute_utilization();
        overlap = std::max(overlap, d.modeled_overlap_ms);
        serial += shard.timeline.serialized_ms();
        h2d_busy += shard.timeline.h2d_busy_ms();
        compute_busy += shard.timeline.compute_busy_ms();
        d2h_busy += shard.timeline.d2h_busy_ms();
        const BufferPool::Stats ps = shard.pool.stats();
        pool.acquires += ps.acquires;
        pool.reuse_hits += ps.reuse_hits;
        pool.device_allocs += ps.device_allocs;
        pool.releases += ps.releases;
        pool.bytes_cached += ps.bytes_cached;
        pool.bytes_leased += ps.bytes_leased;
        pool.peak_leased += ps.peak_leased;
        s.devices.push_back(std::move(d));
    }
    s.modeled_overlap_ms = overlap;
    s.modeled_serial_ms = serial;
    s.h2d_busy_ms = h2d_busy;
    s.compute_busy_ms = compute_busy;
    s.d2h_busy_ms = d2h_busy;
    const double denom = overlap * static_cast<double>(shards_.size());
    s.h2d_utilization = denom > 0.0 ? h2d_busy / denom : 0.0;
    s.compute_utilization = denom > 0.0 ? compute_busy / denom : 0.0;
    s.d2h_utilization = denom > 0.0 ? d2h_busy / denom : 0.0;
    s.pool = pool;
    s.health = hstats_;
    s.health.enabled = cfg_.health.enabled;
    return s;
}

void Server::sample_load_locked(Shard& shard) {
    sample_queue_depth(shard.breakdown, shard.queued);
    if (cfg_.health.enabled) {
        shard.load_ewma.update(static_cast<double>(shard.queued_elements));
    }
}

bool Server::shed_for_admission_locked(Priority incoming, PendingPtr& victim) {
    // Scan priority classes from Low upward, stopping at the newcomer's own
    // class: never displace more important work for less important work.
    // Within the chosen class the oldest queued request across all shards
    // drops first (head drop, CoDel-style).
    const auto inc = static_cast<std::size_t>(incoming);
    for (std::size_t pr = kPriorities; pr-- > 0;) {
        if (pr < inc) break;
        Shard* owner = nullptr;
        for (auto& sp : shards_) {
            auto& q = sp->queue[pr];
            if (q.empty()) continue;
            if (owner == nullptr ||
                q.front()->submitted_at < owner->queue[pr].front()->submitted_at) {
                owner = sp.get();
            }
        }
        if (owner == nullptr) continue;
        auto& q = owner->queue[pr];
        auto front = q.begin();
        victim = unqueue_locked(*owner, q, front);
        return true;
    }
    return false;  // everything queued outranks the newcomer
}

void Server::run_probe_cycle(Shard& shard) {
    // Owning-thread context: the quarantined shard's scheduler (async) or
    // the pump() caller (manual).  Free held device state first so the probe
    // allocation cannot collide with leftovers of the failed batch.
    shard.pool.trim();
    const std::uint64_t seed = 0x9e3779b97f4a7c15ull ^
                               (static_cast<std::uint64_t>(shard.index) << 32) ^
                               ++shard.probe_count;
    const gas::health::ProbeResult pr = gas::health::run_probe(*shard.device, seed);

    std::lock_guard lk(mutex_);
    ++hstats_.probes_run;
    if (pr.pass) {
        ++hstats_.probes_passed;
        if (shard.health.on_probe_pass()) {
            // K consecutive passes: re-admit on probation — routable again
            // with a ramped-up weight; clean batches finish the promotion.
            ++hstats_.probations;
            shard.quarantined = false;
            shard.breakdown.quarantined = false;
            shard.stall_flag.store(false, std::memory_order_relaxed);
            queue_cv_.notify_all();
        }
    } else {
        ++hstats_.probes_failed;
        shard.health.on_probe_fail();
    }
}

void Server::watchdog_main() {
    std::unique_lock lk(mutex_);
    const auto start = Clock::now();
    for (auto& sp : shards_) sp->hb_last_change = start;
    while (!stopping_) {
        watchdog_cv_.wait_for(lk, std::chrono::duration<double, std::milli>(
                                      gas::health::kWatchdogPollMs));
        if (stopping_) break;
        const auto now = Clock::now();
        for (auto& sp : shards_) {
            Shard& shard = *sp;
            const std::uint64_t ticks = shard.device->progress_ticks();
            if (ticks != shard.hb_last_ticks) {
                shard.hb_last_ticks = ticks;
                shard.hb_last_change = now;
                shard.stall_flag.store(false, std::memory_order_relaxed);
                continue;
            }
            if (shard.in_flight == 0) {
                // Idle devices make no progress by design; only a shard with
                // a batch in flight can be hung.
                shard.hb_last_change = now;
                continue;
            }
            if (!shard.stall_flag.load(std::memory_order_relaxed) &&
                ms_between(shard.hb_last_change, now) >= gas::health::kStallDeadlineMs) {
                // Heartbeat stalled past the deadline: demote now (don't
                // wait for a typed fault) and tell the hang handler to abort
                // the launch, which surfaces as a transient StallFault.
                shard.stall_flag.store(true, std::memory_order_relaxed);
                ++hstats_.hangs_detected;
                if (shard.health.on_transient_fault()) ++hstats_.demotions;
            }
        }
    }
}

}  // namespace gas::serve
