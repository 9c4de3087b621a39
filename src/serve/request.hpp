#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/options.hpp"

namespace gas::serve {

using Clock = std::chrono::steady_clock;

/// What kind of sort a job asks for.  All three run through the server's one
/// fused execute path; float is the paper's element type and the only one the
/// serving layer speaks.
enum class JobKind : std::uint8_t {
    Uniform,  ///< num_arrays x array_size rows in `values`
    Ragged,   ///< CSR: `offsets` (N+1 entries) into `values`
    Pairs,    ///< num_arrays x array_size keys in `values`, payload alongside
};

[[nodiscard]] inline std::string to_string(JobKind k) {
    switch (k) {
        case JobKind::Uniform: return "uniform";
        case JobKind::Ragged: return "ragged";
        case JobKind::Pairs: return "pairs";
    }
    return "?";
}

/// Scheduling class.  The scheduler drains strictly higher classes first,
/// FIFO within a class — a High burst can starve Low, which is the point.
enum class Priority : std::uint8_t { High = 0, Normal = 1, Low = 2 };

[[nodiscard]] inline std::string to_string(Priority p) {
    switch (p) {
        case Priority::High: return "high";
        case Priority::Normal: return "normal";
        case Priority::Low: return "low";
    }
    return "?";
}

/// One sort request.  The job owns its data; the server moves it through the
/// pipeline and hands the sorted vectors back in the Response.
struct Job {
    JobKind kind = JobKind::Uniform;
    std::vector<float> values;             ///< rows / CSR values / pair keys
    std::vector<float> payload;            ///< pair values (Pairs only)
    std::vector<std::uint64_t> offsets;    ///< CSR offsets (Ragged only)
    std::size_t num_arrays = 0;            ///< Uniform / Pairs geometry
    std::size_t array_size = 0;
    Options opts;  ///< validate/collect_*/verify_output are server-owned, ignored
    Priority priority = Priority::Normal;
    /// Absolute deadline for *starting* service; a job still queued past it
    /// completes as TimedOut.  A deadline already in the past at submit is
    /// rejected as TimedOut without ever entering the queue.
    std::optional<Clock::time_point> deadline;

    Job& with_deadline_ms(double ms) {
        deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(ms));
        return *this;
    }
};

/// Terminal state of a request.
enum class Status : std::uint8_t {
    Ok,         ///< sorted data is in the response
    Rejected,   ///< admission control refused it (queue full / server stopped)
    TimedOut,   ///< deadline expired before service started
    Cancelled,  ///< cancel() or stop(cancel_pending) removed it from the queue
    Failed,     ///< execution threw; `error` has the reason
    Shed,       ///< dropped by overload protection (gas::health); never silent
};

[[nodiscard]] inline std::string to_string(Status s) {
    switch (s) {
        case Status::Ok: return "ok";
        case Status::Rejected: return "rejected";
        case Status::TimedOut: return "timed-out";
        case Status::Cancelled: return "cancelled";
        case Status::Failed: return "failed";
        case Status::Shed: return "shed";
    }
    return "?";
}

/// What the future resolves to.
struct Response {
    Status status = Status::Rejected;
    std::string error;
    std::vector<float> values;   ///< sorted (moved back from the Job)
    std::vector<float> payload;  ///< permuted alongside keys (Pairs)
    bool cpu_fallback = false;   ///< served by the host path, not the device
    std::uint64_t batch_id = 0;          ///< fused batch this rode in (0 = none)
    std::size_t batch_requests = 0;      ///< requests fused into that batch
    double queue_ms = 0.0;    ///< submit -> service start (wall)
    double service_ms = 0.0;  ///< service start -> done (wall)
    double modeled_ms = 0.0;  ///< this request's share of modeled device time
    /// Queue occupancy (queued / capacity, in [0, 1]) observed when this
    /// request was admitted — the backpressure signal callers should feed
    /// into their own pacing before the server has to shed for them.
    double backpressure = 0.0;

    [[nodiscard]] bool ok() const { return status == Status::Ok; }
};

}  // namespace gas::serve
