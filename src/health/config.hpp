#pragma once

#include <cstddef>

namespace gas::health {

/// Watchdog poll cadence (async mode only; manual_pump has no watchdog
/// thread — hangs abort deterministically at the handler).
inline constexpr double kWatchdogPollMs = 1.0;
/// A shard with a batch in flight whose device heartbeat has not moved for
/// this long is declared stalled: its hang handler aborts the launch and the
/// shard is demoted to Degraded.
inline constexpr double kStallDeadlineMs = 8.0;
/// How often a quarantined shard's scheduler wakes to run a probe sort
/// (async mode; under manual_pump one probe runs per pump() call).
inline constexpr double kProbeIntervalMs = 5.0;
/// Shape of one probe sort: arrays x elements per array.
inline constexpr std::size_t kProbeArrays = 4;
inline constexpr std::size_t kProbeArraySize = 64;
/// Clean batches a Degraded shard serves before it is Healthy again.
inline constexpr unsigned kDegradedClearBatches = 2;
/// Least-loaded routing weight of a Degraded shard (a flat penalty).
inline constexpr double kDegradedWeight = 0.5;

/// Knobs for the closed-loop health subsystem (gas::health), carried by
/// ServerConfig::health.  `enabled=false` (the default) turns every hook
/// off: no watchdog thread, no probes, no shedding — the server behaves
/// bit-for-bit like a build without the subsystem.  With it on, a full
/// queue sheds by priority (typed Status::Shed) instead of blocking or
/// rejecting; that is the only overload behaviour.
struct HealthConfig {
    bool enabled = false;
    /// Consecutive probe passes required to leave Quarantined for Probation.
    unsigned probe_passes = 2;
    /// Clean batches served in Probation before full Healthy re-admission.
    unsigned probation_batches = 3;
    /// Starting least-loaded weight of a shard in Probation; ramps linearly
    /// to 1.0 as probation_batches complete.
    double probation_base_weight = 0.25;
};

}  // namespace gas::health
