#pragma once

#include <cstddef>
#include <span>

namespace gas::fleet {

/// What placement knows about one device at decision time.
///
/// The defaults for `smoothed_load` and `weight` make least_loaded rank by
/// raw queued_elements; callers that track a queue-depth EWMA (gas::serve)
/// or ramp re-admitted devices (gas::health probation) opt in by filling
/// them.
struct ShardLoad {
    std::size_t queued_elements = 0;  ///< elements waiting in its queue
    /// EWMA of queued_elements: folded into the ranking so a shard whose
    /// queue momentarily drains does not yank every new request away from
    /// its peers (route flapping on transient spikes).
    double smoothed_load = 0.0;
    /// Routing weight in (0, 1]: pressure is divided by it, so a 0.25-weight
    /// shard looks 4x as loaded and receives proportionally less traffic
    /// (probation ramps, degraded penalties).  Values <= 0 are clamped.
    double weight = 1.0;
    bool live = true;      ///< not quarantined (device loss)
    bool eligible = true;  ///< live AND the request fits this device's budget
};

/// The fleet's one placement rule: the device with the least pressure,
/// (queued_elements + smoothed_load) / weight, ties to the lowest index.
/// Arrays are independent, so placement moves load, never bytes.  Only
/// eligible devices are considered; with none eligible the live ones are,
/// keeping a request on *some* device (which may then degrade it to its host
/// path).  Returns `loads.size()` when nothing is live — the caller decides
/// where an all-devices-lost request goes.
[[nodiscard]] std::size_t least_loaded(std::span<const ShardLoad> loads);

}  // namespace gas::fleet
