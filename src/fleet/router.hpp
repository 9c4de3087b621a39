#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gas::fleet {

/// How the serving layer places a request onto one device of a fleet.
///
///  LeastLoaded    — the live device with the fewest queued elements (ties
///                   break to the lowest index).  Best raw balance; no
///                   affinity.
///  ConsistentHash — a hash ring over the devices (64 virtual nodes each),
///                   keyed by the request fingerprint.  A request's content
///                   always lands on the same device, and losing a device
///                   only remaps the keys that lived on it — the classic
///                   cache-affinity trade.
///  KeyRange       — each live device owns an equal-width slice of the key
///                   space; a request routes by its sampled key hint.  The
///                   splitter-based decomposition of GPU Sample Sort lifted
///                   one level up: arrays with nearby keys share a device,
///                   which keeps per-device key ranges tight (and the
///                   pruned-radix / max-key machinery effective).
enum class RoutePolicy : std::uint8_t { LeastLoaded, ConsistentHash, KeyRange };

[[nodiscard]] inline std::string to_string(RoutePolicy p) {
    switch (p) {
        case RoutePolicy::LeastLoaded: return "least-loaded";
        case RoutePolicy::ConsistentHash: return "consistent-hash";
        case RoutePolicy::KeyRange: return "key-range";
    }
    return "?";
}

/// Parses "least-loaded" / "consistent-hash" / "key-range" (the CLI
/// spellings); returns false and leaves `out` untouched on anything else.
[[nodiscard]] bool parse_route_policy(const std::string& name, RoutePolicy& out);

/// What the router knows about one request (computed once at submit and
/// carried with the request so re-routes after a device loss are cheap).
struct RouteInfo {
    std::uint64_t fingerprint = 0;  ///< content+shape hash (ConsistentHash key)
    double key_hint = 0.0;          ///< representative sampled key (KeyRange)
    std::size_t elements = 0;       ///< load the request adds to a queue
};

/// What the router knows about one device at decision time.
///
/// The defaults for `smoothed_load` and `weight` make LeastLoaded rank by
/// raw queued_elements exactly as before they existed; callers that track a
/// queue-depth EWMA (gas::serve) or ramp re-admitted devices (gas::health
/// probation) opt in by filling them.
struct ShardLoad {
    std::size_t queued_elements = 0;  ///< elements waiting in its queue
    /// EWMA of queued_elements: folded into LeastLoaded ranking so a shard
    /// whose queue momentarily drains does not yank every new request away
    /// from its peers (route flapping on transient spikes).
    double smoothed_load = 0.0;
    /// Routing weight in (0, 1]: pressure is divided by it, so a 0.25-weight
    /// shard looks 4x as loaded and receives proportionally less traffic
    /// (probation ramps, degraded penalties).  Values <= 0 are clamped.
    double weight = 1.0;
    bool live = true;      ///< not quarantined (device loss)
    bool eligible = true;  ///< live AND the request fits this device's budget
};

/// Pluggable request-to-device placement.  Immutable after construction:
/// every route() call gets the current per-device loads, so the same Router
/// serves concurrent schedulers without synchronization.
class Router {
  public:
    /// The paper's key domain ([0, 2^31) uniform floats): the default
    /// normalization for KeyRange hints.
    static constexpr double kDefaultKeySpace = 2147483648.0;

    Router(RoutePolicy policy, std::size_t devices, double key_space = kDefaultKeySpace);

    [[nodiscard]] RoutePolicy policy() const { return policy_; }
    [[nodiscard]] std::size_t devices() const { return devices_; }

    /// Picks a device for the request.  Only eligible devices are
    /// considered; with none eligible the live ones are, keeping a request
    /// on *some* device (which may then degrade it to its host path).
    /// Returns `devices()` when nothing is live — the caller decides where
    /// an all-devices-lost request goes (host fallback).
    [[nodiscard]] std::size_t route(const RouteInfo& info,
                                    std::span<const ShardLoad> loads) const;

  private:
    [[nodiscard]] std::size_t least_loaded(std::span<const ShardLoad> loads,
                                           bool need_eligible) const;
    [[nodiscard]] std::size_t ring_walk(std::uint64_t key, std::span<const ShardLoad> loads,
                                        bool need_eligible) const;
    [[nodiscard]] std::size_t key_range(double hint, std::span<const ShardLoad> loads,
                                        bool need_eligible) const;

    RoutePolicy policy_;
    std::size_t devices_;
    double key_space_;
    /// Consistent-hash ring: (point, device) sorted by point.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace gas::fleet
