#include "fleet/router.hpp"

#include <algorithm>
#include <stdexcept>

namespace gas::fleet {

namespace {

/// splitmix64 finalizer — the same decision hash the fault injector uses,
/// giving ring points and key spreading good avalanche behavior.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

constexpr std::size_t kVirtualNodes = 64;  ///< ring points per device

bool acceptable(const ShardLoad& l, bool need_eligible) {
    return need_eligible ? (l.live && l.eligible) : l.live;
}

}  // namespace

bool parse_route_policy(const std::string& name, RoutePolicy& out) {
    if (name == "least-loaded") {
        out = RoutePolicy::LeastLoaded;
    } else if (name == "consistent-hash") {
        out = RoutePolicy::ConsistentHash;
    } else if (name == "key-range") {
        out = RoutePolicy::KeyRange;
    } else {
        return false;
    }
    return true;
}

Router::Router(RoutePolicy policy, std::size_t devices, double key_space)
    : policy_(policy), devices_(devices), key_space_(key_space) {
    if (devices == 0) throw std::invalid_argument("fleet::Router: 0 devices");
    if (!(key_space > 0.0)) throw std::invalid_argument("fleet::Router: key space <= 0");
    if (policy_ == RoutePolicy::ConsistentHash) {
        ring_.reserve(devices_ * kVirtualNodes);
        for (std::size_t d = 0; d < devices_; ++d) {
            for (std::size_t v = 0; v < kVirtualNodes; ++v) {
                ring_.emplace_back(mix64(mix64(d + 1) ^ (v * 0x517cc1b727220a95ull)),
                                   static_cast<std::uint32_t>(d));
            }
        }
        std::sort(ring_.begin(), ring_.end());
    }
}

std::size_t Router::route(const RouteInfo& info, std::span<const ShardLoad> loads) const {
    if (loads.size() != devices_) {
        throw std::invalid_argument("fleet::Router::route: load view size mismatch");
    }
    const bool any_live = std::any_of(loads.begin(), loads.end(),
                                      [](const ShardLoad& l) { return l.live; });
    if (!any_live) return devices_;
    const bool any_eligible =
        std::any_of(loads.begin(), loads.end(),
                    [](const ShardLoad& l) { return l.live && l.eligible; });
    switch (policy_) {
        case RoutePolicy::LeastLoaded: return least_loaded(loads, any_eligible);
        case RoutePolicy::ConsistentHash:
            return ring_walk(mix64(info.fingerprint), loads, any_eligible);
        case RoutePolicy::KeyRange: return key_range(info.key_hint, loads, any_eligible);
    }
    return least_loaded(loads, any_eligible);
}

std::size_t Router::least_loaded(std::span<const ShardLoad> loads,
                                 bool need_eligible) const {
    // Effective pressure blends the instantaneous backlog with its EWMA —
    // a shard whose queue just drained still remembers its recent load, so
    // transient spikes do not flap every new request onto it — and divides
    // by the routing weight so ramping (probation) shards fill gradually.
    // With the ShardLoad defaults (smoothed 0, weight 1) this ranks by raw
    // queued_elements exactly as before; ties still break to lowest index
    // via the strict <.
    const auto pressure = [](const ShardLoad& l) {
        const double w = std::max(l.weight, 1e-9);
        return (static_cast<double>(l.queued_elements) + l.smoothed_load) / w;
    };
    std::size_t best = devices_;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        if (!acceptable(loads[i], need_eligible)) continue;
        if (best == devices_ || pressure(loads[i]) < pressure(loads[best])) {
            best = i;
        }
    }
    return best;
}

std::size_t Router::ring_walk(std::uint64_t key, std::span<const ShardLoad> loads,
                              bool need_eligible) const {
    // First ring point at or after the key, then clockwise until the owner
    // is acceptable: losing a device hands only its arcs to the successors.
    auto it = std::lower_bound(ring_.begin(), ring_.end(),
                               std::make_pair(key, std::uint32_t{0}));
    for (std::size_t step = 0; step < ring_.size(); ++step, ++it) {
        if (it == ring_.end()) it = ring_.begin();
        if (acceptable(loads[it->second], need_eligible)) return it->second;
    }
    return devices_;
}

std::size_t Router::key_range(double hint, std::span<const ShardLoad> loads,
                              bool need_eligible) const {
    std::vector<std::size_t> owners;
    owners.reserve(loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i) {
        if (acceptable(loads[i], need_eligible)) owners.push_back(i);
    }
    if (owners.empty()) return devices_;
    double frac = hint / key_space_;
    frac = std::clamp(frac, 0.0, 1.0);
    std::size_t rank = static_cast<std::size_t>(frac * static_cast<double>(owners.size()));
    rank = std::min(rank, owners.size() - 1);
    return owners[rank];
}

}  // namespace gas::fleet
