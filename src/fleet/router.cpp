#include "fleet/router.hpp"

#include <algorithm>

namespace gas::fleet {

std::size_t least_loaded(std::span<const ShardLoad> loads) {
    const bool any_eligible =
        std::any_of(loads.begin(), loads.end(),
                    [](const ShardLoad& l) { return l.live && l.eligible; });
    // Effective pressure blends the instantaneous backlog with its EWMA —
    // a shard whose queue just drained still remembers its recent load, so
    // transient spikes do not flap every new request onto it — and divides
    // by the routing weight so ramping (probation) shards fill gradually.
    const auto pressure = [](const ShardLoad& l) {
        const double w = std::max(l.weight, 1e-9);
        return (static_cast<double>(l.queued_elements) + l.smoothed_load) / w;
    };
    std::size_t best = loads.size();
    for (std::size_t i = 0; i < loads.size(); ++i) {
        if (!loads[i].live || (any_eligible && !loads[i].eligible)) continue;
        if (best == loads.size() || pressure(loads[i]) < pressure(loads[best])) {
            best = i;
        }
    }
    return best;
}

}  // namespace gas::fleet
