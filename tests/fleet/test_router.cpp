// fleet::least_loaded placement: pressure ranking, smoothing and weights,
// the eligibility/liveness fallback ladder; and DeviceFleet ownership.

#include "fleet/router.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fleet/fleet.hpp"

namespace {

using gas::fleet::DeviceFleet;
using gas::fleet::least_loaded;
using gas::fleet::ShardLoad;

std::vector<ShardLoad> loads_of(std::vector<std::size_t> queued) {
    std::vector<ShardLoad> loads;
    for (std::size_t q : queued) {
        ShardLoad l;
        l.queued_elements = q;
        loads.push_back(l);
    }
    return loads;
}

TEST(Router, LeastLoadedPicksFewestQueuedElements) {
    EXPECT_EQ(least_loaded(loads_of({5, 2, 9})), 1u);
    EXPECT_EQ(least_loaded(loads_of({7, 7, 7})), 0u);  // tie -> lowest index
    EXPECT_EQ(least_loaded(loads_of({1, 0, 0})), 1u);
}

TEST(Router, LeastLoadedSkipsDeadAndPrefersEligible) {
    auto loads = loads_of({5, 2, 9});
    loads[1].live = false;  // the cheapest device is gone
    EXPECT_EQ(least_loaded(loads), 0u);

    loads = loads_of({5, 2, 9});
    loads[1].eligible = false;  // request does not fit the cheapest device
    EXPECT_EQ(least_loaded(loads), 0u);

    // Nothing eligible: stay on a live device anyway (it will degrade the
    // request to its host path) rather than returning the sentinel.
    loads = loads_of({5, 2, 9});
    for (auto& l : loads) l.eligible = false;
    EXPECT_EQ(least_loaded(loads), 1u);
}

TEST(Router, LeastLoadedFoldsSmoothedLoadAgainstFlapping) {
    // Device 0's queue momentarily drained, but its EWMA remembers a deep
    // backlog; device 1 has a couple queued but a calm history.  Raw
    // queued_elements would yank every new request to device 0 (route
    // flapping on the transient dip) — the smoothed signal keeps it away.
    auto loads = loads_of({0, 2});
    EXPECT_EQ(least_loaded(loads), 0u);  // without history: raw ranking
    loads[0].smoothed_load = 500.0;
    loads[1].smoothed_load = 3.0;
    EXPECT_EQ(least_loaded(loads), 1u);
}

TEST(Router, LeastLoadedDividesPressureByWeight) {
    // A probation shard at weight 0.25 looks 4x as loaded: 8 queued on the
    // healthy peer still beats 4 queued on the ramping one (4/0.25 = 16).
    auto loads = loads_of({4, 8});
    loads[0].weight = 0.25;
    EXPECT_EQ(least_loaded(loads), 1u);
    // ...until its ramp completes and raw ranking resumes.
    loads[0].weight = 1.0;
    EXPECT_EQ(least_loaded(loads), 0u);
    // A non-positive weight is clamped, not a division blow-up.
    loads[0].weight = 0.0;
    EXPECT_EQ(least_loaded(loads), 1u);
}

TEST(Router, LeastLoadedDefaultsReproduceRawRanking) {
    // ShardLoad's defaults (smoothed_load 0, weight 1) must keep the
    // pre-health ranking bit-for-bit, ties still breaking to lowest index.
    EXPECT_EQ(least_loaded(loads_of({5, 2, 9})), 1u);
    EXPECT_EQ(least_loaded(loads_of({7, 7, 7})), 0u);
    EXPECT_EQ(least_loaded(loads_of({0, 0, 1})), 0u);
}

TEST(Router, SentinelWhenNothingIsLive) {
    auto loads = loads_of({1, 2, 3, 4});
    for (auto& l : loads) l.live = false;
    EXPECT_EQ(least_loaded(loads), 4u);
}

TEST(Router, RejectsDegenerateConfigurations) {
    // An empty load view places nothing: nothing is live, so the sentinel
    // is 0.  (DeviceFleet itself refuses 0 devices.)
    EXPECT_EQ(least_loaded({}), 0u);
}

TEST(DeviceFleet, OwnsHomogeneousDevices) {
    DeviceFleet fleet(3, simt::tiny_device(64 << 20));
    ASSERT_EQ(fleet.size(), 3u);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_EQ(fleet.device(i).memory().capacity(), 64u << 20);
    }
    fleet.set_exec_mode(simt::ExecMode::Warp);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_EQ(fleet.device(i).exec_mode(), simt::ExecMode::Warp);
    }
}

TEST(DeviceFleet, OwnsHeterogeneousDevices) {
    DeviceFleet fleet(std::vector<simt::DeviceProperties>{
        simt::tiny_device(16 << 20), simt::tiny_device(256 << 20)});
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_EQ(fleet.device(0).memory().capacity(), 16u << 20);
    EXPECT_EQ(fleet.device(1).memory().capacity(), 256u << 20);
}

TEST(DeviceFleet, BorrowsExternalDevices) {
    simt::Device a(simt::tiny_device(32 << 20));
    simt::Device b(simt::tiny_device(32 << 20));
    DeviceFleet single(a);
    EXPECT_EQ(single.size(), 1u);
    EXPECT_EQ(&single.device(0), &a);
    DeviceFleet both(std::vector<simt::Device*>{&a, &b});
    EXPECT_EQ(both.size(), 2u);
    EXPECT_EQ(&both.device(1), &b);
}

TEST(DeviceFleet, RejectsEmptyAndNull) {
    EXPECT_THROW(DeviceFleet(0), std::invalid_argument);
    EXPECT_THROW(DeviceFleet(std::vector<simt::DeviceProperties>{}),
                 std::invalid_argument);
    EXPECT_THROW(DeviceFleet(std::vector<simt::Device*>{}), std::invalid_argument);
    EXPECT_THROW(DeviceFleet(std::vector<simt::Device*>{nullptr}),
                 std::invalid_argument);
}

}  // namespace
