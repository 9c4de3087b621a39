// WarpCtx and the execution-mode machinery: env parsing, warp grouping,
// lane-order preservation, uniform/per-lane charge folding, and the
// configure() pooled-storage trim policy.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "simt/device.hpp"

namespace {

/// Saves and restores SIMT_EXEC around env-parsing tests so the suite does
/// not leak state into other tests (or inherit the harness's own setting).
class ScopedExecEnv {
  public:
    ScopedExecEnv() {
        const char* v = std::getenv("SIMT_EXEC");
        had_ = v != nullptr;
        if (had_) saved_ = v;
    }
    ~ScopedExecEnv() {
        if (had_) {
            ::setenv("SIMT_EXEC", saved_.c_str(), 1);
        } else {
            ::unsetenv("SIMT_EXEC");
        }
    }

  private:
    bool had_ = false;
    std::string saved_;
};

TEST(ExecMode, ToString) {
    EXPECT_STREQ(simt::to_string(simt::ExecMode::Scalar), "scalar");
    EXPECT_STREQ(simt::to_string(simt::ExecMode::Warp), "warp");
}

TEST(ExecMode, FromEnvParsesBothModesAndDefaults) {
    ScopedExecEnv guard;
    ::unsetenv("SIMT_EXEC");
    EXPECT_EQ(simt::exec_mode_from_env(), simt::ExecMode::Warp);
    ::setenv("SIMT_EXEC", "", 1);
    EXPECT_EQ(simt::exec_mode_from_env(), simt::ExecMode::Warp);
    ::setenv("SIMT_EXEC", "scalar", 1);
    EXPECT_EQ(simt::exec_mode_from_env(), simt::ExecMode::Scalar);
    ::setenv("SIMT_EXEC", "warp", 1);
    EXPECT_EQ(simt::exec_mode_from_env(), simt::ExecMode::Warp);
}

TEST(ExecMode, FromEnvRejectsUnknownValue) {
    ScopedExecEnv guard;
    ::setenv("SIMT_EXEC", "vector", 1);
    EXPECT_THROW((void)simt::exec_mode_from_env(), simt::DeviceError);
}

TEST(ExecMode, DeviceDefaultsToEnvAndIsSwitchable) {
    ScopedExecEnv guard;
    ::setenv("SIMT_EXEC", "scalar", 1);
    simt::Device dev(simt::tiny_device(1 << 20));
    EXPECT_EQ(dev.exec_mode(), simt::ExecMode::Scalar);
    dev.set_exec_mode(simt::ExecMode::Warp);
    EXPECT_EQ(dev.exec_mode(), simt::ExecMode::Warp);
    ::unsetenv("SIMT_EXEC");
    EXPECT_EQ(simt::Device(simt::tiny_device(1 << 20)).exec_mode(), simt::ExecMode::Warp);
}

/// Runs one for_each_warp region over `block_dim` lanes and returns the
/// (lane_begin, width) sequence of the groups handed to the body.
std::vector<std::pair<unsigned, unsigned>> group_shapes(simt::ExecMode mode,
                                                        simt::ThreadOrder order,
                                                        unsigned block_dim) {
    simt::Device dev(simt::tiny_device(1 << 20));
    dev.set_exec_mode(mode);
    dev.set_thread_order(order);
    std::vector<std::pair<unsigned, unsigned>> shapes;
    dev.launch({"groups", 1, block_dim}, [&](simt::BlockCtx& blk) {
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            shapes.emplace_back(wc.lane_begin(), wc.width());
            EXPECT_EQ(wc.lane_end(), wc.lane_begin() + wc.width());
            EXPECT_EQ(wc.block_dim(), block_dim);
            EXPECT_FALSE(wc.tracked());
        });
    });
    return shapes;
}

TEST(WarpCtx, ScalarModeHandsOutSingleLaneGroups) {
    const auto shapes =
        group_shapes(simt::ExecMode::Scalar, simt::ThreadOrder::Forward, 70);
    ASSERT_EQ(shapes.size(), 70u);
    for (unsigned t = 0; t < 70; ++t) {
        EXPECT_EQ(shapes[t], (std::pair<unsigned, unsigned>{t, 1u}));
    }
}

TEST(WarpCtx, WarpModeHandsOutWarpSizedGroupsWithRaggedTail) {
    const auto shapes =
        group_shapes(simt::ExecMode::Warp, simt::ThreadOrder::Forward, 70);
    ASSERT_EQ(shapes.size(), 3u);
    EXPECT_EQ(shapes[0], (std::pair<unsigned, unsigned>{0u, 32u}));
    EXPECT_EQ(shapes[1], (std::pair<unsigned, unsigned>{32u, 32u}));
    EXPECT_EQ(shapes[2], (std::pair<unsigned, unsigned>{64u, 6u}));
}

TEST(WarpCtx, ReverseOrderWalksGroupsDescending) {
    const auto shapes =
        group_shapes(simt::ExecMode::Warp, simt::ThreadOrder::Reverse, 70);
    ASSERT_EQ(shapes.size(), 3u);
    EXPECT_EQ(shapes[0].first, 64u);
    EXPECT_EQ(shapes[1].first, 32u);
    EXPECT_EQ(shapes[2].first, 0u);
}

/// The total lane order of for_lanes across all groups must equal the scalar
/// interpreter's order under both ThreadOrders — this is what keeps kernels
/// with order-sensitive shared atomics byte-identical across modes.
std::vector<unsigned> lane_visit_order(simt::ExecMode mode, simt::ThreadOrder order) {
    simt::Device dev(simt::tiny_device(1 << 20));
    dev.set_exec_mode(mode);
    dev.set_thread_order(order);
    std::vector<unsigned> visited;
    dev.launch({"visit", 1, 70}, [&](simt::BlockCtx& blk) {
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            wc.for_lanes([&](simt::ThreadCtx& tc) { visited.push_back(tc.tid()); });
        });
    });
    return visited;
}

TEST(WarpCtx, ForLanesPreservesScalarTotalOrder) {
    for (const auto order : {simt::ThreadOrder::Forward, simt::ThreadOrder::Reverse}) {
        EXPECT_EQ(lane_visit_order(simt::ExecMode::Warp, order),
                  lane_visit_order(simt::ExecMode::Scalar, order));
    }
}

/// Uniform + per-lane charges folded at region end must equal what the same
/// per-lane body reports through for_each_thread, in both modes.
TEST(WarpCtx, ChargeFoldingMatchesScalarCounters) {
    for (const auto mode : {simt::ExecMode::Scalar, simt::ExecMode::Warp}) {
        simt::Device dev(simt::tiny_device(1 << 20));
        dev.set_exec_mode(mode);
        const auto ref = dev.launch({"ref", 2, 70}, [&](simt::BlockCtx& blk) {
            blk.for_each_thread([&](simt::ThreadCtx& tc) {
                tc.ops(3);
                tc.shared(2);
                tc.global_coalesced(16);
                tc.global_random(tc.tid() % 4);
            });
        });
        const auto warp = dev.launch({"warp", 2, 70}, [&](simt::BlockCtx& blk) {
            blk.for_each_warp([&](simt::WarpCtx& wc) {
                wc.ops_uniform(3);
                wc.shared_uniform(2);
                wc.coalesced_uniform(16);
                for (unsigned l = wc.lane_begin(); l < wc.lane_end(); ++l) {
                    wc.random_lane(l, l % 4);
                }
            });
        });
        EXPECT_EQ(warp.totals.ops, ref.totals.ops) << simt::to_string(mode);
        EXPECT_EQ(warp.totals.shared_accesses, ref.totals.shared_accesses);
        EXPECT_EQ(warp.totals.coalesced_bytes, ref.totals.coalesced_bytes);
        EXPECT_EQ(warp.totals.random_accesses, ref.totals.random_accesses);
        EXPECT_EQ(warp.modeled_ms, ref.modeled_ms);
        EXPECT_EQ(warp.warp_max_cycles, ref.warp_max_cycles);
        EXPECT_EQ(warp.imbalance, ref.imbalance);
    }
}

// --- configure() trim policy --------------------------------------------

TEST(BlockCtxTrim, OversizedPoolStorageIsTrimmed) {
    simt::BlockCtx ctx;
    ctx.configure(256, 1, 1 << 20, simt::ThreadOrder::Forward, 0);
    EXPECT_EQ(ctx.shared_arena_bytes(), std::size_t{1} << 20);
    EXPECT_GE(ctx.lane_capacity(), std::size_t{256});

    // Next launch asks for far less than 1/4 of what the slot holds: both
    // the shared arena and the lane storage must shrink to the request.
    ctx.configure(1, 1, 1 << 10, simt::ThreadOrder::Forward, 0);
    EXPECT_EQ(ctx.shared_arena_bytes(), std::size_t{1} << 10);
    EXPECT_LE(ctx.lane_capacity(), std::size_t{4});
}

TEST(BlockCtxTrim, StorageWithinTrimFactorIsKept) {
    simt::BlockCtx ctx;
    ctx.configure(256, 1, 1 << 20, simt::ThreadOrder::Forward, 0);

    // Half the arena and a quarter of the lanes: within kTrimFactor, so the
    // pooled storage is reused as-is (no reallocation churn between
    // similarly-sized launches).
    ctx.configure(64, 1, 1 << 19, simt::ThreadOrder::Forward, 0);
    EXPECT_EQ(ctx.shared_arena_bytes(), std::size_t{1} << 20);
    EXPECT_GE(ctx.lane_capacity(), std::size_t{256});

    // Growing again is always a plain resize.
    ctx.configure(512, 1, 1 << 21, simt::ThreadOrder::Forward, 0);
    EXPECT_EQ(ctx.shared_arena_bytes(), std::size_t{1} << 21);
    EXPECT_GE(ctx.lane_capacity(), std::size_t{512});
}

TEST(BlockCtxTrim, ZeroSizedRequestDoesNotDivideByZero) {
    simt::BlockCtx ctx;
    ctx.configure(8, 1, 1 << 16, simt::ThreadOrder::Forward, 0);
    ctx.configure(1, 1, 0, simt::ThreadOrder::Forward, 0);
    EXPECT_EQ(ctx.shared_arena_bytes(), std::size_t{0});
}

}  // namespace
