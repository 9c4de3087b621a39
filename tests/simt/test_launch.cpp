#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "simt/device.hpp"
#include "simt/device_buffer.hpp"

namespace {

using simt::BlockCtx;
using simt::Device;
using simt::LaunchConfig;
using simt::ThreadCtx;

TEST(Launch, RunsEveryBlockAndThreadExactlyOnce) {
    Device dev(simt::tiny_device(1 << 20));
    std::vector<int> visits(8 * 4, 0);
    dev.launch({"count", 8, 4}, [&](BlockCtx& blk) {
        blk.for_each_thread([&](ThreadCtx& tc) {
            ++visits[blk.block_idx() * 4 + tc.tid()];
        });
    });
    for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(Launch, ImbalanceMetricReflectsLaneSkew) {
    Device dev(simt::tiny_device(1 << 20));
    // One hot lane per warp: max-lane cycles 62, mean (62 + 31 * 2) / 32 =
    // 3.875, so the launch-wide ratio is exactly 16 (cpi cancels).
    const auto skewed = dev.launch({"skew", 2, 32}, [&](BlockCtx& blk) {
        blk.for_each_thread([&](ThreadCtx& tc) { tc.ops(tc.tid() == 0 ? 62 : 2); });
    });
    EXPECT_DOUBLE_EQ(skewed.imbalance, 16.0);
    const auto balanced = dev.launch({"flat", 2, 32}, [&](BlockCtx& blk) {
        blk.for_each_thread([&](ThreadCtx& tc) { tc.ops(5); });
    });
    EXPECT_DOUBLE_EQ(balanced.imbalance, 1.0);
    // A no-op launch reports the neutral value, not a 0/0.
    const auto idle = dev.launch({"idle", 1, 4}, [](BlockCtx&) {});
    EXPECT_DOUBLE_EQ(idle.imbalance, 1.0);
}

TEST(Launch, RejectsZeroDimensions) {
    Device dev(simt::tiny_device(1 << 20));
    EXPECT_THROW(dev.launch({"bad", 0, 4}, [](BlockCtx&) {}), simt::LaunchError);
    EXPECT_THROW(dev.launch({"bad", 4, 0}, [](BlockCtx&) {}), simt::LaunchError);
}

TEST(Launch, RejectsOversizedBlocks) {
    Device dev(simt::tiny_device(1 << 20));
    const unsigned too_many = dev.props().max_threads_per_block + 1;
    EXPECT_THROW(dev.launch({"bad", 1, too_many}, [](BlockCtx&) {}), simt::LaunchError);
}

TEST(Launch, SharedMemoryPersistsAcrossRegionsWithinBlock) {
    Device dev(simt::tiny_device(1 << 20));
    std::vector<int> result(4, 0);
    dev.launch({"regions", 4, 8}, [&](BlockCtx& blk) {
        auto scratch = blk.shared_alloc<int>(8);
        blk.for_each_thread([&](ThreadCtx& tc) { scratch[tc.tid()] = static_cast<int>(tc.tid()); });
        blk.single_thread([&](ThreadCtx&) {
            result[blk.block_idx()] = std::accumulate(scratch.begin(), scratch.end(), 0);
        });
    });
    for (int r : result) EXPECT_EQ(r, 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
}

TEST(Launch, SharedMemoryIsResetBetweenBlocks) {
    Device dev(simt::tiny_device(1 << 20));
    std::size_t allocs_ok = 0;
    const std::size_t cap = dev.props().shared_memory_per_block;
    dev.launch({"reset", 3, 1}, [&](BlockCtx& blk) {
        // Allocating nearly the whole arena works every block only if the
        // bump pointer was rewound between blocks.
        blk.shared_alloc<std::byte>(cap - 64);
        ++allocs_ok;
    });
    EXPECT_EQ(allocs_ok, 3u);
}

TEST(Launch, SharedOverflowThrows) {
    Device dev(simt::tiny_device(1 << 20));
    EXPECT_THROW(dev.launch({"overflow", 1, 1},
                            [&](BlockCtx& blk) {
                                blk.shared_alloc<std::byte>(
                                    dev.props().shared_memory_per_block + 1);
                            }),
                 simt::SharedMemoryOverflow);
}

TEST(Launch, ReverseThreadOrderGivesSameResultForRaceFreeKernels) {
    // A race-free kernel (each lane writes only its own slot) must be
    // order-insensitive; this is the contract kernels are written against.
    auto run = [](simt::ThreadOrder order) {
        Device dev(simt::tiny_device(1 << 20));
        dev.set_thread_order(order);
        std::vector<unsigned> out(64);
        dev.launch({"order", 1, 64}, [&](BlockCtx& blk) {
            blk.for_each_thread([&](ThreadCtx& tc) { out[tc.tid()] = tc.tid() * 3u; });
        });
        return out;
    };
    EXPECT_EQ(run(simt::ThreadOrder::Forward), run(simt::ThreadOrder::Reverse));
}

TEST(Launch, KernelLogAccumulates) {
    Device dev(simt::tiny_device(1 << 20));
    dev.launch({"k1", 1, 1}, [](BlockCtx&) {});
    dev.launch({"k2", 2, 2}, [](BlockCtx&) {});
    ASSERT_EQ(dev.kernel_log().size(), 2u);
    EXPECT_EQ(dev.kernel_log()[0].name, "k1");
    EXPECT_EQ(dev.kernel_log()[1].grid_dim, 2u);
    dev.clear_kernel_log();
    EXPECT_TRUE(dev.kernel_log().empty());
}

TEST(Launch, CountersAggregateAcrossBlocksAndLanes) {
    Device dev(simt::tiny_device(1 << 20));
    const auto stats = dev.launch({"counters", 3, 2}, [&](BlockCtx& blk) {
        blk.for_each_thread([&](ThreadCtx& tc) {
            tc.ops(10);
            tc.shared(5);
            tc.global_coalesced(100);
            tc.global_random(1);
        });
    });
    EXPECT_EQ(stats.totals.ops, 3u * 2u * 10u);
    EXPECT_EQ(stats.totals.shared_accesses, 3u * 2u * 5u);
    EXPECT_EQ(stats.totals.coalesced_bytes, 3u * 2u * 100u);
    EXPECT_EQ(stats.totals.random_accesses, 3u * 2u * 1u);
}

TEST(Launch, ModeledTimeIsPositiveAndIncludesLaunchOverhead) {
    Device dev(simt::tiny_device(1 << 20));
    const auto stats = dev.launch({"empty", 1, 1}, [](BlockCtx&) {});
    EXPECT_GE(stats.modeled_ms, dev.props().kernel_launch_overhead_ms);
}

TEST(Launch, SingleThreadRegionChargesLaneZero) {
    Device dev(simt::tiny_device(1 << 20));
    const auto stats = dev.launch({"single", 1, 32}, [&](BlockCtx& blk) {
        blk.single_thread([&](ThreadCtx& tc) { tc.ops(1000); });
    });
    EXPECT_EQ(stats.totals.ops, 1000u);
}

TEST(Launch, MoreWorkMeansMoreModeledTime) {
    Device dev(simt::tiny_device(1 << 20));
    const auto small = dev.launch({"small", 16, 32}, [&](BlockCtx& blk) {
        blk.for_each_thread([&](ThreadCtx& tc) { tc.ops(100); });
    });
    const auto big = dev.launch({"big", 16, 32}, [&](BlockCtx& blk) {
        blk.for_each_thread([&](ThreadCtx& tc) { tc.ops(100000); });
    });
    EXPECT_GT(big.modeled_ms, small.modeled_ms);
}

void one_op(BlockCtx& blk) {
    blk.for_each_thread([&](ThreadCtx& tc) { tc.ops(1); });
}

TEST(Launch, WakesThePoolOncePerMultiBlockLaunch) {
    // A launch that fans out to more than one worker wakes the pool once;
    // a 1-block launch runs inline and wakes nobody.
    constexpr unsigned kChain = 6;
    for (const unsigned grid : {2u, 4u, 9u}) {
        Device dev(simt::tiny_device(1 << 20));
        dev.set_host_workers(4);
        EXPECT_EQ(dev.pool_wakes(), 0u);
        for (unsigned k = 0; k < kChain; ++k) dev.launch({"link", grid, 32}, one_op);
        EXPECT_EQ(dev.pool_wakes(), kChain) << "grid " << grid;
        dev.launch({"inline", 1, 32}, one_op);
        EXPECT_EQ(dev.pool_wakes(), kChain) << "grid " << grid;
    }
}

TEST(Launch, SingleWorkerDeviceNeverWakesThePool) {
    Device dev(simt::tiny_device(1 << 20));
    dev.set_host_workers(1);
    for (unsigned k = 0; k < 6; ++k) dev.launch({"link", 4, 32}, one_op);
    EXPECT_EQ(dev.kernel_log().size(), 6u);
    EXPECT_EQ(dev.pool_wakes(), 0u);
}

}  // namespace
