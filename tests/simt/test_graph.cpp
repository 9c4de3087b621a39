// simt::Graph + Device::submit: DAG construction diagnostics, deterministic
// execution order, dynamic enqueue, conditional nodes, the bit-identical
// stats contract against the loop-of-launches path, fault-hook parity, and
// the one-pool-wake-per-submit scheduling promise.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <tuple>
#include <string>
#include <vector>

#include "simt/device.hpp"
#include "simt/device_buffer.hpp"
#include "simt/faults/plan.hpp"
#include "simt/graph.hpp"

namespace {

using simt::BlockCtx;
using simt::Device;
using simt::Graph;
using simt::GraphCtx;
using simt::GraphError;
using simt::KernelStats;
using simt::LaunchConfig;
using simt::ThreadCtx;

void expect_stats_equal(const KernelStats& a, const KernelStats& b) {
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.grid_dim, b.grid_dim);
    EXPECT_EQ(a.block_dim, b.block_dim);
    EXPECT_EQ(a.shared_bytes_per_block, b.shared_bytes_per_block);
    EXPECT_EQ(a.totals.ops, b.totals.ops);
    EXPECT_EQ(a.totals.shared_accesses, b.totals.shared_accesses);
    EXPECT_EQ(a.totals.coalesced_bytes, b.totals.coalesced_bytes);
    EXPECT_EQ(a.totals.random_accesses, b.totals.random_accesses);
    EXPECT_DOUBLE_EQ(a.traffic_bytes, b.traffic_bytes);
    EXPECT_DOUBLE_EQ(a.compute_ms, b.compute_ms);
    EXPECT_DOUBLE_EQ(a.memory_ms, b.memory_ms);
    EXPECT_DOUBLE_EQ(a.modeled_ms, b.modeled_ms);
    EXPECT_DOUBLE_EQ(a.warp_max_cycles, b.warp_max_cycles);
    EXPECT_DOUBLE_EQ(a.warp_mean_cycles, b.warp_mean_cycles);
    EXPECT_DOUBLE_EQ(a.imbalance, b.imbalance);
}

TEST(Graph, RejectsUnknownDependencyIds) {
    Graph g;
    const auto a = g.add_kernel({"a", 1, 1}, [](BlockCtx&) {});
    EXPECT_THROW(g.add_kernel({"b", 1, 1}, [](BlockCtx&) {}, {a + 7}), GraphError);
    EXPECT_THROW(g.add_edge(a, 42), GraphError);
    EXPECT_THROW(g.add_edge(42, a), GraphError);
}

TEST(Graph, RejectsSelfEdgesAndCycles) {
    Graph g;
    const auto a = g.add_kernel({"a", 1, 1}, [](BlockCtx&) {});
    const auto b = g.add_kernel({"b", 1, 1}, [](BlockCtx&) {}, {a});
    EXPECT_THROW(g.add_edge(a, a), GraphError);
    g.add_edge(b, a);  // closes the cycle a -> b -> a
    EXPECT_THROW(g.validate(), GraphError);
    Device dev(simt::tiny_device(1 << 20));
    EXPECT_THROW(dev.submit(g), GraphError);
}

TEST(Graph, CycleDiagnosticNamesANodeOnTheCycle) {
    Graph g;
    const auto a = g.add_kernel({"alpha", 1, 1}, [](BlockCtx&) {});
    const auto b = g.add_kernel({"beta", 1, 1}, [](BlockCtx&) {}, {a});
    g.add_edge(b, a);
    try {
        g.validate();
        FAIL() << "expected GraphError";
    } catch (const GraphError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cycle"), std::string::npos) << what;
        EXPECT_TRUE(what.find("alpha") != std::string::npos ||
                    what.find("beta") != std::string::npos)
            << what;
    }
}

TEST(Graph, ExecutesReadyNodesInAscendingIdOrder) {
    // A diamond plus an independent straggler: execution order must be the
    // unique ascending-id topological order regardless of worker count.
    for (const unsigned workers : {1u, 4u}) {
        Device dev(simt::tiny_device(1 << 20));
        dev.set_host_workers(workers);
        Graph g;
        const auto root = g.add_kernel({"root", 1, 1}, [](BlockCtx&) {});
        const auto left = g.add_kernel({"left", 1, 1}, [](BlockCtx&) {}, {root});
        const auto right = g.add_kernel({"right", 1, 1}, [](BlockCtx&) {}, {root});
        const auto join = g.add_kernel({"join", 1, 1}, [](BlockCtx&) {}, {left, right});
        const auto lone = g.add_kernel({"lone", 1, 1}, [](BlockCtx&) {});
        dev.submit(g);
        ASSERT_EQ(dev.kernel_log().size(), 5u);
        EXPECT_EQ(dev.kernel_log()[0].name, "root");
        EXPECT_EQ(dev.kernel_log()[1].name, "left");
        EXPECT_EQ(dev.kernel_log()[2].name, "right");
        EXPECT_EQ(dev.kernel_log()[3].name, "join");
        EXPECT_EQ(dev.kernel_log()[4].name, "lone");
        for (const auto id : {root, left, right, join, lone}) {
            EXPECT_TRUE(g.executed(id));
        }
    }
}

TEST(Graph, DependenciesOrderSideEffects) {
    // A 3-node chain incrementing a counter: each node observes the value
    // its predecessor left, proving edges serialize execution.
    Device dev(simt::tiny_device(1 << 20), simt::DeviceMemory::Mode::Backed, 4);
    simt::DeviceBuffer<int> buf(dev, 1);
    const auto s = buf.span();
    s[0] = 0;
    Graph g;
    Graph::NodeId prev = 0;
    for (int step = 0; step < 3; ++step) {
        std::vector<Graph::NodeId> deps;
        if (step > 0) deps.push_back(prev);
        prev = g.add_kernel({"chain", 4, 8},
                            [s](BlockCtx& blk) {
                                blk.single_thread([&](ThreadCtx&) {
                                    if (blk.block_idx() == 0) ++s[0];
                                });
                            },
                            deps);
    }
    dev.submit(g);
    EXPECT_EQ(s[0], 3);
}

TEST(Graph, StatsMatchLoopOfLaunchesBitForBit) {
    // The same 3-kernel pipeline via the loop path and via one submit, in
    // both exec modes and several worker counts: per-node KernelStats must
    // match the corresponding launch on every deterministic field.
    for (const auto mode : {simt::ExecMode::Scalar, simt::ExecMode::Warp}) {
        for (const unsigned workers : {1u, 3u, 8u}) {
            const auto body_a = [](BlockCtx& blk) {
                blk.for_each_thread([&](ThreadCtx& tc) { tc.ops(3 + tc.tid() % 5); });
            };
            const auto body_b = [](BlockCtx& blk) {
                auto sh = blk.shared_alloc<int>(32);
                blk.for_each_thread([&](ThreadCtx& tc) {
                    // One writer per slot: the suite also runs under
                    // GAS_SANITIZE_RUNTIME=strict, where a racy slot aborts.
                    if (tc.tid() < 32) sh[tc.tid()] = static_cast<int>(tc.tid());
                    tc.shared(2);
                    tc.global_coalesced(64);
                });
            };
            const auto body_c = [](BlockCtx& blk) {
                blk.for_each_thread([&](ThreadCtx& tc) { tc.global_random(1 + tc.tid() % 3); });
            };

            Device loop_dev(simt::tiny_device(1 << 20));
            loop_dev.set_exec_mode(mode);
            loop_dev.set_host_workers(workers);
            const auto la = loop_dev.launch({"a", 7, 64}, body_a);
            const auto lb = loop_dev.launch({"b", 5, 64}, body_b);
            const auto lc = loop_dev.launch({"c", 3, 32}, body_c);

            Device graph_dev(simt::tiny_device(1 << 20));
            graph_dev.set_exec_mode(mode);
            graph_dev.set_host_workers(workers);
            Graph g;
            const auto na = g.add_kernel({"a", 7, 64}, body_a);
            const auto nb = g.add_kernel({"b", 5, 64}, body_b, {na});
            const auto nc = g.add_kernel({"c", 3, 32}, body_c, {nb});
            const auto stats = graph_dev.submit(g);

            expect_stats_equal(g.kernel_stats(na), la);
            expect_stats_equal(g.kernel_stats(nb), lb);
            expect_stats_equal(g.kernel_stats(nc), lc);
            ASSERT_EQ(graph_dev.kernel_log().size(), loop_dev.kernel_log().size());
            for (std::size_t i = 0; i < loop_dev.kernel_log().size(); ++i) {
                expect_stats_equal(graph_dev.kernel_log()[i], loop_dev.kernel_log()[i]);
            }
            EXPECT_EQ(stats.kernel_nodes, 3u);
            EXPECT_EQ(stats.nodes_executed, 3u);
        }
    }
}

TEST(Graph, HostNodeDynamicEnqueueRunsEmittedChain) {
    // The launcher-node pattern: a host node emits per-pass records that
    // the scheduler drains without another host round-trip.
    Device dev(simt::tiny_device(1 << 20), simt::DeviceMemory::Mode::Backed, 4);
    simt::DeviceBuffer<int> buf(dev, 4);
    const auto s = buf.span();
    std::fill(s.begin(), s.end(), 0);
    Graph g;
    const auto launcher = g.add_host("launcher", [s](GraphCtx& ctx) {
        Graph::NodeId prev = ctx.self();
        for (int pass = 0; pass < 4; ++pass) {
            prev = ctx.enqueue_kernel({"pass", 1, 1},
                                      [s, pass](BlockCtx& blk) {
                                          blk.single_thread([&](ThreadCtx&) {
                                              s[pass] = pass == 0 ? 1 : s[pass - 1] + 1;
                                          });
                                      },
                                      {prev});
        }
    });
    const auto stats = dev.submit(g);
    EXPECT_TRUE(g.executed(launcher));
    EXPECT_EQ(stats.host_nodes, 1u);
    EXPECT_EQ(stats.kernel_nodes, 4u);
    EXPECT_EQ(stats.device_enqueued, 4u);
    EXPECT_EQ(std::vector<int>(s.begin(), s.end()), (std::vector<int>{1, 2, 3, 4}));
}

TEST(Graph, ConditionalNodePrunesWithoutBlockingDependents) {
    Device dev(simt::tiny_device(1 << 20));
    std::atomic<int> ran{0};
    Graph g;
    const auto gated = g.add_kernel_if(
        {"gated", 2, 4}, [&](BlockCtx&) { ran.fetch_add(1); }, [] { return false; });
    const auto after = g.add_kernel({"after", 1, 1}, [](BlockCtx&) {}, {gated});
    const auto stats = dev.submit(g);
    EXPECT_EQ(ran.load(), 0);
    EXPECT_TRUE(g.pruned(gated));
    EXPECT_TRUE(g.executed(after));
    EXPECT_EQ(stats.pruned, 1u);
    EXPECT_EQ(stats.kernel_nodes, 1u);
    // A pruned kernel never reaches the log and has no stats.
    ASSERT_EQ(dev.kernel_log().size(), 1u);
    EXPECT_EQ(dev.kernel_log()[0].name, "after");
    EXPECT_THROW(std::ignore = g.kernel_stats(gated), GraphError);
}

TEST(Graph, HostPruneAccountingReachesTelemetry) {
    Device dev(simt::tiny_device(1 << 20));
    Graph g;
    g.add_host("decide", [](GraphCtx& ctx) { ctx.prune(3); });
    const auto stats = dev.submit(g);
    EXPECT_EQ(stats.pruned, 3u);
    EXPECT_EQ(dev.graph_telemetry().pruned, 3u);
    EXPECT_EQ(dev.graph_telemetry().graphs, 1u);
}

TEST(Graph, TelemetryAccumulatesAcrossSubmits) {
    Device dev(simt::tiny_device(1 << 20));
    Graph g;
    g.add_kernel({"k", 2, 2}, [](BlockCtx&) {});
    g.add_host("h", [](GraphCtx& ctx) { ctx.enqueue_kernel({"dyn", 1, 1}, [](BlockCtx&) {}); });
    dev.submit(g);
    dev.submit(g);  // resubmission resets runtime state and dynamic nodes
    const auto& t = dev.graph_telemetry();
    EXPECT_EQ(t.graphs, 2u);
    EXPECT_EQ(t.kernel_nodes, 4u);
    EXPECT_EQ(t.host_nodes, 2u);
    EXPECT_EQ(t.nodes, 6u);
    EXPECT_EQ(t.device_enqueued, 2u);
    EXPECT_EQ(dev.kernel_log().size(), 4u);
    dev.clear_graph_telemetry();
    EXPECT_EQ(dev.graph_telemetry().graphs, 0u);
}

void one_op(BlockCtx& blk) {
    blk.for_each_thread([&](ThreadCtx& tc) { tc.ops(1); });
}

/// Appends an `n`-kernel dependency chain of `grid`-block kernels to `g`.
void add_chain(Graph& g, unsigned n, unsigned grid) {
    Graph::NodeId prev = 0;
    for (unsigned k = 0; k < n; ++k) {
        prev = k == 0 ? g.add_kernel({"link", grid, 32}, one_op)
                      : g.add_kernel({"link", grid, 32}, one_op, {prev});
    }
}

TEST(Graph, SubmitWakesThePoolOncePerGraph) {
    // Device::submit's promise: the worker pool is woken once for the whole
    // graph and stays resident, where a loop of launches wakes it once per
    // multi-block launch.  A 1-block launch runs inline and wakes nobody.
    constexpr unsigned kChain = 6;
    for (const unsigned grid : {2u, 4u, 9u}) {
        Device dev(simt::tiny_device(1 << 20));
        dev.set_host_workers(4);
        EXPECT_EQ(dev.pool_wakes(), 0u);
        Graph g;
        add_chain(g, kChain, grid);
        dev.submit(g);
        EXPECT_EQ(dev.pool_wakes(), 1u) << "grid " << grid;
        for (unsigned k = 0; k < kChain; ++k) dev.launch({"link", grid, 32}, one_op);
        EXPECT_EQ(dev.pool_wakes(), 1u + kChain) << "grid " << grid;
        dev.launch({"inline", 1, 32}, one_op);
        EXPECT_EQ(dev.pool_wakes(), 1u + kChain) << "grid " << grid;
    }
}

TEST(Graph, SingleWorkerDeviceNeverWakesThePool) {
    Device dev(simt::tiny_device(1 << 20));
    dev.set_host_workers(1);
    Graph g;
    add_chain(g, 6, 4);
    dev.submit(g);
    for (unsigned k = 0; k < 6; ++k) dev.launch({"link", 4, 32}, one_op);
    EXPECT_EQ(dev.kernel_log().size(), 12u);
    EXPECT_EQ(dev.pool_wakes(), 0u);
}

TEST(Graph, KernelExceptionPropagatesAndTeamSurvives) {
    for (const unsigned workers : {1u, 4u}) {
        Device dev(simt::tiny_device(1 << 20));
        dev.set_host_workers(workers);
        Graph g;
        g.add_kernel({"boom", 8, 4}, [](BlockCtx& blk) {
            if (blk.block_idx() == 3) throw std::runtime_error("kernel body failed");
        });
        EXPECT_THROW(dev.submit(g), std::runtime_error);
        // The device (and its worker pool) must remain usable.
        const auto k = dev.launch({"ok", 4, 4}, [](BlockCtx&) {});
        EXPECT_EQ(k.grid_dim, 4u);
    }
}

TEST(Graph, LaunchFaultHooksFirePerKernelNode) {
    // An injected fault refusing the 2nd launch must refuse the 2nd graph
    // node exactly as it refuses the 2nd loop launch.
    simt::faults::FaultPlan plan;
    plan.launch_fail_at = {2};
    Device dev(simt::tiny_device(1 << 20));
    dev.set_fault_plan(plan);
    Graph g;
    const auto a = g.add_kernel({"a", 1, 1}, [](BlockCtx&) {});
    g.add_kernel({"b", 1, 1}, [](BlockCtx&) {}, {a});
    EXPECT_THROW(dev.submit(g), simt::LaunchFault);
    ASSERT_EQ(dev.kernel_log().size(), 1u);  // refused node never logged
    EXPECT_EQ(dev.kernel_log()[0].name, "a");
}

TEST(Graph, RejectsMutationWhileExecuting) {
    Device dev(simt::tiny_device(1 << 20));
    Graph g;
    g.add_host("mutate", [&g](GraphCtx&) {
        g.add_kernel({"late", 1, 1}, [](BlockCtx&) {});
    });
    EXPECT_THROW(dev.submit(g), GraphError);
}

TEST(Graph, StatsQueriesValidateNodeState) {
    Device dev(simt::tiny_device(1 << 20));
    Graph g;
    const auto h = g.add_host("h", [](GraphCtx&) {});
    const auto k = g.add_kernel({"k", 1, 1}, [](BlockCtx&) {});
    EXPECT_THROW(std::ignore = g.kernel_stats(k), GraphError);  // not yet executed
    dev.submit(g);
    EXPECT_NO_THROW(std::ignore = g.kernel_stats(k));
    EXPECT_THROW(std::ignore = g.kernel_stats(h), GraphError);  // host nodes have none
    EXPECT_THROW(std::ignore = g.kernel_stats(99), GraphError);
}

}  // namespace
