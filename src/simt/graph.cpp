#include "simt/graph.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <queue>
#include <thread>

#include "simt/device.hpp"
#include "simt/launch_detail.hpp"

namespace simt {

namespace {

/// Scheduler scratch shared between Device::submit and GraphCtx for the
/// duration of one run.  Ready nodes drain in ascending id order so the
/// execution sequence (and therefore the kernel log) is deterministic.
struct ExecState {
    std::priority_queue<Graph::NodeId, std::vector<Graph::NodeId>,
                        std::greater<Graph::NodeId>>
        ready;
    GraphStats stats;
};

ExecState& exec_of(void* p) { return *static_cast<ExecState*>(p); }

}  // namespace

// ---------------------------------------------------------------------------
// Graph construction

void Graph::check_node_id(NodeId id, const char* what) const {
    if (id >= nodes_.size()) {
        throw GraphError(std::string("graph: ") + what + " names unknown node " +
                         std::to_string(id) + " (graph has " +
                         std::to_string(nodes_.size()) + " node(s))");
    }
}

Graph::NodeId Graph::add_node(Node node, std::vector<NodeId> deps, bool dynamic) {
    if (executing_ && !dynamic) {
        throw GraphError("graph: cannot mutate a graph while it is executing; "
                         "host nodes enqueue through their GraphCtx");
    }
    for (const NodeId d : deps) check_node_id(d, "dependency edge");
    const NodeId id = nodes_.size();
    node.deps = deps;
    node.dynamic = dynamic;
    // Dependencies already settled (possible for dynamic nodes) are not
    // counted as unmet; edges only ever point from older nodes to newer
    // ones, so dynamic enqueue cannot create a cycle.
    for (const NodeId d : deps) {
        if (nodes_[d].state == State::Pending) ++node.unmet;
        nodes_[d].succs.push_back(id);
    }
    const std::size_t unmet = node.unmet;
    nodes_.push_back(std::move(node));
    if (!dynamic) {
        static_nodes_ = nodes_.size();
    } else {
        auto& exec = exec_of(exec_state_);
        ++exec.stats.device_enqueued;
        if (unmet == 0) exec.ready.push(id);
    }
    return id;
}

Graph::NodeId Graph::add_kernel(LaunchConfig cfg, KernelBody body,
                                std::vector<NodeId> deps) {
    Node n;
    n.kind = Kind::Kernel;
    n.cfg = std::move(cfg);
    n.body = std::move(body);
    return add_node(std::move(n), std::move(deps), /*dynamic=*/false);
}

Graph::NodeId Graph::add_kernel_if(LaunchConfig cfg, KernelBody body, Predicate pred,
                                   std::vector<NodeId> deps) {
    Node n;
    n.kind = Kind::Kernel;
    n.cfg = std::move(cfg);
    n.body = std::move(body);
    n.pred = std::move(pred);
    return add_node(std::move(n), std::move(deps), /*dynamic=*/false);
}

Graph::NodeId Graph::add_host(std::string name, HostFn fn, std::vector<NodeId> deps) {
    Node n;
    n.kind = Kind::Host;
    n.cfg.name = std::move(name);
    n.host = std::move(fn);
    return add_node(std::move(n), std::move(deps), /*dynamic=*/false);
}

void Graph::add_edge(NodeId from, NodeId to) {
    if (executing_) {
        throw GraphError("graph: cannot add edges while the graph is executing");
    }
    check_node_id(from, "edge source");
    check_node_id(to, "edge target");
    if (from == to) {
        throw GraphError("graph: self-edge on node " + std::to_string(to) + " ('" +
                         nodes_[to].cfg.name + "') would deadlock");
    }
    nodes_[from].succs.push_back(to);
    nodes_[to].deps.push_back(from);
}

void Graph::validate() const {
    // Kahn's algorithm over the static nodes; anything left with unmet
    // dependencies after the drain sits on a cycle.
    std::vector<std::size_t> unmet(nodes_.size(), 0);
    for (const Node& n : nodes_) {
        for (const NodeId s : n.succs) ++unmet[s];
    }
    std::queue<NodeId> ready;
    for (NodeId i = 0; i < nodes_.size(); ++i) {
        if (unmet[i] == 0) ready.push(i);
    }
    std::size_t settled = 0;
    while (!ready.empty()) {
        const NodeId id = ready.front();
        ready.pop();
        ++settled;
        for (const NodeId s : nodes_[id].succs) {
            if (--unmet[s] == 0) ready.push(s);
        }
    }
    if (settled != nodes_.size()) {
        for (NodeId i = 0; i < nodes_.size(); ++i) {
            if (unmet[i] != 0) {
                throw GraphError("graph: dependency cycle through node " +
                                 std::to_string(i) + " ('" + nodes_[i].cfg.name +
                                 "'); " + std::to_string(nodes_.size() - settled) +
                                 " node(s) can never become ready");
            }
        }
    }
}

void Graph::reset_runtime() {
    if (static_nodes_ < nodes_.size()) {
        // Drop the previous run's dynamic nodes, and every edge that
        // pointed at them, so a resubmitted graph starts from its static
        // shape.
        nodes_.resize(static_nodes_);
        for (Node& n : nodes_) {
            std::erase_if(n.succs, [&](NodeId s) { return s >= static_nodes_; });
            std::erase_if(n.deps, [&](NodeId d) { return d >= static_nodes_; });
        }
    }
    for (Node& n : nodes_) {
        n.state = State::Pending;
        n.unmet = 0;
        n.stats = {};
    }
    for (const Node& n : nodes_) {
        for (const NodeId s : n.succs) ++nodes_[s].unmet;
    }
    stats_ = {};
}

bool Graph::executed(NodeId id) const {
    check_node_id(id, "executed() query");
    return nodes_[id].state == State::Done;
}

bool Graph::pruned(NodeId id) const {
    check_node_id(id, "pruned() query");
    return nodes_[id].state == State::Pruned;
}

const KernelStats& Graph::kernel_stats(NodeId id) const {
    check_node_id(id, "kernel_stats() query");
    const Node& n = nodes_[id];
    if (n.kind != Kind::Kernel) {
        throw GraphError("graph: node " + std::to_string(id) + " ('" + n.cfg.name +
                         "') is a host node; it has no KernelStats");
    }
    if (n.state != State::Done) {
        throw GraphError("graph: kernel node " + std::to_string(id) + " ('" +
                         n.cfg.name + "') did not execute");
    }
    return n.stats;
}

// ---------------------------------------------------------------------------
// GraphCtx — the dynamic-enqueue surface handed to host nodes

Graph::NodeId GraphCtx::enqueue_kernel(LaunchConfig cfg, Graph::KernelBody body,
                                       std::vector<Graph::NodeId> deps) {
    if (deps.empty()) deps.push_back(self_);
    Graph::Node n;
    n.kind = Graph::Kind::Kernel;
    n.cfg = std::move(cfg);
    n.body = std::move(body);
    return graph_.add_node(std::move(n), std::move(deps), /*dynamic=*/true);
}

Graph::NodeId GraphCtx::enqueue_kernel_if(LaunchConfig cfg, Graph::KernelBody body,
                                          Graph::Predicate pred,
                                          std::vector<Graph::NodeId> deps) {
    if (deps.empty()) deps.push_back(self_);
    Graph::Node n;
    n.kind = Graph::Kind::Kernel;
    n.cfg = std::move(cfg);
    n.body = std::move(body);
    n.pred = std::move(pred);
    return graph_.add_node(std::move(n), std::move(deps), /*dynamic=*/true);
}

Graph::NodeId GraphCtx::enqueue_host(std::string name, Graph::HostFn fn,
                                     std::vector<Graph::NodeId> deps) {
    if (deps.empty()) deps.push_back(self_);
    Graph::Node n;
    n.kind = Graph::Kind::Host;
    n.cfg.name = std::move(name);
    n.host = std::move(fn);
    return graph_.add_node(std::move(n), std::move(deps), /*dynamic=*/true);
}

void GraphCtx::prune(std::size_t count) {
    exec_of(graph_.exec_state_).stats.pruned += count;
}

// ---------------------------------------------------------------------------
// Device::submit — one scheduling round-trip for the whole DAG

namespace {

/// Shared state of the resident worker team.  One Device::submit holds the
/// pool's workers in a single ThreadPool::run for the whole graph: the
/// coordinator (worker 0) publishes each kernel node through the packed
/// `dispenser` word ((epoch << 32) | blocks-remaining), every worker — the
/// coordinator included — claims blocks by CAS on that word, and a node is
/// finished the moment `completed` reaches its grid size.  Nobody touches a
/// condition variable until the graph is drained, and a worker that never
/// claims a block never handshakes at all — so on a small grid the
/// coordinator drains the node solo at inline-launch speed while the others
/// keep yielding.  This is where the graph path beats the loop path: N
/// launches cost one park/wake instead of N, with no per-node barrier.
struct Team {
    std::atomic<std::uint64_t> dispenser{0};  ///< (epoch << 32) | remaining
    std::atomic<unsigned> completed{0};       ///< blocks finished this epoch
    std::atomic<bool> stop{false};

    // Published by the coordinator before each dispenser store (release) and
    // read by workers only after a successful claim: the CAS proves the
    // claimed epoch was still current at claim time, and the coordinator
    // cannot republish until `completed` reaches the grid size — which
    // needs every claimed block, ours included, to finish first.
    const LaunchConfig* cfg = nullptr;
    const std::function<void(BlockCtx&)>* body = nullptr;
    std::vector<detail::BlockRecord>* records = nullptr;
    bool sanitizing = false;

    std::mutex error_mutex;
    std::exception_ptr error;
    std::atomic<bool> failed{false};  ///< set with `error`; claims drain fast

    static std::uint64_t pack(std::uint32_t epoch, std::uint32_t remaining) {
        return (static_cast<std::uint64_t>(epoch) << 32) | remaining;
    }

    /// Claims one block of the current epoch; returns false when nothing is
    /// published or every block of the current epoch is already claimed.
    /// On success `epoch` names the claimed node's epoch and `remaining` the
    /// pre-claim count (block id = grid_dim - remaining, computed by the
    /// caller after reading the published grid — safe post-claim).
    bool try_claim(std::uint32_t& epoch, std::uint32_t& remaining) {
        std::uint64_t packed = dispenser.load(std::memory_order_acquire);
        for (;;) {
            epoch = static_cast<std::uint32_t>(packed >> 32);
            remaining = static_cast<std::uint32_t>(packed);
            if (epoch == 0 || remaining == 0) return false;
            if (dispenser.compare_exchange_weak(packed, pack(epoch, remaining - 1),
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
                return true;
            }
        }
    }
};

}  // namespace

GraphStats Device::submit(Graph& graph) {
    if (graph.executing_) {
        throw GraphError("graph: already executing (Device::submit is not reentrant)");
    }
    graph.validate();
    graph.reset_runtime();

    ExecState exec;
    for (Graph::NodeId i = 0; i < graph.nodes_.size(); ++i) {
        if (graph.nodes_[i].unmet == 0) exec.ready.push(i);
    }
    graph.exec_state_ = &exec;
    graph.executing_ = true;
    struct ExecGuard {
        Graph& g;
        ~ExecGuard() {
            g.executing_ = false;
            g.exec_state_ = nullptr;
        }
    } exec_guard{graph};

    const bool sanitizing = sanitize_options_.any();
    ThreadPool& workers_pool = pool();

    // Settling a node (Done or Pruned) releases its dependents; pruning
    // skips the node's own work only.
    std::size_t settled = 0;
    const auto settle = [&](Graph::NodeId id, Graph::State state) {
        Graph::Node& n = graph.nodes_[id];
        n.state = state;
        ++settled;
        bump_progress();  // node-granular heartbeat for watchdogs
        for (const Graph::NodeId s : n.succs) {
            if (--graph.nodes_[s].unmet == 0) exec.ready.push(s);
        }
    };

    // The scheduling loop, parameterized over how a kernel node's blocks
    // are dispatched (inline vs resident team).  Runs host nodes and
    // predicates on the scheduling thread; kernel nodes reuse the exact
    // validation / fault-hook / aggregation core of Device::launch.
    const auto drain = [&](const auto& exec_kernel) {
        while (!exec.ready.empty()) {
            const Graph::NodeId id = exec.ready.top();
            exec.ready.pop();
            Graph::Node& n = graph.nodes_[id];
            if (n.pred && !n.pred()) {
                ++exec.stats.pruned;
                settle(id, Graph::State::Pruned);
                continue;
            }
            if (n.kind == Graph::Kind::Kernel) {
                check_launch(n.cfg);
                n.stats = exec_kernel(n);
                ++exec.stats.kernel_nodes;
                exec.stats.modeled_ms += n.stats.modeled_ms;
                settle(id, Graph::State::Done);
            } else {
                // A host node that enqueues can reallocate nodes_, so `n`
                // and the callable stored in it must not be used across the
                // call: run a local, then put it back by index.
                Graph::HostFn host = std::move(n.host);
                try {
                    GraphCtx ctx(graph, id);
                    host(ctx);
                } catch (...) {
                    graph.nodes_[id].host = std::move(host);
                    throw;
                }
                graph.nodes_[id].host = std::move(host);
                ++exec.stats.host_nodes;
                settle(id, Graph::State::Done);
            }
        }
        if (settled != graph.nodes_.size()) {
            throw GraphError("graph: deadlock — " +
                             std::to_string(graph.nodes_.size() - settled) +
                             " node(s) never became ready (dependency on a node "
                             "that never settled)");
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    if (host_workers_ <= 1) {
        // Sequential path: the scheduling thread runs every block through
        // slot 0, exactly like Device::launch's sequential path.
        workers_pool.reserve_slots(1);
        drain([&](Graph::Node& n) {
            std::vector<detail::BlockRecord> records(n.cfg.grid_dim);
            BlockCtx& ctx = workers_pool.block_ctx(0);
            ctx.configure(n.cfg.block_dim, n.cfg.grid_dim,
                          props_.shared_memory_per_block, thread_order_, /*slot=*/0,
                          exec_mode_, props_.warp_size);
            if (sanitizing) {
                ctx.enable_sanitize(sanitize_options_, n.cfg.name);
            } else {
                ctx.disable_sanitize();
            }
            const auto k0 = std::chrono::steady_clock::now();
            for (unsigned b = 0; b < n.cfg.grid_dim; ++b) {
                detail::run_block(n.body, ctx, cost_model_, b, records[b]);
            }
            const auto k1 = std::chrono::steady_clock::now();
            return finish_launch(
                n.cfg, records,
                std::chrono::duration<double, std::milli>(k1 - k0).count());
        });
    } else {
        Team team;
        const unsigned team_size = host_workers_;
        // Runs one claimed block, capturing any kernel-body exception so the
        // drain stays deterministic; the coordinator rethrows the first one.
        const auto run_claimed = [&](BlockCtx& ctx, unsigned block) {
            if (!team.failed.load(std::memory_order_relaxed)) {
                try {
                    detail::run_block(*team.body, ctx, cost_model_, block,
                                      (*team.records)[block]);
                } catch (...) {
                    const std::scoped_lock lock(team.error_mutex);
                    if (!team.error) team.error = std::current_exception();
                    team.failed.store(true, std::memory_order_release);
                }
            }
            team.completed.fetch_add(1, std::memory_order_release);
        };
        workers_pool.run(team_size, [&](unsigned w) {
            if (w != 0) {
                // Resident worker: claim blocks whenever the dispenser has
                // some, otherwise yield until the coordinator stops the
                // team.  A worker only configures its BlockCtx for a node
                // it actually claims a block of.
                std::uint32_t configured = 0;
                for (;;) {
                    std::uint32_t epoch = 0;
                    std::uint32_t remaining = 0;
                    if (!team.try_claim(epoch, remaining)) {
                        if (team.stop.load(std::memory_order_acquire)) return;
                        std::this_thread::yield();
                        continue;
                    }
                    const LaunchConfig& cfg = *team.cfg;
                    BlockCtx& ctx = workers_pool.block_ctx(w);
                    if (epoch != configured) {
                        ctx.configure(cfg.block_dim, cfg.grid_dim,
                                      props_.shared_memory_per_block, thread_order_,
                                      /*slot=*/w, exec_mode_, props_.warp_size);
                        if (team.sanitizing) {
                            ctx.enable_sanitize(sanitize_options_, cfg.name);
                        } else {
                            ctx.disable_sanitize();
                        }
                        configured = epoch;
                    }
                    run_claimed(ctx, cfg.grid_dim - remaining);
                }
            }
            // Coordinator: drains the DAG, working as block-puller 0 on
            // every kernel node.  Whatever happens, the team must be
            // stopped before this task returns or ThreadPool::run would
            // wait forever on the resident workers.
            std::uint32_t epoch_seq = 0;
            try {
                drain([&](Graph::Node& n) {
                    std::vector<detail::BlockRecord> records(n.cfg.grid_dim);
                    team.cfg = &n.cfg;
                    team.body = &n.body;
                    team.records = &records;
                    team.sanitizing = sanitizing;
                    team.completed.store(0, std::memory_order_relaxed);
                    const auto k0 = std::chrono::steady_clock::now();
                    team.dispenser.store(Team::pack(++epoch_seq, n.cfg.grid_dim),
                                         std::memory_order_release);
                    BlockCtx& ctx = workers_pool.block_ctx(0);
                    ctx.configure(n.cfg.block_dim, n.cfg.grid_dim,
                                  props_.shared_memory_per_block, thread_order_,
                                  /*slot=*/0, exec_mode_, props_.warp_size);
                    if (sanitizing) {
                        ctx.enable_sanitize(sanitize_options_, n.cfg.name);
                    } else {
                        ctx.disable_sanitize();
                    }
                    std::uint32_t epoch = 0;
                    std::uint32_t remaining = 0;
                    while (team.try_claim(epoch, remaining)) {
                        run_claimed(ctx, n.cfg.grid_dim - remaining);
                    }
                    while (team.completed.load(std::memory_order_acquire) !=
                           n.cfg.grid_dim) {
                        std::this_thread::yield();
                    }
                    const auto k1 = std::chrono::steady_clock::now();
                    if (team.failed.load(std::memory_order_acquire)) {
                        const std::scoped_lock lock(team.error_mutex);
                        std::rethrow_exception(std::exchange(team.error, nullptr));
                    }
                    return finish_launch(
                        n.cfg, records,
                        std::chrono::duration<double, std::milli>(k1 - k0).count());
                });
            } catch (...) {
                team.stop.store(true, std::memory_order_release);
                throw;
            }
            team.stop.store(true, std::memory_order_release);
        });
    }
    const auto t1 = std::chrono::steady_clock::now();

    exec.stats.nodes_executed = exec.stats.kernel_nodes + exec.stats.host_nodes;
    exec.stats.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    graph.stats_ = exec.stats;

    graph_telemetry_.graphs += 1;
    graph_telemetry_.nodes += exec.stats.nodes_executed;
    graph_telemetry_.kernel_nodes += exec.stats.kernel_nodes;
    graph_telemetry_.host_nodes += exec.stats.host_nodes;
    graph_telemetry_.device_enqueued += exec.stats.device_enqueued;
    graph_telemetry_.pruned += exec.stats.pruned;
    return graph.stats_;
}

}  // namespace simt
