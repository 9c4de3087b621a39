#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "simt/counters.hpp"
#include "simt/error.hpp"
#include "simt/sanitize/tracked_span.hpp"

namespace simt {

/// Order in which a block's logical threads are executed by the simulator.
///
/// Kernels written for the barrier-synchronous contract (no lane reads data
/// another lane wrote *within the same thread region*) must produce identical
/// results under every order; tests exploit this to detect intra-region races.
enum class ThreadOrder { Forward, Reverse };

/// How the interpreter walks a block's lanes.
///
///  * Scalar — the reference interpreter: one lane at a time, exactly the
///    pre-warp behavior.
///  * Warp — the fast path and the default: `for_each_warp` regions
///    receive a whole warp-sized lane group per call, so migrated kernels
///    amortize lambda dispatch and run their bodies once per warp or once
///    per block.
///
/// The two modes are contractually bit-identical: same output bytes, same
/// KernelStats (asserted by the execution-mode equivalence sweep).  Warp
/// mode preserves the scalar total lane order — Forward walks warps then
/// lanes ascending, Reverse walks both descending — so even kernels whose
/// shared-atomic interleavings are order-sensitive match byte-for-byte.
enum class ExecMode { Scalar, Warp };

[[nodiscard]] constexpr const char* to_string(ExecMode mode) {
    return mode == ExecMode::Warp ? "warp" : "scalar";
}

/// Execution mode from the SIMT_EXEC environment variable: "scalar" selects
/// the reference interpreter, "warp"/empty/unset the fast path.  Any other
/// value is a loud configuration error, not a silent fallback.
[[nodiscard]] inline ExecMode exec_mode_from_env() {
    const char* v = std::getenv("SIMT_EXEC");
    if (v == nullptr || *v == '\0' || std::string_view(v) == "warp") return ExecMode::Warp;
    if (std::string_view(v) == "scalar") return ExecMode::Scalar;
    throw DeviceError(std::string("SIMT_EXEC: unknown execution mode '") + v +
                      "' (expected scalar|warp)");
}

/// Upper bound on lanes handed to one WarpCtx; kernels may size their
/// per-lane stack temporaries (cursor/count arrays) with this constant.
inline constexpr unsigned kMaxWarpLanes = 32;

/// One-dimensional launch configuration.  The paper's kernels are all 1-D
/// (one block per array, one thread per bucket), so the substrate keeps the
/// grid 1-D; nothing in the model depends on higher dimensionality.
struct LaunchConfig {
    std::string name = "kernel";
    unsigned grid_dim = 1;   ///< number of blocks
    unsigned block_dim = 1;  ///< threads per block
};

/// Handle passed to per-thread code: identifies the lane and receives its
/// self-reported work counters.
class ThreadCtx {
  public:
    ThreadCtx(unsigned tid, unsigned block_dim, LaneCounters& counters)
        : tid_(tid), block_dim_(block_dim), counters_(&counters) {}

    [[nodiscard]] unsigned tid() const { return tid_; }
    [[nodiscard]] unsigned block_dim() const { return block_dim_; }

    /// `n` simple ALU operations (compares, adds, index math).
    void ops(std::uint64_t n) { counters_->ops += n; }
    /// `n` shared-memory accesses.
    void shared(std::uint64_t n) { counters_->shared_accesses += n; }
    /// `bytes` of global memory moved with warp-coalesced addressing.
    void global_coalesced(std::uint64_t bytes) { counters_->coalesced_bytes += bytes; }
    /// `n` scattered global accesses (each costs a full DRAM segment).
    void global_random(std::uint64_t n) { counters_->random_accesses += n; }

  private:
    unsigned tid_;
    unsigned block_dim_;
    LaneCounters* counters_;
};

/// Handle passed to warp-region code: one warp-sized group of lanes
/// [lane_begin, lane_end) executed in lockstep.  Under ExecMode::Scalar the
/// group is a single lane, so a kernel written against WarpCtx runs
/// unchanged — and bit-identically — in both modes.
///
/// Counter contract (DESIGN.md "execution modes"):
///  * `*_uniform` charges every lane of the group the same amount — legal
///    exactly when all lanes did the same work (the lockstep common case).
///    Charges accumulate into one record and are folded into the per-lane
///    counters once, when the region ends, instead of 32 times per call.
///  * `*_lane` is the divergence escape hatch: lanes whose work differs
///    (ragged tails, broadcast lanes, per-lane match counts) are charged
///    individually, keeping BlockCost and imbalance exact.
///  * `for_lanes(fn)` runs the classic per-lane body (ThreadCtx, shadow
///    lane attribution, scalar iteration order) for the group — the
///    reference fallback every migrated kernel uses when `tracked()`.
class WarpCtx {
  public:
    WarpCtx(unsigned lane_begin, unsigned lane_end, unsigned block_dim, ThreadOrder order,
            std::span<LaneCounters> lanes, sanitize::SlotShadow* shadow)
        : lane_begin_(lane_begin),
          lane_end_(lane_end),
          block_dim_(block_dim),
          order_(order),
          lanes_(lanes),
          shadow_(shadow) {}

    WarpCtx(const WarpCtx&) = delete;
    WarpCtx& operator=(const WarpCtx&) = delete;

    /// First lane (global tid) of this group.
    [[nodiscard]] unsigned lane_begin() const { return lane_begin_; }
    /// One past the last lane of this group.
    [[nodiscard]] unsigned lane_end() const { return lane_end_; }
    /// Active lane count (1 in scalar mode; up to the warp size otherwise).
    [[nodiscard]] unsigned width() const { return lane_end_ - lane_begin_; }
    [[nodiscard]] unsigned block_dim() const { return block_dim_; }

    /// True when the sanitizer shadow is attached: vectorized bodies must
    /// fall back to `for_lanes` so every access is tracked and attributed
    /// to its lane exactly as the scalar interpreter would.
    [[nodiscard]] bool tracked() const { return shadow_ != nullptr; }

    /// Attributes subsequent tracked accesses to `lane` (no-op untracked);
    /// for custom tracked warp bodies that interleave lanes themselves.
    void set_lane(unsigned lane) {
        if (shadow_ != nullptr) shadow_->set_lane(lane);
    }

    /// Uniform charges: every lane of the group did `n` of the named work.
    void ops_uniform(std::uint64_t n) { uniform_.ops += n; }
    void shared_uniform(std::uint64_t n) { uniform_.shared_accesses += n; }
    void coalesced_uniform(std::uint64_t bytes) { uniform_.coalesced_bytes += bytes; }
    void random_uniform(std::uint64_t n) { uniform_.random_accesses += n; }

    /// Per-lane charges (divergence escape hatch); `lane` is the global tid.
    void ops_lane(unsigned lane, std::uint64_t n) { delta_[lane - lane_begin_].ops += n; }
    void shared_lane(unsigned lane, std::uint64_t n) {
        delta_[lane - lane_begin_].shared_accesses += n;
    }
    void coalesced_lane(unsigned lane, std::uint64_t bytes) {
        delta_[lane - lane_begin_].coalesced_bytes += bytes;
    }
    void random_lane(unsigned lane, std::uint64_t n) {
        delta_[lane - lane_begin_].random_accesses += n;
    }

    /// Reference per-lane execution of this group: `fn(ThreadCtx&)` once per
    /// lane, in the scalar interpreter's order (ascending under Forward,
    /// descending under Reverse), with shadow lane attribution.  Counters
    /// charged through the ThreadCtx are the lane's real counters.
    template <typename F>
    void for_lanes(F&& fn) {
        if (order_ == ThreadOrder::Forward) {
            for (unsigned t = lane_begin_; t < lane_end_; ++t) run_lane(fn, t);
        } else {
            for (unsigned t = lane_end_; t-- > lane_begin_;) run_lane(fn, t);
        }
    }

    /// Folds the accumulated uniform + per-lane charges into the block's
    /// lane counters (one pass per region; called by for_each_warp).
    void flush() {
        for (unsigned t = lane_begin_; t < lane_end_; ++t) {
            lanes_[t] += uniform_;
            lanes_[t] += delta_[t - lane_begin_];
        }
        uniform_ = LaneCounters{};
        delta_.fill(LaneCounters{});
    }

  private:
    template <typename F>
    void run_lane(F&& fn, unsigned t) {
        if (shadow_ != nullptr) shadow_->set_lane(t);
        ThreadCtx tc(t, block_dim_, lanes_[t]);
        fn(tc);
    }

    unsigned lane_begin_;
    unsigned lane_end_;
    unsigned block_dim_;
    ThreadOrder order_;
    std::span<LaneCounters> lanes_;
    sanitize::SlotShadow* shadow_;
    LaneCounters uniform_{};
    std::array<LaneCounters, kMaxWarpLanes> delta_{};
};

/// Execution context of one block: thread iteration, shared memory, counters.
///
/// `for_each_thread(fn)` runs `fn(ThreadCtx&)` once per logical thread.
/// Consecutive calls are separated by an implicit `__syncthreads()`; within
/// one call, lanes must be independent (the CUDA race-free contract between
/// barriers).  The simulator may run lanes in forward or reverse order.
class BlockCtx {
  public:
    /// An unconfigured context (a pooled execution slot awaiting its first
    /// launch); configure() must run before any block does.
    BlockCtx() = default;

    BlockCtx(unsigned block_dim, unsigned grid_dim, std::size_t shared_capacity,
             ThreadOrder order, unsigned slot = 0)
        : grid_dim_(grid_dim),
          block_dim_(block_dim),
          slot_(slot),
          shared_capacity_(shared_capacity),
          order_(order),
          shared_(shared_capacity),
          lanes_(block_dim) {}

    /// Capacity ratio beyond which configure() trims pooled storage: one
    /// oversized launch may not pin more than 4x a later launch's request
    /// in every pool slot for the device's lifetime.
    static constexpr std::size_t kTrimFactor = 4;

    /// Re-targets the context at a new launch shape, reusing the shared
    /// arena and lane storage already held (persistent-pool slot reuse: no
    /// per-launch 48 KB allocation).  Resets the shared high-water mark so a
    /// reused slot never reports a previous launch's footprint.  Like fresh
    /// construction, arena *contents* are unspecified — kernels own
    /// initializing what they read, exactly as with __shared__ memory.
    /// Storage kept across launches is trimmed once it exceeds kTrimFactor
    /// times the current request, bounding pool-slot bloat.
    void configure(unsigned block_dim, unsigned grid_dim, std::size_t shared_capacity,
                   ThreadOrder order, unsigned slot, ExecMode exec_mode = ExecMode::Scalar,
                   unsigned warp_size = kMaxWarpLanes) {
        grid_dim_ = grid_dim;
        block_dim_ = block_dim;
        slot_ = slot;
        shared_capacity_ = shared_capacity;
        order_ = order;
        exec_mode_ = exec_mode;
        warp_size_ = std::clamp(warp_size, 1u, kMaxWarpLanes);
        shared_used_ = 0;
        shared_high_water_ = 0;
        if (shared_.size() < shared_capacity_) {
            shared_.resize(shared_capacity_);
        } else if (shared_.size() > kTrimFactor * std::max<std::size_t>(shared_capacity_, 1)) {
            shared_.resize(shared_capacity_);
            shared_.shrink_to_fit();
        }
        lanes_.resize(block_dim_);
        if (lanes_.capacity() > kTrimFactor * std::max<std::size_t>(block_dim_, 1)) {
            lanes_.shrink_to_fit();
        }
    }

    [[nodiscard]] unsigned block_idx() const { return block_idx_; }
    [[nodiscard]] unsigned grid_dim() const { return grid_dim_; }
    [[nodiscard]] unsigned block_dim() const { return block_dim_; }
    [[nodiscard]] ExecMode exec_mode() const { return exec_mode_; }
    [[nodiscard]] unsigned warp_size() const { return warp_size_; }

    /// Pooled-storage introspection for the configure() trim-policy tests.
    [[nodiscard]] std::size_t shared_arena_bytes() const { return shared_.size(); }
    [[nodiscard]] std::size_t lane_capacity() const { return lanes_.capacity(); }

    /// Execution-slot id (0-based), analogous to "which SM slot is this
    /// block resident on": stable across the block's lifetime, unique among
    /// *concurrently executing* blocks.  Kernels that need a per-resident-
    /// block scratch row (e.g. phase 2's global fallback) key it off this,
    /// never off block_idx, so the multi-worker simulator stays race-free.
    [[nodiscard]] unsigned slot() const { return slot_; }

    /// Bump-allocates `count` Ts from the block's shared-memory arena.
    /// Contents persist across thread regions within the block (like
    /// __shared__ variables) and are invalidated when the next block starts.
    /// The returned view converts implicitly to std::span; with the
    /// sanitizer enabled its indexed accesses feed the slot's shadow state.
    template <typename T>
    sanitize::TrackedSpan<T> shared_alloc(std::size_t count) {
        const std::size_t align = alignof(T);
        std::size_t off = (shared_used_ + align - 1) / align * align;
        const std::size_t bytes = count * sizeof(T);
        if (off + bytes > shared_capacity_) {
            throw SharedMemoryOverflow(off + bytes, shared_capacity_);
        }
        shared_used_ = off + bytes;
        shared_high_water_ = std::max(shared_high_water_, shared_used_);
        // Shared arena is raw storage; T must be trivially constructible the
        // way __shared__ arrays are.
        static_assert(std::is_trivially_copyable_v<T>);
        return {{reinterpret_cast<T*>(shared_.data() + off), count},
                shadow_,
                sanitize::MemSpace::Shared,
                off};
    }

    /// Checked view over a device-global range (a DeviceBuffer span or a
    /// sub-range of one).  Untracked — a plain span in tracked clothing —
    /// when the sanitizer is off.
    template <typename T>
    [[nodiscard]] sanitize::TrackedSpan<T> global_view(std::span<T> s) const {
        return {s, shadow_, sanitize::MemSpace::Global, 0};
    }

    /// Runs `fn(ThreadCtx&)` for every thread of the block; an implicit
    /// barrier separates consecutive calls.
    template <typename F>
    void for_each_thread(F&& fn) {
        if (shadow_ != nullptr) shadow_->begin_region();
        if (order_ == ThreadOrder::Forward) {
            for (unsigned t = 0; t < block_dim_; ++t) {
                if (shadow_ != nullptr) shadow_->set_lane(t);
                ThreadCtx tc(t, block_dim_, lanes_[t]);
                fn(tc);
            }
        } else {
            for (unsigned t = block_dim_; t-- > 0;) {
                if (shadow_ != nullptr) shadow_->set_lane(t);
                ThreadCtx tc(t, block_dim_, lanes_[t]);
                fn(tc);
            }
        }
    }

    /// Runs `fn(WarpCtx&)` once per lane group; an implicit barrier
    /// separates consecutive calls, exactly like for_each_thread.  Under
    /// ExecMode::Scalar each group is one lane walked in ThreadOrder — the
    /// reference interpretation.  Under ExecMode::Warp each group is a full
    /// warp (the last may be ragged), groups and in-group lanes both follow
    /// ThreadOrder, so the total lane order matches scalar mode exactly.
    ///
    /// Warp bodies either iterate lanes via WarpCtx::for_lanes (the
    /// reference body, mandatory when WarpCtx::tracked()) or run an
    /// element-major vectorized loop over the lane range, charging counters
    /// through the uniform/per-lane helpers so stats stay bit-identical.
    template <typename F>
    void for_each_warp(F&& fn) {
        if (shadow_ != nullptr) shadow_->begin_region();
        const unsigned step = exec_mode_ == ExecMode::Warp ? warp_size_ : 1;
        const unsigned groups = (block_dim_ + step - 1) / step;
        for (unsigned g = 0; g < groups; ++g) {
            const unsigned gg = order_ == ThreadOrder::Forward ? g : groups - 1 - g;
            const unsigned begin = gg * step;
            const unsigned end = std::min(begin + step, block_dim_);
            WarpCtx wc(begin, end, block_dim_, order_, lanes_, shadow_);
            fn(wc);
            wc.flush();
        }
    }

    /// Runs `fn(ThreadCtx&)` on thread 0 only (e.g. per-block prefix sums),
    /// with the same barrier semantics as a full region.
    template <typename F>
    void single_thread(F&& fn) {
        if (shadow_ != nullptr) {
            shadow_->begin_region();
            shadow_->set_lane(0);
        }
        ThreadCtx tc(0, block_dim_, lanes_[0]);
        fn(tc);
    }

    [[nodiscard]] std::size_t shared_used() const { return shared_used_; }
    [[nodiscard]] std::size_t shared_high_water() const { return shared_high_water_; }
    [[nodiscard]] std::span<const LaneCounters> lanes() const { return lanes_; }

    /// Re-arms the context for the next block (launch-engine internal).
    void begin_block(unsigned block_idx) {
        block_idx_ = block_idx;
        shared_used_ = 0;
        lanes_.assign(block_dim_, LaneCounters{});
        if (shadow_ != nullptr) shadow_->begin_block(block_idx);
    }

    /// Attaches the sanitizer to this execution slot for the upcoming launch
    /// (launch-engine internal).  The shadow state itself is owned by the
    /// slot and persists across launches, mirroring the shared arena, so a
    /// pooled slot's init tracking genuinely observes arena reuse.
    void enable_sanitize(const sanitize::SanitizeOptions& opts, const std::string& kernel) {
        if (!shadow_store_) shadow_store_ = std::make_unique<sanitize::SlotShadow>();
        shadow_store_->configure(opts, shared_capacity_);
        shadow_store_->begin_launch(kernel, block_dim_);
        shadow_ = shadow_store_.get();
    }
    /// Detaches the sanitizer: subsequent launches pay zero instrumentation.
    void disable_sanitize() { shadow_ = nullptr; }
    [[nodiscard]] sanitize::SlotShadow* sanitizer() { return shadow_; }

  private:
    unsigned block_idx_ = 0;
    unsigned grid_dim_ = 0;
    unsigned block_dim_ = 0;
    unsigned slot_ = 0;
    std::size_t shared_capacity_ = 0;
    std::size_t shared_used_ = 0;
    std::size_t shared_high_water_ = 0;
    ThreadOrder order_ = ThreadOrder::Forward;
    ExecMode exec_mode_ = ExecMode::Scalar;
    unsigned warp_size_ = kMaxWarpLanes;
    std::vector<std::byte> shared_;
    std::vector<LaneCounters> lanes_;
    sanitize::SlotShadow* shadow_ = nullptr;  ///< null = sanitizer off (default)
    std::unique_ptr<sanitize::SlotShadow> shadow_store_;
};

}  // namespace simt
