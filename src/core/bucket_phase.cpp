#include <algorithm>

#include "core/phases.hpp"
#include "core/warp_bucket.hpp"

namespace gas::detail {

namespace {

/// Contiguous segment [begin, end) of an n-element array owned by sub-thread
/// `sub` of `parts` cooperating threads.
struct Segment {
    std::size_t begin;
    std::size_t end;
};

[[nodiscard]] Segment segment_of(std::size_t n, unsigned sub, unsigned parts) {
    const std::size_t per = n / parts;
    const std::size_t begin = static_cast<std::size_t>(sub) * per;
    const std::size_t end = sub + 1 == parts ? n : begin + per;
    return {begin, end};
}

/// Charges the cost of one thread reading the whole staged array: shared
/// accesses when staged in shared memory; a per-warp broadcast stream of
/// global reads otherwise (all lanes of a warp touch the same address in
/// lock-step, so one transaction serves the warp).
void charge_scan(simt::ThreadCtx& tc, std::size_t elements, bool staged_in_shared,
                 std::size_t elem_size) {
    if (staged_in_shared) {
        tc.shared(elements);
    } else if (tc.tid() % 32 == 0) {
        tc.global_coalesced(elements * elem_size);
    }
    tc.ops(elements * 3);  // compare pair + count/index bookkeeping
}

/// Warp-region twin of charge_scan: identical per-lane charges, written
/// through the bulk helpers (all lanes scan the same `elements` when
/// tpb == 1, the only shape the fast path takes).
void charge_warp_scan(simt::WarpCtx& wc, std::size_t elements, bool staged_in_shared,
                      std::size_t elem_size) {
    if (staged_in_shared) {
        wc.shared_uniform(elements);
    } else {
        for (unsigned l = wc.lane_begin(); l < wc.lane_end(); ++l) {
            if (l % 32 == 0) wc.coalesced_lane(l, elements * elem_size);
        }
    }
    wc.ops_uniform(elements * 3);
}

}  // namespace

template <typename T>
KernelSpec bucket_phase_spec(std::span<T> data, std::size_t num_arrays,
                             const SortPlan& plan, const Options& opts,
                             std::span<const T> splitters,
                             std::span<std::uint32_t> bucket_sizes, std::span<T> scratch,
                             std::size_t scratch_rows) {
    const std::size_t n = plan.array_size;
    const std::size_t p = plan.buckets;
    const std::size_t spa = plan.splitters_per_array;
    const unsigned tpb =
        opts.strategy == BucketingStrategy::ScanPerThread ? opts.threads_per_bucket : 1;
    const unsigned threads = static_cast<unsigned>(p) * tpb;
    const bool use_shared = plan.array_fits_shared;
    const BucketingStrategy strategy = opts.strategy;

    simt::LaunchConfig cfg{"gas.phase2_bucketing", static_cast<unsigned>(num_arrays), threads};
    auto kernel = [=](simt::BlockCtx& blk) {
        // Shared state: the staged array (when it fits), the splitter
        // sub-array sp_i (always; tiny but hot, per section 5.2), per-thread
        // match counts and per-thread write cursors.
        auto sh_splitters = blk.shared_alloc<T>(spa);
        auto counts = blk.shared_alloc<std::uint32_t>(threads);
        auto starts = blk.shared_alloc<std::uint32_t>(threads);
        simt::sanitize::TrackedSpan<T> staged;
        if (use_shared) {
            staged = blk.shared_alloc<T>(n);
        } else {
            // One scratch row per execution slot: unique among concurrently
            // resident blocks (see BlockCtx::slot), so the fallback stays
            // race-free under multi-worker simulation.
            staged = blk.global_view(scratch.subspan((blk.slot() % scratch_rows) * n, n));
        }

        // One lane per bucket, warp mode and no sanitizer: phase 2 runs
        // once per block on the host (warp_bucket.hpp) and each warp only
        // charges its lanes.  Every other shape runs the lane bodies.
        const bool one_pass = blk.exec_mode() == simt::ExecMode::Warp &&
                              blk.sanitizer() == nullptr && tpb == 1;

        const std::size_t a = blk.block_idx();
        auto array = blk.global_view(data.subspan(a * n, n));
        auto sp_global = blk.global_view(splitters.subspan(a * spa, spa));
        auto z_row = blk.global_view(bucket_sizes.subspan(a * p, p));

        // Region 1: cooperative staging.  Thread t copies elements t, t+T,
        // t+2T, ... so consecutive lanes touch consecutive addresses.
        const auto stage_lane = [&](simt::ThreadCtx& tc) {
            std::uint64_t copied = 0;
            for (std::size_t i = tc.tid(); i < n; i += threads) {
                staged[i] = array[i];
                ++copied;
            }
            tc.global_coalesced(copied * sizeof(T));
            if (use_shared) {
                tc.shared(copied);
            } else {
                tc.global_coalesced(copied * sizeof(T));  // scratch write
            }
            // spa = p + 1 entries over p*tpb threads: stride so the high
            // sentinel at index p is staged too.
            for (std::size_t i = tc.tid(); i < spa; i += threads) {
                sh_splitters[i] = sp_global[i];
                tc.global_coalesced(sizeof(T));
                tc.shared(1);
            }
            tc.ops(copied + 2);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (wc.tracked()) {
                wc.for_lanes(stage_lane);
                return;
            }
            const unsigned wb = wc.lane_begin();
            const unsigned w = wc.width();
            warp_stage_rows(array.data(), staged.data(), n, threads, wb, w);
            warp_stage_rows(sp_global.data(), sh_splitters.data(), spa, threads, wb, w);
            for (unsigned l = wb; l < wb + w; ++l) {
                const std::uint64_t copied = strided_count(n, l, threads);
                const std::uint64_t sp_copied = strided_count(spa, l, threads);
                wc.coalesced_lane(l, ((use_shared ? 1 : 2) * copied + sp_copied) * sizeof(T));
                wc.shared_lane(l, (use_shared ? copied : 0) + sp_copied);
                wc.ops_lane(l, copied + 2);
            }
        });

        if (strategy == BucketingStrategy::ScanPerThread) {
            // Region 2 (Algorithm 2): thread t = j*tpb + sub owns bucket j's
            // splitter pair and scans its segment of the array, counting the
            // elements that fall within the pair.  The predicate is evaluated
            // unconditionally for every element, so all lanes of a warp run
            // the identical instruction stream (no branch divergence).
            const auto count_lane = [&](simt::ThreadCtx& tc) {
                const unsigned j = tc.tid() / tpb;
                const auto seg = segment_of(n, tc.tid() % tpb, tpb);
                const T lo = sh_splitters[j];
                const T hi = sh_splitters[j + 1];
                std::uint32_t c = 0;
                for (std::size_t i = seg.begin; i < seg.end; ++i) {
                    const T x = staged[i];
                    c += in_bucket(x, lo, hi, j == 0) ? 1u : 0u;
                }
                counts[tc.tid()] = c;
                tc.shared(2 + 1);
                charge_scan(tc, seg.end - seg.begin, use_shared, sizeof(T));
            };
            if (one_pass) {
                bucket_block(staged.data(), n, sh_splitters.data(), p, counts.data());
            }
            blk.for_each_warp([&](simt::WarpCtx& wc) {
                if (!one_pass) {
                    wc.for_lanes(count_lane);
                    return;
                }
                wc.shared_uniform(2 + 1);
                charge_warp_scan(wc, n, use_shared, sizeof(T));
            });
        } else {
            // Extension: each thread scans a contiguous chunk and binary
            // searches the splitters per element; counts[j] accumulates via
            // (simulated) shared atomics.  Atomic increments make the region
            // order-sensitive, so warp mode runs the reference lane bodies
            // (in scalar lane order) rather than an element-major rewrite.
            const auto zero_lane = [&](simt::ThreadCtx& tc) {
                if (tc.tid() == 0) {
                    for (unsigned t = 0; t < threads; ++t) counts[t] = 0;
                }
            };
            blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(zero_lane); });
            const auto search_count_lane = [&](simt::ThreadCtx& tc) {
                const auto seg = segment_of(n, tc.tid(), threads);
                for (std::size_t i = seg.begin; i < seg.end; ++i) {
                    const T x = staged[i];
                    const auto it = std::lower_bound(
                        sh_splitters.begin() + 1,
                        sh_splitters.begin() + static_cast<std::ptrdiff_t>(p), x);
                    const auto j = static_cast<std::size_t>(it - (sh_splitters.begin() + 1));
                    counts.atomic_fetch_add(j, 1);  // shared atomic on real HW
                }
                const auto len = static_cast<std::uint64_t>(seg.end - seg.begin);
                charge_scan(tc, seg.end - seg.begin, use_shared, sizeof(T));
                // log2(p) probes + one atomic per element.
                std::uint64_t logp = 1;
                while ((1ull << logp) < p) ++logp;
                tc.shared(len * (logp + 1));
                tc.ops(len * logp);
            };
            blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(search_count_lane); });
        }

        // Region 3: thread 0 exclusive-scans the counts into write cursors
        // (counts are bucket-major, so the scan yields the in-place bucket
        // layout directly) and records the bucket sizes Z (Definition 4).
        blk.single_thread([&](simt::ThreadCtx& tc) {
            std::uint32_t running = 0;
            for (unsigned t = 0; t < threads; ++t) {
                starts[t] = running;
                running += counts[t];
            }
            for (std::size_t j = 0; j < p; ++j) {
                std::uint32_t z = 0;
                for (unsigned s = 0; s < tpb; ++s) z += counts[j * tpb + s];
                z_row[j] = z;
            }
            tc.ops(threads + p * tpb);
            tc.shared(2ull * threads + p * tpb);
            tc.global_coalesced(p * sizeof(std::uint32_t));
        });

        // Region 4: parallel in-place write-back (the paper's key memory
        // saving: the buckets land over the source array itself).  Each
        // thread's output range is private (from the exclusive scan), so the
        // region is race-free.
        if (strategy == BucketingStrategy::ScanPerThread) {
            const auto scatter_lane = [&](simt::ThreadCtx& tc) {
                const unsigned j = tc.tid() / tpb;
                const auto seg = segment_of(n, tc.tid() % tpb, tpb);
                const T lo = sh_splitters[j];
                const T hi = sh_splitters[j + 1];
                std::uint32_t cursor = starts[tc.tid()];
                for (std::size_t i = seg.begin; i < seg.end; ++i) {
                    const T x = staged[i];
                    if (in_bucket(x, lo, hi, j == 0)) {
                        array[cursor++] = x;
                    }
                }
                // One contiguous run per thread: its bytes stream coalesced
                // after the first segment touch.
                const std::uint64_t written = cursor - starts[tc.tid()];
                tc.global_coalesced(written * sizeof(T));
                tc.global_random(written > 0 ? 1 : 0);
                tc.shared(2 + 1);
                charge_scan(tc, seg.end - seg.begin, use_shared, sizeof(T));
            };
            if (one_pass) {
                T* out = array.data();
                const T* s = staged.data();
                scatter_block(n, starts.data(), p,
                              [&](std::uint32_t dst, std::size_t i) { out[dst] = s[i]; });
            }
            blk.for_each_warp([&](simt::WarpCtx& wc) {
                if (!one_pass) {
                    wc.for_lanes(scatter_lane);
                    return;
                }
                // Lane j wrote its whole bucket as one contiguous run.
                const std::uint32_t* written = counts.data();
                for (unsigned l = wc.lane_begin(); l < wc.lane_end(); ++l) {
                    wc.coalesced_lane(l, std::uint64_t{written[l]} * sizeof(T));
                    wc.random_lane(l, written[l] > 0 ? 1 : 0);
                }
                wc.shared_uniform(2 + 1);
                charge_warp_scan(wc, n, use_shared, sizeof(T));
            });
        } else {
            // starts[j] from region 3 are the bucket base offsets (counts are
            // per bucket when tpb == 1); threads advance them as shared
            // atomic cursors here.  Order-sensitive (atomic cursors), so warp
            // mode replays the reference lane bodies in scalar lane order.
            const auto search_scatter_lane = [&](simt::ThreadCtx& tc) {
                const auto seg = segment_of(n, tc.tid(), threads);
                for (std::size_t i = seg.begin; i < seg.end; ++i) {
                    const T x = staged[i];
                    const auto it = std::lower_bound(
                        sh_splitters.begin() + 1,
                        sh_splitters.begin() + static_cast<std::ptrdiff_t>(p), x);
                    const auto j = static_cast<std::size_t>(it - (sh_splitters.begin() + 1));
                    array[starts.atomic_fetch_add(j, 1)] = x;  // shared atomic cursor on real HW
                }
                const auto len = static_cast<std::uint64_t>(seg.end - seg.begin);
                charge_scan(tc, seg.end - seg.begin, use_shared, sizeof(T));
                std::uint64_t logp = 1;
                while ((1ull << logp) < p) ++logp;
                tc.shared(len * (logp + 2));
                tc.ops(len * logp);
                tc.global_random(len);  // scattered writes
            };
            blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(search_scatter_lane); });
        }
    };
    return {cfg, std::move(kernel)};
}

#define GAS_INSTANTIATE(T)                                                                 \
    template KernelSpec bucket_phase_spec<T>(                                              \
        std::span<T>, std::size_t, const SortPlan&, const Options&, std::span<const T>,    \
        std::span<std::uint32_t>, std::span<T>, std::size_t);
GAS_INSTANTIATE(float)
GAS_INSTANTIATE(double)
GAS_INSTANTIATE(std::uint32_t)
GAS_INSTANTIATE(std::int32_t)
#undef GAS_INSTANTIATE

}  // namespace gas::detail
