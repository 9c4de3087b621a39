#include "core/ragged_sort.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/hybrid_phase3.hpp"
#include "core/insertion_sort.hpp"
#include "core/phases.hpp"
#include "core/resilient.hpp"
#include "core/warp_bucket.hpp"

namespace gas {

namespace {

/// Geometry of one ragged array under the shared options.
struct RowPlan {
    std::size_t n = 0;
    std::size_t p = 1;
    std::size_t sample = 1;
};

RowPlan row_plan(std::size_t n, const Options& opts, unsigned block_threads) {
    RowPlan r;
    r.n = n;
    if (n == 0) return r;
    r.p = std::clamp<std::size_t>(n / opts.bucket_target, 1, block_threads);
    r.sample = static_cast<std::size_t>(
        std::llround(opts.sampling_rate * static_cast<double>(n)));
    r.sample = std::min(std::max(r.sample, r.p), n);
    return r;
}

}  // namespace

SortStats sort_ragged_on_device(simt::Device& device, simt::DeviceBuffer<float>& values,
                                std::span<const std::uint64_t> offsets, const Options& opts) {
    SortStats stats;
    if (offsets.size() < 2) return stats;
    const std::size_t num_arrays = offsets.size() - 1;
    stats.num_arrays = num_arrays;

    std::size_t max_n = 0;
    for (std::size_t a = 0; a < num_arrays; ++a) {
        if (offsets[a + 1] < offsets[a]) {
            throw std::invalid_argument("sort_ragged_on_device: offsets not ascending");
        }
        max_n = std::max<std::size_t>(max_n, offsets[a + 1] - offsets[a]);
    }
    if (values.size() < offsets[num_arrays]) {
        throw std::invalid_argument("sort_ragged_on_device: values buffer too small");
    }
    stats.array_size = max_n;
    stats.data_bytes = offsets[num_arrays] * sizeof(float);
    if (max_n == 0) return stats;

    const auto& props = device.props();
    const std::size_t max_p =
        std::clamp<std::size_t>(max_n / opts.bucket_target, 1, props.max_threads_per_block);
    const auto block_threads = static_cast<unsigned>(max_p);
    stats.buckets_per_array = max_p;

    // Shared budget: staged array + splitters + counts + cursors + sample.
    const std::size_t shared_need =
        max_n * sizeof(float) + (max_p + 1) * sizeof(float) +
        2ull * block_threads * sizeof(std::uint32_t);
    if (shared_need > props.shared_memory_per_block) {
        throw std::invalid_argument(
            "sort_ragged_on_device: an array is too large for shared-memory staging (" +
            std::to_string(max_n) + " elements)");
    }

    auto data = values.span();

    // End-to-end verification (gas::resilient): host-side checksums before
    // the fused kernel (a poison-proof baseline — see host_csr_checksums),
    // sortedness + permutation check after.  The ragged driver sorts
    // ascending regardless of opts.order, so the check does too.
    std::vector<std::uint64_t> expected;
    if (opts.verify_output) {
        expected = resilient::host_csr_checksums<float>(std::span<const float>(data), offsets);
    }

    simt::LaunchConfig cfg{"gas.ragged_fused", static_cast<unsigned>(num_arrays), block_threads};
    const simt::KernelStats k = device.launch(cfg, [&](simt::BlockCtx& blk) {
        const std::size_t a = blk.block_idx();
        const std::size_t base = offsets[a];
        const std::size_t n = offsets[a + 1] - offsets[a];
        const RowPlan rp = row_plan(n, opts, block_threads);
        const std::size_t p = rp.p;

        auto sh_splitters = blk.shared_alloc<float>(p + 1);
        auto counts = blk.shared_alloc<std::uint32_t>(block_threads);
        auto starts = blk.shared_alloc<std::uint32_t>(block_threads);
        auto staged = blk.shared_alloc<float>(std::max<std::size_t>(n, 1));
        if (n == 0) return;
        float* array = data.data() + base;

        // Fused phase 1: sample, sort, pick splitters — all in shared memory.
        blk.single_thread([&](simt::ThreadCtx& tc) {
            const std::size_t stride = n / rp.sample;
            // Reuse the staging area's tail as the sample buffer before the
            // array itself is staged.
            std::span<float> sample = staged.subspan(0, rp.sample);
            for (std::size_t k2 = 0; k2 < rp.sample; ++k2) sample[k2] = array[k2 * stride];
            tc.global_random(rp.sample);
            tc.shared(rp.sample);
            const InsertionCost cost = insertion_sort(sample);
            tc.ops(cost.compares + cost.moves);
            tc.shared(2 * (cost.compares + cost.moves));
            sh_splitters[0] = detail::kLowSentinel;
            const std::size_t sstride = rp.sample / p;
            for (std::size_t j = 0; j + 1 < p; ++j) {
                sh_splitters[j + 1] = sample[(j + 1) * sstride];
            }
            sh_splitters[p] = detail::kHighSentinel;
            tc.shared(2 * p);
            tc.ops(p);
        });

        // Stage the array (cooperative, coalesced).
        const auto stage_lane = [&](simt::ThreadCtx& tc) {
            std::uint64_t copied = 0;
            for (std::size_t i = tc.tid(); i < n; i += block_threads) {
                staged[i] = array[i];
                ++copied;
            }
            tc.global_coalesced(copied * sizeof(float));
            tc.shared(copied);
            tc.ops(copied);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (wc.tracked()) {
                wc.for_lanes(stage_lane);
                return;
            }
            detail::warp_stage_rows(array, staged.data(), n, block_threads, wc.lane_begin(),
                                    wc.width());
            for (unsigned l = wc.lane_begin(); l < wc.lane_end(); ++l) {
                const std::uint64_t copied = detail::strided_count(n, l, block_threads);
                wc.coalesced_lane(l, copied * sizeof(float));
                wc.shared_lane(l, copied);
                wc.ops_lane(l, copied);
            }
        });

        // Fused phase 2: count, scan, write back in place.
        const auto count_lane = [&](simt::ThreadCtx& tc) {
            if (tc.tid() >= p) return;  // idle lanes on short arrays
            const float lo = sh_splitters[tc.tid()];
            const float hi = sh_splitters[tc.tid() + 1];
            std::uint32_t c = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const float x = staged[i];
                c += detail::in_bucket(x, lo, hi, tc.tid() == 0) ? 1u : 0u;
            }
            counts[tc.tid()] = c;
            tc.shared(n + 3);
            tc.ops(n * 3);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (wc.tracked()) {
                wc.for_lanes(count_lane);
                return;
            }
            const unsigned wb = wc.lane_begin();
            if (wb >= p) return;  // fully idle warp on short arrays
            const auto w = static_cast<unsigned>(std::min<std::size_t>(wc.lane_end(), p)) - wb;
            detail::warp_count_buckets(staged.data(), n, sh_splitters.data(), wb, w,
                                       counts.data());
            for (unsigned k2 = 0; k2 < w; ++k2) {
                wc.shared_lane(wb + k2, n + 3);
                wc.ops_lane(wb + k2, n * 3);
            }
        });
        std::uint32_t k_max = 0;
        blk.single_thread([&](simt::ThreadCtx& tc) {
            std::uint32_t running = 0;
            std::uint64_t sum = 0;
            for (std::size_t j = 0; j < p; ++j) {
                starts[j] = running;
                const std::uint32_t c = counts[j];
                running += c;
                sum += c;
                if (opts.hybrid_phase3) k_max = std::max(k_max, c);
            }
#ifndef NDEBUG
            if (sum != n) {
                throw std::logic_error("gas.ragged_fused: bucket counts of array " +
                                       std::to_string(a) + " sum to " +
                                       std::to_string(sum) + ", expected " +
                                       std::to_string(n));
            }
#else
            (void)sum;
#endif
            tc.ops(opts.hybrid_phase3 ? 2 * p : p);
            tc.shared(2 * p);
        });
        const auto scatter_lane = [&](simt::ThreadCtx& tc) {
            if (tc.tid() >= p) return;
            const float lo = sh_splitters[tc.tid()];
            const float hi = sh_splitters[tc.tid() + 1];
            std::uint32_t cursor = starts[tc.tid()];
            for (std::size_t i = 0; i < n; ++i) {
                const float x = staged[i];
                if (detail::in_bucket(x, lo, hi, tc.tid() == 0)) array[cursor++] = x;
            }
            const std::uint64_t written = cursor - starts[tc.tid()];
            tc.shared(n + 2);
            tc.ops(n * 3);
            tc.global_coalesced(written * sizeof(float));
            tc.global_random(written > 0 ? 1 : 0);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (wc.tracked()) {
                wc.for_lanes(scatter_lane);
                return;
            }
            const unsigned wb = wc.lane_begin();
            if (wb >= p) return;
            const auto w = static_cast<unsigned>(std::min<std::size_t>(wc.lane_end(), p)) - wb;
            std::array<std::uint32_t, simt::kMaxWarpLanes> cur;
            for (unsigned k2 = 0; k2 < w; ++k2) cur[k2] = starts[wb + k2];
            const float* s = staged.data();
            detail::warp_scatter_buckets(
                s, n, sh_splitters.data(), p, wb, w, cur.data(),
                [&](std::uint32_t dst, std::size_t i) { array[dst] = s[i]; });
            for (unsigned k2 = 0; k2 < w; ++k2) {
                const std::uint64_t written = cur[k2] - starts[wb + k2];
                wc.shared_lane(wb + k2, n + 2);
                wc.ops_lane(wb + k2, n * 3);
                wc.coalesced_lane(wb + k2, written * sizeof(float));
                wc.random_lane(wb + k2, written > 0 ? 1 : 0);
            }
        });

        // Fused phase 3.  Skewed blocks hand over to the hybrid sorter
        // (size-binned scheduling + cooperative bitonic, see
        // hybrid_phase3.hpp); balanced blocks keep the paper's
        // one-lane-per-bucket insertion sort.
        if (opts.hybrid_phase3 && k_max > opts.phase3_small_cutoff) {
            detail::hybrid_phase3_block</*kPairs=*/false, float>(
                blk, props, blk.global_view(data.subspan(base, n)), /*values=*/{}, p,
                [&](std::size_t j) -> std::uint32_t {
                    return j < p ? starts[j] : static_cast<std::uint32_t>(n);
                },
                opts);
            return;
        }
        const auto insert_lane = [&](simt::ThreadCtx& tc) {
            if (tc.tid() >= p) return;
            const std::uint32_t begin = starts[tc.tid()];
            const std::uint32_t end =
                tc.tid() + 1 < p ? starts[tc.tid() + 1] : static_cast<std::uint32_t>(n);
            const std::span<float> bucket{array + begin, array + end};
            const InsertionCost cost = insertion_sort(bucket);
            tc.ops(cost.compares + cost.moves);
            tc.global_random(2ull * bucket.size());
            tc.shared(2);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(insert_lane); });
    });

    stats.phase2 = {k.modeled_ms, k.wall_ms};  // fused kernel reported as one phase
    stats.phase3_imbalance = k.imbalance;
    stats.peak_device_bytes = device.memory().peak_bytes_in_use();
    if (opts.verify_output) {
        const auto vc = resilient::verify_csr_on_device<float>(
            device, std::span<const float>(data), offsets, SortOrder::Ascending, expected);
        stats.verify.modeled_ms += vc.modeled_ms;
        stats.verify.wall_ms += vc.wall_ms;
        if (!vc.ok()) {
            throw resilient::VerifyError("gpu_ragged_sort", vc.unsorted, vc.mismatched);
        }
    }
    return stats;
}

bool ragged_row_fits_shared(std::size_t n, const simt::DeviceProperties& props,
                            std::size_t buffers) {
    if (n == 0) return true;
    // Mirrors the shared-budget checks in sort_ragged_on_device and
    // fused_pair_sort: staged row(s) + splitters + counts + cursors.  The
    // block width is the worst case the whole batch could reach (p grows
    // with the largest fused row), so a row admitted here can never make the
    // fused launch throw regardless of what it is batched with.
    const std::size_t worst_threads = props.max_threads_per_block;
    const std::size_t need = buffers * n * sizeof(float) +
                             (worst_threads + 1) * sizeof(float) +
                             2ull * worst_threads * sizeof(std::uint32_t);
    return need <= props.shared_memory_per_block;
}

SortStats gpu_ragged_sort(simt::Device& device, std::span<float> host_values,
                          std::span<const std::uint64_t> offsets, const Options& opts) {
    SortStats stats;
    if (offsets.size() < 2) return stats;
    simt::DeviceBuffer<float> values(device, host_values.size());
    const double h2d = simt::copy_to_device(std::span<const float>(host_values), values);
    stats = sort_ragged_on_device(device, values, offsets, opts);
    stats.h2d_ms = h2d;
    stats.d2h_ms = simt::copy_to_host(values, host_values);
    return stats;
}

}  // namespace gas
