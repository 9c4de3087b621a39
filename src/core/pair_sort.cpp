#include "core/pair_sort.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/device_ops.hpp"
#include "core/fused_sort.hpp"
#include "core/hybrid_phase3.hpp"
#include "core/insertion_sort.hpp"
#include "core/phases.hpp"
#include "core/resilient.hpp"
#include "core/warp_bucket.hpp"

namespace gas {

namespace detail {

namespace {

/// Buckets and sample size of one n-element row: make_plan's rules,
/// evaluated per block, with the block width as the bucket cap.
struct RowShape {
    std::size_t p = 1;
    std::size_t sample = 1;
};

RowShape row_shape(std::size_t n, const Options& opts, unsigned block_threads) {
    RowShape r;
    if (n == 0) return r;
    r.p = std::clamp<std::size_t>(n / opts.bucket_target, 1, block_threads);
    r.sample = static_cast<std::size_t>(
        std::llround(opts.sampling_rate * static_cast<double>(n)));
    r.sample = std::min(std::max(r.sample, r.p), n);
    return r;
}

}  // namespace

/// The fused sample-sort kernel: one block per row, splitters / counts /
/// cursors never leave shared memory, everything lands back in place.  Keys
/// decide the buckets; with kPairs the value row is staged, scattered and
/// insertion-sorted alongside, and every per-plane charge doubles.
template <typename T, bool kPairs>
simt::KernelStats fused_sort(simt::Device& device, std::span<T> keys, std::span<T> values,
                             std::span<const std::uint64_t> offsets, unsigned block_threads,
                             const Options& opts) {
    constexpr std::uint64_t kPlanes = kPairs ? 2 : 1;
    const auto& props = device.props();
    const simt::LaunchConfig cfg{kPairs ? "gas.pair_sort_fused" : "gas.ragged_fused",
                                 static_cast<unsigned>(offsets.size() - 1), block_threads};
    return device.launch(cfg, [&](simt::BlockCtx& blk) {
        const std::size_t base = offsets[blk.block_idx()];
        const std::size_t n = offsets[blk.block_idx() + 1] - base;
        const RowShape shape = row_shape(n, opts, block_threads);
        const std::size_t p = shape.p;

        auto sh_splitters = blk.shared_alloc<T>(p + 1);
        auto counts = blk.shared_alloc<std::uint32_t>(block_threads);
        auto starts = blk.shared_alloc<std::uint32_t>(block_threads);
        auto staged_k = blk.shared_alloc<T>(std::max<std::size_t>(n, 1));
        simt::sanitize::TrackedSpan<T> staged_v;
        if constexpr (kPairs) staged_v = blk.shared_alloc<T>(std::max<std::size_t>(n, 1));
        if (n == 0) return;
        T* key_row = keys.data() + base;
        T* val_row = kPairs ? values.data() + base : nullptr;

        // Phase 1 (fused): sample the keys, insertion-sort the sample, pick
        // splitters — all in shared memory, one thread (paper section 5.1).
        blk.single_thread([&](simt::ThreadCtx& tc) {
            const std::size_t stride = n / shape.sample;
            // The staging area doubles as the sample buffer before the row
            // itself is staged.
            std::span<T> sample = staged_k.subspan(0, shape.sample);
            for (std::size_t s = 0; s < shape.sample; ++s) sample[s] = key_row[s * stride];
            tc.global_random(shape.sample);
            tc.shared(shape.sample);
            const InsertionCost cost = insertion_sort(sample);
            tc.ops(cost.compares + cost.moves);
            tc.shared(2 * (cost.compares + cost.moves));
            sh_splitters[0] = low_sentinel<T>();
            const std::size_t sstride = shape.sample / p;
            for (std::size_t j = 0; j + 1 < p; ++j) {
                sh_splitters[j + 1] = sample[(j + 1) * sstride];
            }
            sh_splitters[p] = high_sentinel<T>();
            tc.shared(2 * p);
            tc.ops(p);
        });

        // Stage the row(s) (cooperative, coalesced).
        const auto stage_lane = [&](simt::ThreadCtx& tc) {
            std::uint64_t copied = 0;
            for (std::size_t i = tc.tid(); i < n; i += block_threads) {
                staged_k[i] = key_row[i];
                if constexpr (kPairs) staged_v[i] = val_row[i];
                ++copied;
            }
            tc.global_coalesced(kPlanes * copied * sizeof(T));
            tc.shared(kPlanes * copied);
            tc.ops(copied);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (wc.tracked()) {
                wc.for_lanes(stage_lane);
                return;
            }
            warp_stage_rows(key_row, staged_k.data(), n, block_threads, wc.lane_begin(),
                            wc.width());
            if constexpr (kPairs) {
                warp_stage_rows(val_row, staged_v.data(), n, block_threads, wc.lane_begin(),
                                wc.width());
            }
            for (unsigned l = wc.lane_begin(); l < wc.lane_end(); ++l) {
                const std::uint64_t copied = strided_count(n, l, block_threads);
                wc.coalesced_lane(l, kPlanes * copied * sizeof(T));
                wc.shared_lane(l, kPlanes * copied);
                wc.ops_lane(l, copied);
            }
        });

        // Phase 2 (fused): count per splitter pair, scan, write back in
        // place.
        const auto count_lane = [&](simt::ThreadCtx& tc) {
            if (tc.tid() >= p) return;  // idle lanes on short rows
            const T lo = sh_splitters[tc.tid()];
            const T hi = sh_splitters[tc.tid() + 1];
            std::uint32_t c = 0;
            for (std::size_t i = 0; i < n; ++i) {
                const T x = staged_k[i];
                c += in_bucket(x, lo, hi, tc.tid() == 0) ? 1u : 0u;
            }
            counts[tc.tid()] = c;
            tc.shared(n + 3);
            tc.ops(n * 3);
        };
        // Warp mode without the sanitizer buckets the row once per block
        // (warp_bucket.hpp); each warp then only charges its active lanes.
        const bool one_pass =
            blk.exec_mode() == simt::ExecMode::Warp && blk.sanitizer() == nullptr;
        if (one_pass) bucket_block(staged_k.data(), n, sh_splitters.data(), p, counts.data());
        const auto active = static_cast<unsigned>(p);  // lanes >= p idle on short rows
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (!one_pass) {
                wc.for_lanes(count_lane);
                return;
            }
            for (unsigned l = wc.lane_begin(); l < std::min(wc.lane_end(), active); ++l) {
                wc.shared_lane(l, n + 3);
                wc.ops_lane(l, n * 3);
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
                throw std::logic_error(cfg.name + ": bucket counts of array " +
                                       std::to_string(blk.block_idx()) + " sum to " +
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
            const T lo = sh_splitters[tc.tid()];
            const T hi = sh_splitters[tc.tid() + 1];
            std::uint32_t cursor = starts[tc.tid()];
            for (std::size_t i = 0; i < n; ++i) {
                const T x = staged_k[i];
                if (in_bucket(x, lo, hi, tc.tid() == 0)) {
                    key_row[cursor] = x;
                    if constexpr (kPairs) val_row[cursor] = staged_v[i];
                    ++cursor;
                }
            }
            const std::uint64_t written = cursor - starts[tc.tid()];
            tc.shared(kPlanes * n + 2);
            tc.ops(n * 3);
            tc.global_coalesced(kPlanes * written * sizeof(T));
            tc.global_random(written > 0 ? kPlanes : 0);  // one run start per plane
        };
        if (one_pass) {
            const T* sk = staged_k.data();
            const T* sv = kPairs ? staged_v.data() : nullptr;
            scatter_block(n, starts.data(), p, [&](std::uint32_t dst, std::size_t i) {
                key_row[dst] = sk[i];
                if constexpr (kPairs) val_row[dst] = sv[i];
            });
        }
        blk.for_each_warp([&](simt::WarpCtx& wc) {
            if (!one_pass) {
                wc.for_lanes(scatter_lane);
                return;
            }
            const std::uint32_t* written = counts.data();
            for (unsigned l = wc.lane_begin(); l < std::min(wc.lane_end(), active); ++l) {
                wc.shared_lane(l, kPlanes * n + 2);
                wc.ops_lane(l, n * 3);
                wc.coalesced_lane(l, kPlanes * written[l] * sizeof(T));
                wc.random_lane(l, written[l] > 0 ? kPlanes : 0);
            }
        });

        // Phase 3 (fused).  Skewed blocks hand over to the hybrid sorter
        // (size-binned scheduling + cooperative bitonic, see
        // hybrid_phase3.hpp); balanced blocks keep the paper's
        // one-lane-per-bucket insertion sort.
        if (opts.hybrid_phase3 && k_max > opts.phase3_small_cutoff) {
            simt::sanitize::TrackedSpan<T> val_view;
            if constexpr (kPairs) val_view = blk.global_view(std::span<T>{val_row, n});
            hybrid_phase3_block<kPairs, T>(
                blk, props, blk.global_view(std::span<T>{key_row, n}), val_view, p,
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
            const std::span<T> bucket{key_row + begin, key_row + end};
            InsertionCost cost;
            if constexpr (kPairs) {
                cost = insertion_sort_pairs(bucket, std::span<T>{val_row + begin, val_row + end});
            } else {
                cost = insertion_sort(bucket);
            }
            tc.ops(cost.compares + cost.moves);
            tc.global_random(2 * kPlanes * bucket.size());  // load & store per plane
            tc.shared(2);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(insert_lane); });
    });
}

template <typename T, bool kPairs>
SortStats sort_csr_on_device(simt::Device& device, std::span<T> keys, std::span<T> values,
                             std::span<const std::uint64_t> offsets, const Options& opts,
                             const char* where, const char* verify_name) {
    constexpr std::size_t kPlanes = kPairs ? 2 : 1;
    SortStats stats;
    if (offsets.size() < 2) return stats;
    const std::size_t num_arrays = offsets.size() - 1;
    std::size_t max_n = 0;
    for (std::size_t a = 0; a < num_arrays; ++a) {
        if (offsets[a + 1] < offsets[a]) {
            throw std::invalid_argument(std::string(where) + ": offsets not ascending");
        }
        max_n = std::max<std::size_t>(max_n, offsets[a + 1] - offsets[a]);
    }
    const std::size_t total = offsets[num_arrays];
    if (keys.size() < total || (kPairs && values.size() < total)) {
        throw std::invalid_argument(std::string(where) + ": buffers smaller than the offsets");
    }
    if (opts.bucket_target == 0) throw std::invalid_argument("bucket_target must be >= 1");
    if (!(opts.sampling_rate > 0.0) || opts.sampling_rate > 1.0) {
        throw std::invalid_argument("sampling_rate must be in (0, 1]");
    }
    stats.num_arrays = num_arrays;
    stats.array_size = max_n;
    stats.data_bytes = kPlanes * total * sizeof(T);
    if (max_n == 0) return stats;

    const auto& props = device.props();
    const std::size_t max_p =
        std::clamp<std::size_t>(max_n / opts.bucket_target, 1, props.max_threads_per_block);
    stats.buckets_per_array = max_p;
    const std::size_t shared_need = fused_shared_bytes(max_n, max_p, kPlanes, sizeof(T));
    if (shared_need > props.shared_memory_per_block) {
        throw std::invalid_argument(
            std::string(where) + ": an array is too large for shared-memory staging (" +
            std::to_string(max_n) + " elements need " + std::to_string(shared_need) +
            " B of " + std::to_string(props.shared_memory_per_block) + " B)");
    }

    const auto key_span = keys.subspan(0, total);
    const auto val_span = kPairs ? values.subspan(0, total) : std::span<T>{};
    // Multiset checksums (key+payload for pairs), taken host-side before any
    // launch or mutation — the descending negation included — so no injected
    // fault can poison the baseline; verified after the negate-back below.
    std::vector<std::uint64_t> expected;
    if (opts.verify_output) {
        expected = resilient::host_row_checksums<T>(key_span, val_span, offsets);
    }
    const bool descending = opts.order == SortOrder::Descending;
    const auto negate = [&] {
        const auto k = negate_on_device(device, key_span);
        stats.extra.modeled_ms += k.modeled_ms;
        stats.extra.wall_ms += k.wall_ms;
    };
    if (descending) negate();
    const simt::KernelStats k = fused_sort<T, kPairs>(device, keys, values, offsets,
                                                      static_cast<unsigned>(max_p), opts);
    stats.phase2 = {k.modeled_ms, k.wall_ms};  // the fused kernel reports as one phase
    stats.phase3_imbalance = k.imbalance;
    stats.peak_device_bytes = device.memory().peak_bytes_in_use();
    if (descending) negate();

    if (opts.verify_output) {
        const auto vc = resilient::verify_rows_on_device<T>(device, verify_name, key_span,
                                                            val_span, offsets, opts.order,
                                                            expected);
        stats.verify.modeled_ms += vc.modeled_ms;
        stats.verify.wall_ms += vc.wall_ms;
        if (!vc.ok()) throw resilient::VerifyError(where, vc.unsorted, vc.mismatched);
    }
    return stats;
}

template SortStats sort_csr_on_device<float, false>(simt::Device&, std::span<float>,
                                                    std::span<float>,
                                                    std::span<const std::uint64_t>,
                                                    const Options&, const char*, const char*);
template SortStats sort_csr_on_device<float, true>(simt::Device&, std::span<float>,
                                                   std::span<float>,
                                                   std::span<const std::uint64_t>,
                                                   const Options&, const char*, const char*);
template SortStats sort_csr_on_device<double, true>(simt::Device&, std::span<double>,
                                                    std::span<double>,
                                                    std::span<const std::uint64_t>,
                                                    const Options&, const char*, const char*);

}  // namespace detail

template <typename T>
SortStats sort_pairs_on_device(simt::Device& device, simt::DeviceBuffer<T>& keys,
                               simt::DeviceBuffer<T>& values, std::size_t num_arrays,
                               std::size_t array_size, const Options& opts) {
    if (keys.size() < num_arrays * array_size || values.size() < num_arrays * array_size) {
        throw std::invalid_argument("sort_pairs_on_device: buffers smaller than N x n");
    }
    if (num_arrays == 0 || array_size == 0) return {};
    const auto offsets = resilient::uniform_offsets(num_arrays, array_size);
    return detail::sort_csr_on_device<T, true>(device, keys.span(), values.span(), offsets,
                                               opts, "sort_pairs_on_device",
                                               "gas.verify_pairs");
}

template <typename T>
SortStats gpu_pair_sort(simt::Device& device, std::span<T> host_keys,
                        std::span<T> host_values, std::size_t num_arrays,
                        std::size_t array_size, const Options& opts) {
    if (host_keys.size() < num_arrays * array_size ||
        host_values.size() < num_arrays * array_size) {
        throw std::invalid_argument("gpu_pair_sort: host spans smaller than N x n");
    }
    SortStats stats;
    if (num_arrays == 0 || array_size == 0) return stats;
    simt::DeviceBuffer<T> keys(device, num_arrays * array_size);
    simt::DeviceBuffer<T> values(device, num_arrays * array_size);
    stats.h2d_ms = simt::copy_to_device(std::span<const T>(host_keys), keys) +
                   simt::copy_to_device(std::span<const T>(host_values), values);
    const double h2d = stats.h2d_ms;
    stats = sort_pairs_on_device(device, keys, values, num_arrays, array_size, opts);
    stats.h2d_ms = h2d;
    stats.d2h_ms = simt::copy_to_host(keys, host_keys) + simt::copy_to_host(values, host_values);
    return stats;
}

template <typename T>
SortStats sort_ragged_pairs_on_device(simt::Device& device, simt::DeviceBuffer<T>& keys,
                                      simt::DeviceBuffer<T>& values,
                                      std::span<const std::uint64_t> offsets,
                                      const Options& opts) {
    return detail::sort_csr_on_device<T, true>(device, keys.span(), values.span(), offsets,
                                               opts, "sort_ragged_pairs_on_device",
                                               "gas.verify_pairs_csr");
}

template <typename T>
SortStats gpu_ragged_pair_sort(simt::Device& device, std::span<T> host_keys,
                               std::span<T> host_values,
                               std::span<const std::uint64_t> offsets, const Options& opts) {
    SortStats stats;
    if (offsets.size() < 2) return stats;
    simt::DeviceBuffer<T> keys(device, host_keys.size());
    simt::DeviceBuffer<T> values(device, host_values.size());
    const double h2d = simt::copy_to_device(std::span<const T>(host_keys), keys) +
                       simt::copy_to_device(std::span<const T>(host_values), values);
    stats = sort_ragged_pairs_on_device(device, keys, values, offsets, opts);
    stats.h2d_ms = h2d;
    stats.d2h_ms = simt::copy_to_host(keys, host_keys) + simt::copy_to_host(values, host_values);
    return stats;
}

#define GAS_INSTANTIATE_PAIR(T)                                                            \
    template SortStats sort_pairs_on_device<T>(simt::Device&, simt::DeviceBuffer<T>&,      \
                                               simt::DeviceBuffer<T>&, std::size_t,        \
                                               std::size_t, const Options&);               \
    template SortStats gpu_pair_sort<T>(simt::Device&, std::span<T>, std::span<T>,         \
                                        std::size_t, std::size_t, const Options&);         \
    template SortStats sort_ragged_pairs_on_device<T>(                                     \
        simt::Device&, simt::DeviceBuffer<T>&, simt::DeviceBuffer<T>&,                     \
        std::span<const std::uint64_t>, const Options&);                                   \
    template SortStats gpu_ragged_pair_sort<T>(simt::Device&, std::span<T>, std::span<T>,  \
                                               std::span<const std::uint64_t>,             \
                                               const Options&);
GAS_INSTANTIATE_PAIR(float)
GAS_INSTANTIATE_PAIR(double)
#undef GAS_INSTANTIATE_PAIR

}  // namespace gas
