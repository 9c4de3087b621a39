#include "thrustlite/radix_sort.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "thrustlite/algorithms.hpp"

namespace thrustlite {

namespace {

constexpr unsigned kRadixBits = 4;
constexpr unsigned kDigits = 1u << kRadixBits;
constexpr std::size_t kChunk = kTileSize / kBlockThreads;  // elements per thread

/// Digit passes for a key type (8 for u32, 16 for u64) — always even, so
/// without pruning the double-buffered result lands back in the caller's
/// buffers.  With pruning an odd executed count is fixed by one copy-back.
template <typename K>
constexpr unsigned passes_for() {
    static_assert(sizeof(K) * 8 % kRadixBits == 0);
    return sizeof(K) * 8 / kRadixBits;
}

/// Digit passes needed to cover every significant bit of `max_key` (at
/// least one, so an executed or provably skippable pass exists even for
/// all-zero keys).
template <typename K>
unsigned passes_needed(K max_key) {
    unsigned bits = 0;
    for (K v = max_key; v != 0; v >>= 1) ++bits;
    return std::max(1u, (bits + kRadixBits - 1) / kRadixBits);
}

/// True when one digit bin holds every key — the pass would be a stable
/// identity permutation.  Host-side scan of the per-block histogram; on real
/// hardware this is a kDigits-counter readback (or a device-side flag), tiny
/// next to the scatter pass it saves.
bool histogram_is_single_digit(std::span<const std::uint32_t> hist, unsigned num_blocks,
                               std::size_t count) {
    for (unsigned d = 0; d < kDigits; ++d) {
        std::uint64_t total = 0;
        for (unsigned b = 0; b < num_blocks; ++b) {
            total += hist[static_cast<std::size_t>(d) * num_blocks + b];
        }
        if (total == count) return true;
        if (total != 0) return false;  // two non-empty bins: pass must run
    }
    return false;
}

template <typename K>
[[nodiscard]] inline std::uint32_t digit_of(K key, unsigned shift) {
    return static_cast<std::uint32_t>((key >> shift) & (kDigits - 1));
}

template <typename K>
struct PassBuffers {
    std::span<const K> keys_in;
    std::span<K> keys_out;
    std::span<const std::uint32_t> vals_in;  // empty when keys-only
    std::span<std::uint32_t> vals_out;
};

/// Kernel 1: per-block digit histogram.  Each thread counts its contiguous
/// chunk into a per-thread shared histogram column; thread 0 reduces the
/// block's histogram and writes it to hist[d * num_blocks + block].
template <typename K>
simt::KernelSpec histogram_spec(std::span<const K> keys, unsigned shift,
                                std::span<std::uint32_t> hist, unsigned num_blocks) {
    simt::LaunchConfig cfg{"radix.histogram", num_blocks, kBlockThreads};
    auto body = [=](simt::BlockCtx& blk) {
        auto local = blk.shared_alloc<std::uint32_t>(kDigits * kBlockThreads);
        auto g_keys = blk.global_view(keys);
        auto g_hist = blk.global_view(hist);
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, keys.size());

        const auto count_lane = [&](simt::ThreadCtx& tc) {
            for (unsigned d = 0; d < kDigits; ++d) local[d * kBlockThreads + tc.tid()] = 0;
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            for (std::size_t i = begin; i < end; ++i) {
                const K k = g_keys[i];
                ++local[digit_of(k, shift) * kBlockThreads + tc.tid()];
            }
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(n * sizeof(K));
            tc.ops(n * 2 + kDigits);
            tc.shared(n + kDigits);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(count_lane); });

        blk.single_thread([&](simt::ThreadCtx& tc) {
            for (unsigned d = 0; d < kDigits; ++d) {
                std::uint32_t sum = 0;
                for (unsigned t = 0; t < kBlockThreads; ++t) sum += local[d * kBlockThreads + t];
                g_hist[static_cast<std::size_t>(d) * num_blocks + blk.block_idx()] = sum;
            }
            tc.ops(kDigits * kBlockThreads);
            tc.shared(kDigits * kBlockThreads);
            tc.global_random(kDigits);
        });
    };
    return {cfg, std::move(body)};
}

/// Kernel 2: turns per-block histograms into absolute scatter offsets.
/// Lane d scans its digit row across blocks; thread 0 then computes digit
/// bases (exclusive scan of digit totals) which lanes add back to their row.
simt::KernelSpec offsets_spec(std::span<std::uint32_t> hist, unsigned num_blocks) {
    simt::LaunchConfig cfg{"radix.offsets", 1, kDigits};
    auto body = [=](simt::BlockCtx& blk) {
        auto totals = blk.shared_alloc<std::uint32_t>(kDigits);
        auto bases = blk.shared_alloc<std::uint32_t>(kDigits);
        auto g_hist = blk.global_view(hist);

        const auto scan_lane = [&](simt::ThreadCtx& tc) {
            const unsigned d = tc.tid();
            std::uint32_t running = 0;
            for (unsigned b = 0; b < num_blocks; ++b) {
                const std::size_t cell = static_cast<std::size_t>(d) * num_blocks + b;
                const std::uint32_t tmp = g_hist[cell];
                g_hist[cell] = running;
                running += tmp;
            }
            totals[d] = running;
            tc.global_coalesced(static_cast<std::uint64_t>(num_blocks) * 2 * sizeof(std::uint32_t));
            tc.ops(num_blocks * 2);
            tc.shared(1);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(scan_lane); });

        blk.single_thread([&](simt::ThreadCtx& tc) {
            std::uint32_t running = 0;
            for (unsigned d = 0; d < kDigits; ++d) {
                bases[d] = running;
                running += totals[d];
            }
            tc.ops(kDigits);
            tc.shared(kDigits * 2);
        });

        const auto add_base_lane = [&](simt::ThreadCtx& tc) {
            const unsigned d = tc.tid();
            for (unsigned b = 0; b < num_blocks; ++b) {
                g_hist[static_cast<std::size_t>(d) * num_blocks + b] += bases[d];
            }
            tc.global_coalesced(static_cast<std::uint64_t>(num_blocks) * 2 * sizeof(std::uint32_t));
            tc.ops(num_blocks);
            tc.shared(1);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(add_base_lane); });
    };
    return {cfg, std::move(body)};
}

/// Kernel 3: stable scatter.  Each thread recounts its chunk, thread 0 turns
/// the (digit, thread) histogram into per-thread start cursors seeded from
/// the block's absolute offsets, then every thread emits its chunk in order.
/// Output position order (block, thread, position-in-chunk) preserves input
/// order per digit => the pass is stable.
template <typename K>
simt::KernelSpec scatter_spec(PassBuffers<K> buf, unsigned shift,
                              std::span<const std::uint32_t> hist, unsigned num_blocks) {
    const bool with_values = !buf.vals_in.empty();
    simt::LaunchConfig cfg{"radix.scatter", num_blocks, kBlockThreads};
    auto body = [=](simt::BlockCtx& blk) {
        auto local = blk.shared_alloc<std::uint32_t>(kDigits * kBlockThreads);
        auto cursor = blk.shared_alloc<std::uint32_t>(kDigits * kBlockThreads);
        auto keys_in = blk.global_view(buf.keys_in);
        auto keys_out = blk.global_view(buf.keys_out);
        auto vals_in = blk.global_view(buf.vals_in);
        auto vals_out = blk.global_view(buf.vals_out);
        auto g_hist = blk.global_view(hist);
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, buf.keys_in.size());

        blk.for_each_thread([&](simt::ThreadCtx& tc) {
            for (unsigned d = 0; d < kDigits; ++d) local[d * kBlockThreads + tc.tid()] = 0;
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            for (std::size_t i = begin; i < end; ++i) {
                const K k = keys_in[i];
                ++local[digit_of(k, shift) * kBlockThreads + tc.tid()];
            }
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(n * sizeof(K));
            tc.ops(n * 2 + kDigits);
            tc.shared(n + kDigits);
        });

        blk.single_thread([&](simt::ThreadCtx& tc) {
            for (unsigned d = 0; d < kDigits; ++d) {
                std::uint32_t running =
                    g_hist[static_cast<std::size_t>(d) * num_blocks + blk.block_idx()];
                for (unsigned t = 0; t < kBlockThreads; ++t) {
                    cursor[d * kBlockThreads + t] = running;
                    running += local[d * kBlockThreads + t];
                }
            }
            tc.ops(kDigits * kBlockThreads);
            tc.shared(kDigits * kBlockThreads * 2);
            tc.global_random(kDigits);
        });

        const auto emit_lane = [&](simt::ThreadCtx& tc) {
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            for (std::size_t i = begin; i < end; ++i) {
                const K k = keys_in[i];
                const std::uint32_t d = digit_of(k, shift);
                const std::uint32_t dst = cursor[d * kBlockThreads + tc.tid()]++;
                keys_out[dst] = k;
                if (with_values) vals_out[dst] = vals_in[i];
            }
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            // Reads of the tile (and payload) are coalesced; each scattered
            // write of a key/value pair costs one DRAM segment.
            tc.global_coalesced(n * (sizeof(K) + (with_values ? sizeof(std::uint32_t) : 0)));
            tc.global_random(n);
            tc.ops(n * 4);
            tc.shared(n * 2);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(emit_lane); });
    };
    return {cfg, std::move(body)};
}

/// Copy-back kernel: when pruning leaves an odd number of executed passes,
/// the result sits in the alternate buffer; one coalesced pass brings keys
/// (and payload) home to the caller's buffers.
template <typename K>
simt::KernelSpec copy_back_spec(PassBuffers<K> buf, unsigned num_blocks) {
    const bool with_values = !buf.vals_in.empty();
    simt::LaunchConfig cfg{"radix.copy_back", num_blocks, kBlockThreads};
    auto body = [=](simt::BlockCtx& blk) {
        auto keys_in = blk.global_view(buf.keys_in);
        auto keys_out = blk.global_view(buf.keys_out);
        auto vals_in = blk.global_view(buf.vals_in);
        auto vals_out = blk.global_view(buf.vals_out);
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, buf.keys_in.size());
        const auto copy_lane = [&](simt::ThreadCtx& tc) {
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            for (std::size_t i = begin; i < end; ++i) {
                keys_out[i] = keys_in[i];
                if (with_values) vals_out[i] = vals_in[i];
            }
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(2 * n *
                                (sizeof(K) + (with_values ? sizeof(std::uint32_t) : 0)));
            tc.ops(n);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(copy_lane); });
    };
    return {cfg, std::move(body)};
}

/// Maximum radix key: the pass-pruning probe, whose bit width bounds the
/// highest significant digit.  Per-block tree reduction in shared memory;
/// the per-block maxima land in `partials` (resized here), which the host
/// max-reduces to plan the pass loop.  Precondition: keys non-empty.
template <typename K>
simt::KernelSpec reduce_max_key_spec(std::span<const K> keys, std::vector<K>& partials) {
    const std::size_t count = keys.size();
    const auto blocks = static_cast<unsigned>((count + kTileSize - 1) / kTileSize);
    const K identity = keys[0];
    partials.assign(blocks, identity);
    const std::span<K> out(partials);

    simt::LaunchConfig cfg{"thrustlite.reduce_max_key", blocks, kBlockThreads};
    auto body = [=](simt::BlockCtx& blk) {
        auto shared = blk.shared_alloc<K>(kBlockThreads);
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, count);

        blk.for_each_thread([&](simt::ThreadCtx& tc) {
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            K acc = identity;
            for (std::size_t i = begin; i < end; ++i) acc = std::max(acc, keys[i]);
            shared[tc.tid()] = acc;
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(n * sizeof(K));
            tc.ops(n);
            tc.shared(1);
        });

        blk.single_thread([&](simt::ThreadCtx& tc) {
            K acc = identity;
            for (unsigned t = 0; t < kBlockThreads; ++t) {
                acc = std::max(acc, static_cast<K>(shared[t]));
            }
            out[blk.block_idx()] = acc;
            tc.ops(kBlockThreads);
            tc.shared(kBlockThreads);
            tc.global_random(1);
        });
    };
    return {cfg, std::move(body)};
}

template <typename K>
RadixStats sort_impl(simt::Device& device, std::span<K> keys,
                     std::span<std::uint32_t> values, const RadixOptions& opts) {
    RadixStats stats;
    const std::size_t count = keys.size();
    if (count == 0) return stats;
    const bool with_values = !values.empty();
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t log_start = device.kernel_log().size();

    const auto num_blocks = static_cast<unsigned>((count + kTileSize - 1) / kTileSize);

    // O(N) scratch: double buffers + per-block histograms.  This allocation
    // is exactly what limits the STA technique's capacity in Table 1.
    simt::DeviceBuffer<K> keys_alt(device, count);
    simt::DeviceBuffer<std::uint32_t> vals_alt;
    if (with_values) vals_alt = simt::DeviceBuffer<std::uint32_t>(device, count);
    simt::DeviceBuffer<std::uint32_t> hist(device,
                                           static_cast<std::size_t>(kDigits) * num_blocks);
    stats.scratch_bytes = keys_alt.size_bytes() + vals_alt.size_bytes() + hist.size_bytes();

    const std::array<std::span<K>, 2> kb = {keys, keys_alt.span()};
    const std::array<std::span<std::uint32_t>, 2> vb = {
        with_values ? values : std::span<std::uint32_t>{},
        with_values ? vals_alt.span() : std::span<std::uint32_t>{}};
    const auto hspan = hist.span();
    const bool prune = opts.prune_passes;
    const unsigned total_passes = passes_for<K>();

    // Without pruning the executed pass count is even for every key width,
    // so the result is already home.  With pruning an odd count leaves it in
    // the alternate buffer: one copy-back restores parity.
    static_assert(passes_for<K>() % 2 == 0);

    const auto launch = [&](const simt::KernelSpec& spec) {
        device.launch(spec.cfg, spec.body);
    };

    // The max-key reduction bounds the pass count: every pass above the
    // highest significant digit is skipped without running any kernel.
    unsigned needed = total_passes;
    if (prune) {
        std::vector<K> partials;
        launch(reduce_max_key_spec(std::span<const K>(keys), partials));
        const K max_key = *std::max_element(partials.begin(), partials.end());
        needed = std::min(total_passes, passes_needed(max_key));
    }
    stats.passes_skipped = total_passes - needed;

    unsigned src = 0;  // which buffer currently holds the data
    for (unsigned pass = 0; pass < needed; ++pass) {
        const unsigned shift = pass * kRadixBits;
        const PassBuffers<K> buf{kb[src], kb[1 - src], vb[src], vb[1 - src]};
        launch(histogram_spec<K>(buf.keys_in, shift, hspan, num_blocks));
        if (prune && histogram_is_single_digit(hspan, num_blocks, count)) {
            // Degenerate pass: every key shares this digit, so a scatter
            // would be a stable identity permutation.  No parity flip.
            ++stats.passes_skipped;
            continue;
        }
        launch(offsets_spec(hspan, num_blocks));
        launch(scatter_spec<K>(buf, shift, hspan, num_blocks));
        ++stats.passes;
        src = 1 - src;
    }
    if (src == 1) {
        launch(copy_back_spec<K>(PassBuffers<K>{kb[1], kb[0], vb[1], vb[0]}, num_blocks));
        stats.copy_back = true;
    }

    const auto t1 = std::chrono::steady_clock::now();
    stats.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (std::size_t i = log_start; i < device.kernel_log().size(); ++i) {
        stats.modeled_ms += device.kernel_log()[i].modeled_ms;
    }
    return stats;
}

}  // namespace

RadixStats stable_sort_by_key(simt::Device& device, std::span<std::uint32_t> keys,
                              std::span<std::uint32_t> values, const RadixOptions& opts) {
    if (keys.size() != values.size()) {
        throw simt::DeviceError("stable_sort_by_key: keys/values size mismatch");
    }
    return sort_impl<std::uint32_t>(device, keys, values, opts);
}

RadixStats stable_sort(simt::Device& device, std::span<std::uint32_t> keys,
                       const RadixOptions& opts) {
    return sort_impl<std::uint32_t>(device, keys, {}, opts);
}

RadixStats stable_sort_by_key(simt::Device& device, std::span<std::uint64_t> keys,
                              std::span<std::uint32_t> values, const RadixOptions& opts) {
    if (keys.size() != values.size()) {
        throw simt::DeviceError("stable_sort_by_key: keys/values size mismatch");
    }
    return sort_impl<std::uint64_t>(device, keys, values, opts);
}

RadixStats stable_sort(simt::Device& device, std::span<std::uint64_t> keys,
                       const RadixOptions& opts) {
    return sort_impl<std::uint64_t>(device, keys, {}, opts);
}

std::size_t radix_scratch_bytes(std::size_t count, bool with_values, std::size_t key_bytes) {
    const std::size_t num_blocks = (count + kTileSize - 1) / kTileSize;
    return count * key_bytes + (with_values ? count * sizeof(std::uint32_t) : 0) +
           kDigits * num_blocks * sizeof(std::uint32_t);
}

}  // namespace thrustlite
