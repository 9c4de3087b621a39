#include "thrustlite/reduce_scan.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "thrustlite/algorithms.hpp"

namespace thrustlite {

namespace {

constexpr std::size_t kChunk = kTileSize / kBlockThreads;

unsigned num_tiles(std::size_t count) {
    return static_cast<unsigned>(std::max<std::size_t>((count + kTileSize - 1) / kTileSize, 1));
}

/// Generic per-block tree reduction over any trivially copyable element:
/// each thread folds its chunk with `fold(acc, element)`, thread 0 merges
/// the per-thread partials with `combine(a, b)` (distinct from fold — a
/// count's element step is +pred while its partial merge is plain +).
template <typename T, typename Fold, typename Combine>
std::vector<T> block_reduce(simt::Device& device, const char* name, std::span<const T> data,
                            T identity, Fold&& fold, Combine&& combine) {
    const std::size_t count = data.size();
    const unsigned blocks = num_tiles(count);
    std::vector<T> partials(blocks, identity);

    simt::LaunchConfig cfg{name, blocks, kBlockThreads};
    device.launch(cfg, [&](simt::BlockCtx& blk) {
        auto shared = blk.shared_alloc<T>(kBlockThreads);
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, count);

        blk.for_each_thread([&](simt::ThreadCtx& tc) {
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            T acc = identity;
            for (std::size_t i = begin; i < end; ++i) acc = fold(acc, data[i]);
            shared[tc.tid()] = acc;
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(n * sizeof(T));
            tc.ops(n);
            tc.shared(1);
        });

        blk.single_thread([&](simt::ThreadCtx& tc) {
            T acc = identity;
            for (unsigned t = 0; t < kBlockThreads; ++t) acc = combine(acc, shared[t]);
            partials[blk.block_idx()] = acc;
            tc.ops(kBlockThreads);
            tc.shared(kBlockThreads);
            tc.global_random(1);
        });
    });
    return partials;
}

/// block_reduce's kernel shape and charges for the max-key probe, but the
/// partials land in a caller-owned vector so the kernel can run as a graph
/// node (the builder's frame is long gone by then).
template <typename K>
simt::KernelSpec reduce_max_key_spec_impl(std::span<const K> keys,
                                          std::shared_ptr<std::vector<K>> partials) {
    if (keys.empty()) throw std::invalid_argument("reduce_max_key: empty input");
    const std::size_t count = keys.size();
    const unsigned blocks = num_tiles(count);
    const K identity = keys[0];
    partials->assign(blocks, identity);

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
            (*partials)[blk.block_idx()] = acc;
            tc.ops(kBlockThreads);
            tc.shared(kBlockThreads);
            tc.global_random(1);
        });
    };
    return {cfg, std::move(body)};
}

}  // namespace

double reduce_sum(simt::Device& device, std::span<const float> data) {
    if (data.empty()) return 0.0;
    // Accumulate block partials in double on the host for accuracy.
    const auto add = [](float a, float b) { return a + b; };
    const auto partials =
        block_reduce(device, "thrustlite.reduce_sum", data, 0.0f, add, add);
    double total = 0.0;
    for (float p : partials) total += p;
    return total;
}

float reduce_min(simt::Device& device, std::span<const float> data) {
    if (data.empty()) throw std::invalid_argument("reduce_min: empty input");
    const auto mn = [](float a, float b) { return std::min(a, b); };
    const auto partials =
        block_reduce(device, "thrustlite.reduce_min", data, data[0], mn, mn);
    return *std::min_element(partials.begin(), partials.end());
}

float reduce_max(simt::Device& device, std::span<const float> data) {
    if (data.empty()) throw std::invalid_argument("reduce_max: empty input");
    const auto mx = [](float a, float b) { return std::max(a, b); };
    const auto partials =
        block_reduce(device, "thrustlite.reduce_max", data, data[0], mx, mx);
    return *std::max_element(partials.begin(), partials.end());
}

simt::KernelSpec reduce_max_key_spec(std::span<const std::uint32_t> keys,
                                     std::shared_ptr<std::vector<std::uint32_t>> partials) {
    return reduce_max_key_spec_impl<std::uint32_t>(keys, std::move(partials));
}

simt::KernelSpec reduce_max_key_spec(std::span<const std::uint64_t> keys,
                                     std::shared_ptr<std::vector<std::uint64_t>> partials) {
    return reduce_max_key_spec_impl<std::uint64_t>(keys, std::move(partials));
}

std::size_t count_less_equal(simt::Device& device, std::span<const float> data,
                             float threshold) {
    if (data.empty()) return 0;
    const auto partials = block_reduce(
        device, "thrustlite.count_le", data, 0.0f,
        [threshold](float acc, float x) { return acc + (x <= threshold ? 1.0f : 0.0f); },
        [](float a, float b) { return a + b; });
    double total = 0.0;
    for (float p : partials) total += p;
    return static_cast<std::size_t>(total);
}

void exclusive_scan(simt::Device& device, std::span<const std::uint32_t> in,
                    std::span<std::uint32_t> out) {
    const std::size_t count = in.size();
    if (out.size() < count) throw std::invalid_argument("exclusive_scan: output too small");
    if (count == 0) return;
    const unsigned blocks = num_tiles(count);

    // Kernel 1 folded into kernel 3's structure: per block, each thread scans
    // its chunk locally; thread 0 scans the thread sums; chunks are then
    // emitted with their offsets.  Block totals land in `spine` for kernel 2.
    std::vector<std::uint32_t> spine(blocks, 0);

    simt::LaunchConfig cfg{"thrustlite.scan_local", blocks, kBlockThreads};
    device.launch(cfg, [&](simt::BlockCtx& blk) {
        auto sums = blk.shared_alloc<std::uint32_t>(kBlockThreads);
        auto starts = blk.shared_alloc<std::uint32_t>(kBlockThreads);
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, count);

        blk.for_each_thread([&](simt::ThreadCtx& tc) {
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            std::uint32_t acc = 0;
            for (std::size_t i = begin; i < end; ++i) acc += in[i];
            sums[tc.tid()] = acc;
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(n * sizeof(std::uint32_t));
            tc.ops(n);
            tc.shared(1);
        });

        blk.single_thread([&](simt::ThreadCtx& tc) {
            std::uint32_t running = 0;
            for (unsigned t = 0; t < kBlockThreads; ++t) {
                starts[t] = running;
                running += sums[t];
            }
            spine[blk.block_idx()] = running;
            tc.ops(kBlockThreads);
            tc.shared(2 * kBlockThreads);
            tc.global_random(1);
        });

        blk.for_each_thread([&](simt::ThreadCtx& tc) {
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            std::uint32_t running = starts[tc.tid()];
            for (std::size_t i = begin; i < end; ++i) {
                const std::uint32_t v = in[i];  // in/out may alias: read first
                out[i] = running;
                running += v;
            }
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(2 * n * sizeof(std::uint32_t));
            tc.ops(2 * n);
            tc.shared(1);
        });
    });

    // Kernel 2 (spine scan) — a single block over the block totals.
    std::vector<std::uint32_t> spine_offsets(blocks, 0);
    device.launch({"thrustlite.scan_spine", 1, 1}, [&](simt::BlockCtx& blk) {
        blk.single_thread([&](simt::ThreadCtx& tc) {
            std::uint32_t running = 0;
            for (unsigned b = 0; b < blocks; ++b) {
                spine_offsets[b] = running;
                running += spine[b];
            }
            tc.ops(blocks);
            tc.global_coalesced(2ull * blocks * sizeof(std::uint32_t));
        });
    });

    // Kernel 3: distribute spine offsets.
    device.launch({"thrustlite.scan_add", blocks, kBlockThreads}, [&](simt::BlockCtx& blk) {
        const std::uint32_t offset = spine_offsets[blk.block_idx()];
        if (offset == 0) return;  // first block (and empty tails) skip the pass
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, count);
        blk.for_each_thread([&](simt::ThreadCtx& tc) {
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            for (std::size_t i = begin; i < end; ++i) out[i] += offset;
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(2 * n * sizeof(std::uint32_t));
            tc.ops(n);
        });
    });
}

void gather(simt::Device& device, std::span<const std::uint32_t> indices,
            std::span<const float> src, std::span<float> dst) {
    const std::size_t count = indices.size();
    if (dst.size() < count) throw std::invalid_argument("gather: output too small");
    if (count == 0) return;
    const unsigned blocks = num_tiles(count);
    device.launch({"thrustlite.gather", blocks, kBlockThreads}, [&](simt::BlockCtx& blk) {
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, count);
        blk.for_each_thread([&](simt::ThreadCtx& tc) {
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            for (std::size_t i = begin; i < end; ++i) dst[i] = src[indices[i]];
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(2 * n * sizeof(float));  // index read + dst write
            tc.global_random(n);                         // scattered src reads
            tc.ops(n);
        });
    });
}

void fill(simt::Device& device, std::span<float> data, float value) {
    const std::size_t count = data.size();
    if (count == 0) return;
    const unsigned blocks = num_tiles(count);
    device.launch({"thrustlite.fill", blocks, kBlockThreads}, [&](simt::BlockCtx& blk) {
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, count);
        blk.for_each_thread([&](simt::ThreadCtx& tc) {
            const std::size_t begin = tile_begin + tc.tid() * kChunk;
            const std::size_t end = std::min(begin + kChunk, tile_end);
            for (std::size_t i = begin; i < end; ++i) data[i] = value;
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(n * sizeof(float));
            tc.ops(n);
        });
    });
}

}  // namespace thrustlite
