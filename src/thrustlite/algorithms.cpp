#include "thrustlite/algorithms.hpp"

#include <algorithm>
#include <cstring>

#include "thrustlite/float_ordering.hpp"

namespace thrustlite {

namespace {

/// Grid sizing for an element-wise sweep over `count` elements.
simt::LaunchConfig elementwise_config(std::string name, std::size_t count) {
    simt::LaunchConfig cfg;
    cfg.name = std::move(name);
    cfg.grid_dim = static_cast<unsigned>((count + kTileSize - 1) / kTileSize);
    cfg.block_dim = kBlockThreads;
    if (cfg.grid_dim == 0) cfg.grid_dim = 1;
    return cfg;
}

/// Runs `fn(i)` for every element index, modeling a coalesced elementwise
/// kernel that moves `bytes_per_elem` of traffic and does `ops_per_elem` ops.
template <typename F>
void elementwise(simt::Device& device, std::string name, std::size_t count,
                 std::uint64_t bytes_per_elem, std::uint64_t ops_per_elem, F&& fn) {
    if (count == 0) return;
    device.launch(elementwise_config(std::move(name), count), [&](simt::BlockCtx& blk) {
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTileSize;
        const std::size_t tile_end = std::min(tile_begin + kTileSize, count);
        blk.for_each_thread([&](simt::ThreadCtx& tc) {
            const std::size_t chunk = kTileSize / kBlockThreads;
            const std::size_t begin = tile_begin + tc.tid() * chunk;
            const std::size_t end = std::min(begin + chunk, tile_end);
            if (begin >= end) return;
            for (std::size_t i = begin; i < end; ++i) fn(i);
            const auto nelem = static_cast<std::uint64_t>(end - begin);
            tc.global_coalesced(nelem * bytes_per_elem);
            tc.ops(nelem * ops_per_elem);
        });
    });
}

}  // namespace

void sequence(simt::Device& device, device_vector<std::uint32_t>& v) {
    auto s = v.span();
    elementwise(device, "thrustlite.sequence", s.size(), sizeof(std::uint32_t), 1,
                [&](std::size_t i) { s[i] = static_cast<std::uint32_t>(i); });
}

void make_tags(simt::Device& device, std::span<std::uint32_t> tags, std::size_t array_size) {
    elementwise(device, "sta.make_tags", tags.size(), sizeof(std::uint32_t), 2,
                [&](std::size_t i) { tags[i] = static_cast<std::uint32_t>(i / array_size); });
}

std::span<std::uint32_t> to_ordered_inplace(simt::Device& device, std::span<float> data) {
    // memcpy-based punning: every 4-byte slot is rewritten from float to its
    // ordered-u32 code without violating aliasing rules.
    auto* bytes = reinterpret_cast<std::byte*>(data.data());
    elementwise(device, "sta.to_ordered_inplace", data.size(), 2 * sizeof(float), 2,
                [&](std::size_t i) {
                    float f;
                    std::memcpy(&f, bytes + 4 * i, 4);
                    const std::uint32_t u = float_to_ordered(f);
                    std::memcpy(bytes + 4 * i, &u, 4);
                });
    return {reinterpret_cast<std::uint32_t*>(data.data()), data.size()};
}

void from_ordered_inplace(simt::Device& device, std::span<float> data) {
    auto* bytes = reinterpret_cast<std::byte*>(data.data());
    elementwise(device, "sta.from_ordered_inplace", data.size(), 2 * sizeof(float), 2,
                [&](std::size_t i) {
                    std::uint32_t u;
                    std::memcpy(&u, bytes + 4 * i, 4);
                    const float f = ordered_to_float(u);
                    std::memcpy(bytes + 4 * i, &f, 4);
                });
}

}  // namespace thrustlite
