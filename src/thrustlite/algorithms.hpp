#pragma once

#include <cstdint>

#include "thrustlite/device_vector.hpp"

namespace thrustlite {

/// Elements processed by one block in element-wise kernels (256 threads x 16
/// contiguous elements each, all warp-coalesced).
inline constexpr std::size_t kTileSize = 4096;
inline constexpr unsigned kBlockThreads = 256;

/// v[i] = i.
void sequence(simt::Device& device, device_vector<std::uint32_t>& v);

/// tags[i] = i / array_size — the STA tag array (Definition 6 of the paper).
void make_tags(simt::Device& device, std::span<std::uint32_t> tags, std::size_t array_size);

/// In-place reinterpretation of a float buffer as radix-sortable ordered
/// u32 keys (each 4-byte slot is rewritten; no extra memory, which is how
/// the STA baseline keeps its footprint at data + tags + radix scratch).
std::span<std::uint32_t> to_ordered_inplace(simt::Device& device, std::span<float> data);

/// Inverse of to_ordered_inplace.
void from_ordered_inplace(simt::Device& device, std::span<float> data);

}  // namespace thrustlite
