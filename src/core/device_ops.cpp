#include "core/device_ops.hpp"

#include <algorithm>

namespace gas {

namespace {
constexpr std::size_t kTile = 4096;
constexpr unsigned kThreads = 256;
}  // namespace

template <typename T>
detail::KernelSpec negate_spec(std::span<T> data) {
    static_assert(std::is_floating_point_v<T>,
                  "negation only reverses the total order of floating-point types");
    const std::size_t count = data.size();
    simt::LaunchConfig cfg{"gas.negate",
                           static_cast<unsigned>(std::max<std::size_t>(
                               (count + kTile - 1) / kTile, 1)),
                           kThreads};
    auto body = [=](simt::BlockCtx& blk) {
        const std::size_t tile_begin = static_cast<std::size_t>(blk.block_idx()) * kTile;
        const std::size_t tile_end = std::min(tile_begin + kTile, count);
        const auto negate_lane = [&](simt::ThreadCtx& tc) {
            const std::size_t chunk = kTile / kThreads;
            const std::size_t begin = tile_begin + tc.tid() * chunk;
            const std::size_t end = std::min(begin + chunk, tile_end);
            for (std::size_t i = begin; i < end; ++i) data[i] = -data[i];
            const auto n = begin < end ? static_cast<std::uint64_t>(end - begin) : 0;
            tc.global_coalesced(2 * n * sizeof(T));
            tc.ops(n);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(negate_lane); });
    };
    return {cfg, std::move(body)};
}

template <typename T>
simt::KernelStats negate_on_device(simt::Device& device, std::span<T> data) {
    detail::KernelSpec spec = negate_spec(data);
    return device.launch(spec.cfg, spec.body);
}

template simt::KernelStats negate_on_device<float>(simt::Device&, std::span<float>);
template simt::KernelStats negate_on_device<double>(simt::Device&, std::span<double>);
template detail::KernelSpec negate_spec<float>(std::span<float>);
template detail::KernelSpec negate_spec<double>(std::span<double>);

}  // namespace gas
