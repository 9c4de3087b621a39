#pragma once

#include <cstdint>
#include <span>

#include "simt/device.hpp"

namespace gas {

/// Elementwise in-place negation kernel over a device-resident buffer of
/// floating-point values.  IEEE negation reverses float total order exactly,
/// which is how the drivers implement descending sorts around the ascending
/// machinery.
template <typename T>
simt::KernelStats negate_on_device(simt::Device& device, std::span<T> data);

extern template simt::KernelStats negate_on_device<float>(simt::Device&, std::span<float>);
extern template simt::KernelStats negate_on_device<double>(simt::Device&,
                                                           std::span<double>);

}  // namespace gas
