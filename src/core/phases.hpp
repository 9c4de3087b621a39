#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>

#include "core/options.hpp"
#include "core/plan.hpp"
#include "simt/device.hpp"

namespace gas::detail {

/// A kernel launch described but not yet executed: sort_arrays_on_device
/// (and the phase tests) run one with device.launch(spec.cfg, spec.body).
/// Spec bodies capture all state by value — spans, plan scalars, a copy of
/// the options — so a spec does not depend on the builder's stack frame.
using KernelSpec = simt::KernelSpec;

/// Sentinel splitters of Definition 5's overlap fix: a value at-or-below
/// every element at splitter index 0 and one at-or-above everything at
/// index p.  Floating-point types use +-infinity; integral types use
/// lowest/max (the bucket-membership predicate keeps the extremes inside
/// the first/last buckets).
template <typename T>
[[nodiscard]] constexpr T low_sentinel() {
    if constexpr (std::is_floating_point_v<T>) {
        return -std::numeric_limits<T>::infinity();
    } else {
        return std::numeric_limits<T>::lowest();
    }
}

template <typename T>
[[nodiscard]] constexpr T high_sentinel() {
    if constexpr (std::is_floating_point_v<T>) {
        return std::numeric_limits<T>::infinity();
    } else {
        return std::numeric_limits<T>::max();
    }
}

/// Bucket membership predicate.  Buckets partition by half-open intervals
/// (lo, hi], with bucket 0 inclusive at lo so that values equal to the low
/// sentinel (e.g. -inf, or 0 for unsigned types) are not lost.  Exactly one
/// bucket accepts each comparable element, including duplicates equal to a
/// splitter (they all land in the first bucket whose hi equals the value).
template <typename T>
[[nodiscard]] inline bool in_bucket(T x, T lo, T hi, bool first_bucket) {
    return (x > lo || (first_bucket && x == lo)) && x <= hi;
}

/// Phase 1 (section 5.1): per array, regular-sample, insertion-sort the
/// sample in shared memory, emit p - 1 interior splitters plus the two
/// sentinels into `splitters` (N rows of plan.splitters_per_array).
/// One thread per block, as the paper found optimal for the tiny sample.
template <typename T>
KernelSpec splitter_phase_spec(std::span<const T> data, std::size_t num_arrays,
                               const SortPlan& plan, std::span<T> splitters);

/// Phase 2 (section 5.2): bucket each array by splitter pairs and write the
/// buckets back over the array in place; bucket sizes land in
/// `bucket_sizes` (N rows of plan.buckets).  `scratch` is a global staging
/// area of `scratch_rows` rows of n elements used only when the array does
/// not fit in shared memory (empty otherwise).
template <typename T>
KernelSpec bucket_phase_spec(std::span<T> data, std::size_t num_arrays,
                             const SortPlan& plan, const Options& opts,
                             std::span<const T> splitters,
                             std::span<std::uint32_t> bucket_sizes, std::span<T> scratch,
                             std::size_t scratch_rows);

/// Phase 3 (section 5.3): one thread per bucket runs in-place insertion sort
/// on its bucket; contiguous sorted buckets leave each array fully sorted
/// with no merge step.  With Options::hybrid_phase3 (the default) blocks
/// whose largest bucket exceeds the small cutoff switch to the skew-aware
/// hybrid sorter (size-binned scheduling, binary insertion, cooperative
/// bitonic — see hybrid_phase3.hpp); with it off the kernel is the paper's
/// one-lane-per-bucket insertion sort, bit-for-bit.
///
/// Takes the device properties by value: the body captures them (the
/// hybrid dispatch consults SM limits).
template <typename T>
KernelSpec sort_phase_spec(simt::DeviceProperties props, std::span<T> data,
                           std::size_t num_arrays, const SortPlan& plan,
                           std::span<const std::uint32_t> bucket_sizes,
                           const Options& opts = {});

// Explicit instantiations live in the phase .cpp files.
#define GAS_DECLARE_PHASES(T)                                                              \
    extern template KernelSpec splitter_phase_spec<T>(                                     \
        std::span<const T>, std::size_t, const SortPlan&, std::span<T>);                   \
    extern template KernelSpec bucket_phase_spec<T>(                                       \
        std::span<T>, std::size_t, const SortPlan&, const Options&, std::span<const T>,    \
        std::span<std::uint32_t>, std::span<T>, std::size_t);                              \
    extern template KernelSpec sort_phase_spec<T>(                                         \
        simt::DeviceProperties, std::span<T>, std::size_t, const SortPlan&,                \
        std::span<const std::uint32_t>, const Options&);

GAS_DECLARE_PHASES(float)
GAS_DECLARE_PHASES(double)
GAS_DECLARE_PHASES(std::uint32_t)
GAS_DECLARE_PHASES(std::int32_t)
#undef GAS_DECLARE_PHASES

}  // namespace gas::detail
