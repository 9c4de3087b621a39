#pragma once

#include <cstddef>

#include "simt/device_properties.hpp"

namespace gas {

/// Cutover thresholds of the hybrid phase-3 sorter (Options defaults come
/// from tune_sort_phase on the modeled K40c).
struct Phase3Tuning {
    std::size_t small_cutoff = 0;    ///< <= this: plain insertion, legacy path
    std::size_t bitonic_cutoff = 0;  ///< > this: cooperative bitonic candidate
};

/// Modeled lane-cycles of one plain insertion sort of a k-element bucket
/// (expected compares + moves on shuffled input, weighted by the device's
/// cpi).  This is the one cost-model mirror: it sets the static cutoffs and
/// the kernel's per-block cooperative-vs-serial decision.
[[nodiscard]] double modeled_insertion_cycles(double k, const simt::DeviceProperties& props);

/// Same for binary insertion: O(k log k) compares + O(k^2/4) moves.
[[nodiscard]] double modeled_binary_insertion_cycles(double k,
                                                     const simt::DeviceProperties& props);

/// Modeled per-lane cycles of the cooperative bitonic path for one bucket:
/// staging + L(L+1)/2 compare-exchange regions + write-back, with the
/// bucket padded to m = 2^L and the pairs strided over `block_threads`
/// lanes.  Because every lane does (nearly) the same work, this is also
/// what the block's warps each pay.
[[nodiscard]] double modeled_bitonic_cycles(std::size_t k, unsigned block_threads,
                                            const simt::DeviceProperties& props);

/// Chooses the hybrid cutovers for a device:
///  * small_cutoff — where binary insertion's modeled saving over plain
///    insertion clears the scheduling pass, floored at `6 * bucket_target`
///    so buckets a healthy regular sample produces (the paper's uniform
///    operating point tops out near that multiple of the 20-element target)
///    never leave the classic path;
///  * bitonic_cutoff — where the modeled network beats one serialized lane,
///    floored at 2 * small_cutoff (below that, binned binary insertion
///    keeps whole warps busy without any shared scratch).
[[nodiscard]] Phase3Tuning tune_sort_phase(const simt::DeviceProperties& props,
                                           unsigned block_threads = 32,
                                           std::size_t bucket_target = 20);

}  // namespace gas
