#include "core/tune.hpp"

#include <algorithm>
#include <cmath>

#include "core/bitonic.hpp"

namespace gas {

namespace {

double d(std::size_t v) { return static_cast<double>(v); }

}  // namespace

double modeled_insertion_cycles(double k, const simt::DeviceProperties& props) {
    // Shuffled input: ~k^2/4 compares + ~k^2/4 moves, plus the O(k) floor.
    return props.cpi * (k * k / 2.0 + 2.0 * k);
}

double modeled_binary_insertion_cycles(double k, const simt::DeviceProperties& props) {
    const double log2k = k > 1.0 ? std::log2(k) : 0.0;
    // Probe compares k*log2(k), shuffled-input moves ~k^2/4, plus the
    // search-bookkeeping constant per element.
    return props.cpi * (k * log2k + k * k / 4.0 + 2.0 * k);
}

double modeled_bitonic_cycles(std::size_t k, unsigned block_threads,
                              const simt::DeviceProperties& props) {
    const std::size_t m = detail::bitonic_padded_size(k);
    const std::size_t steps = detail::bitonic_step_count(m);
    const double lanes = d(std::max(block_threads, 1u));
    const double pairs_per_lane = std::ceil(d(m / 2) / lanes);
    const double elems_per_lane = std::ceil(d(m) / lanes);
    // Per pair: index math + compare + two unconditional write-backs
    // (~8 ops) and 2 reads + 2 writes of shared (4 accesses).
    const double step_cost = pairs_per_lane * (8.0 * props.cpi +
                                               4.0 * props.shared_access_cycles);
    // Staging and write-back: one shared access + ~2 ops per element
    // (global traffic is coalesced and belongs to the memory roofline, not
    // the cycle count).
    const double copy_cost = elems_per_lane * (2.0 * props.cpi +
                                               props.shared_access_cycles);
    return d(steps) * step_cost + 2.0 * copy_cost;
}

Phase3Tuning tune_sort_phase(const simt::DeviceProperties& props, unsigned block_threads,
                             std::size_t bucket_target) {
    Phase3Tuning t;

    // Smallest k where binary insertion's saving over plain insertion also
    // amortizes the size-binning scheduling pass (~6 cycles per bucket of
    // counting-sort work on one lane, paid once per block).
    const double sched_per_bucket = 6.0 * props.cpi;
    std::size_t crossover_binary = 256;
    for (std::size_t k = 2; k <= 4096; ++k) {
        if (modeled_insertion_cycles(d(k), props) >
            modeled_binary_insertion_cycles(d(k), props) + sched_per_bucket) {
            crossover_binary = k;
            break;
        }
    }
    t.small_cutoff = std::max<std::size_t>(crossover_binary, 6 * bucket_target);

    // Smallest k where the cooperative network's per-warp cycles undercut a
    // single lane serializing the bucket with binary insertion.
    std::size_t crossover_bitonic = 4096;
    for (std::size_t k = t.small_cutoff; k <= 65536; ++k) {
        if (modeled_binary_insertion_cycles(d(k), props) >
            modeled_bitonic_cycles(k, block_threads, props)) {
            crossover_bitonic = k;
            break;
        }
    }
    t.bitonic_cutoff = std::max<std::size_t>(crossover_bitonic, 2 * t.small_cutoff);
    return t;
}

}  // namespace gas
