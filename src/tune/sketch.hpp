#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "simt/device_properties.hpp"

namespace gas::tune {

/// Cheap per-request distribution sketch (DESIGN.md section 14).
///
/// Phase-1-style regular sampling on the host copy of a request: a strided
/// pass (capped at kMaxSamples values) feeds a coarse fixed-domain key
/// histogram, min/max keys and a distinct-ratio estimate, and a short
/// consecutive-prefix pass per row estimates pre-sortedness.  The sketch is
/// a pure function of the input bytes — no device work, no randomness — so
/// it is deterministic across exec modes (scalar/warp), worker counts and
/// thread orders by construction (pinned by tests/tune/test_tune.cpp).
///
/// The histogram bins cover a fixed key domain (the paper's [0, 2^31) by
/// default) rather than the observed [min, max], so sketches from different
/// requests merge bin-for-bin.
struct Sketch {
    static constexpr std::size_t kBins = 32;
    /// The paper's key domain ([0, 2^31) uniform floats); matches
    /// fleet::Router::kDefaultKeySpace without depending on gas_fleet.
    static constexpr double kDefaultKeySpace = 2147483648.0;
    /// Strided-sample cap: enough resolution for 32 bins at a bounded host
    /// cost per request.
    static constexpr std::size_t kMaxSamples = 1024;
    /// Consecutive-prefix window for the sortedness estimate.
    static constexpr std::size_t kRunRows = 8;
    static constexpr std::size_t kRunWindow = 128;

    std::array<std::uint64_t, kBins> histogram{};  ///< fixed-domain key counts
    double key_space = kDefaultKeySpace;  ///< histogram domain upper bound
    double min_key = 0.0;
    double max_key = 0.0;
    std::size_t sampled = 0;   ///< strided samples behind histogram/distinct
    std::size_t adjacent = 0;  ///< consecutive pairs behind sortedness
    /// Distinct samples / samples (1.0 = all distinct, ~1/sampled = constant).
    double distinct_ratio = 1.0;
    /// Distinct values observed in the sample, as an absolute count.  Merged
    /// with max rather than sum: requests in one batch typically draw from
    /// the same key population, so re-observing the same few keys must not
    /// inflate the estimate (the match-distinct plan sizes buckets from it).
    double distinct_keys = 1.0;
    /// Fraction of consecutive in-row pairs already in ascending order
    /// (~0.5 for shuffled data, ~1.0 for sorted).
    double sortedness = 0.5;
    std::size_t rows = 0;      ///< arrays the sketch covers
    std::size_t elements = 0;  ///< total elements it summarizes

    [[nodiscard]] bool empty() const { return sampled == 0; }

    /// Mass fraction of the heaviest histogram bin (0 when empty).  A value
    /// far above 1/kBins flags a hot key band the splitter phase may fail to
    /// resolve at the default sampling rate.
    [[nodiscard]] double hot_fraction() const;

    /// Estimated number of distinct keys in the underlying population
    /// (>= 1): the observed sample distinct count, max-merged across
    /// requests.  A lower bound when the population outnumbers the sample,
    /// which only errs toward fewer, wider buckets — safe for planning.
    [[nodiscard]] double distinct_estimate() const;

    /// Folds `other` into this sketch (bin-wise histogram add; weighted
    /// means for distinct_ratio and sortedness).  Merging an empty sketch is
    /// a no-op; merging into an empty sketch copies.
    void merge(const Sketch& other);
};

/// Sketches `num_arrays` rows of `array_size` contiguous values.
[[nodiscard]] Sketch sketch_values(std::span<const float> values, std::size_t num_arrays,
                                   std::size_t array_size,
                                   double key_space = Sketch::kDefaultKeySpace);

/// Sketches a CSR buffer (ragged rows described by `offsets`).
[[nodiscard]] Sketch sketch_ragged(std::span<const float> values,
                                   std::span<const std::uint64_t> offsets,
                                   double key_space = Sketch::kDefaultKeySpace);

/// Modeled cost of taking the sketch, on the same scale as KernelStats
/// modeled_ms (cycles / clock x the calibration derate).
[[nodiscard]] double modeled_sketch_ms(const Sketch& sketch,
                                       const simt::DeviceProperties& props);

}  // namespace gas::tune
