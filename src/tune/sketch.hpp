#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace gas::tune {

/// Cheap per-request distribution sketch (DESIGN.md section 14).  Nothing
/// in the library acts on it: the benchmark ledger times sketch_values and
/// sketch_ragged on its request bodies (tune.sketch_host_us).
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
/// default) rather than the observed [min, max], so sketches of different
/// requests compare bin-for-bin.
struct Sketch {
    static constexpr std::size_t kBins = 32;
    /// The paper's key domain ([0, 2^31) uniform floats).
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
    /// Distinct values observed in the sample, as an absolute count (a lower
    /// bound on the population's distinct keys when it outnumbers the sample).
    double distinct_keys = 1.0;
    /// Fraction of consecutive in-row pairs already in ascending order
    /// (~0.5 for shuffled data, ~1.0 for sorted).
    double sortedness = 0.5;
    std::size_t rows = 0;      ///< arrays the sketch covers
    std::size_t elements = 0;  ///< total elements it summarizes
};

/// Sketches `num_arrays` rows of `array_size` contiguous values.
[[nodiscard]] Sketch sketch_values(std::span<const float> values, std::size_t num_arrays,
                                   std::size_t array_size,
                                   double key_space = Sketch::kDefaultKeySpace);

/// Sketches a CSR buffer (ragged rows described by `offsets`).
[[nodiscard]] Sketch sketch_ragged(std::span<const float> values,
                                   std::span<const std::uint64_t> offsets,
                                   double key_space = Sketch::kDefaultKeySpace);

}  // namespace gas::tune
