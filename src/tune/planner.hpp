#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/sort_stats.hpp"
#include "simt/device.hpp"
#include "tune/sketch.hpp"

namespace gas::tune {

/// A sampling rate low enough that make_plan and the fused kernel always
/// clamp the regular sample to its floor, one key per bucket (s = p).  The
/// lean-sample candidate uses it, and gas::serve sorts every keys-only batch
/// with it: in the fused row kernel the sample sort is one serial lane, so on
/// long rows a larger sample costs more than its smoother splitters save.
inline constexpr double kLeanSampleRate = 1e-3;

/// Input regimes the planner distinguishes.  Deliberately coarse: each
/// regime maps to one family of plan shapes.
enum class Regime : std::uint8_t { Uniform, Skewed, FewDistinct, NearlySorted };

/// Maps a sketch to its regime: duplicate density first (a constant or
/// few-distinct input is "sorted-looking" too), then pre-sortedness, then
/// histogram skew, defaulting to Uniform.
[[nodiscard]] Regime classify(const Sketch& sketch);

/// One concrete plan the planner weighed: a named strategy, the Options it
/// concretizes to for this sketch, and its modeled cost.
struct Candidate {
    std::string name;
    Options opts;
    double predicted_cost = 0.0;  ///< modeled cycles per element
};

/// The planner's decision for one (sketch, geometry) pair.
struct Plan {
    Options opts;                       ///< winning candidate's options
    std::string candidate;              ///< its name
    Regime regime = Regime::Uniform;
    double predicted_cost = 0.0;        ///< winning modeled cycles/element
    std::vector<Candidate> considered;  ///< every candidate, scored
};

/// The named strategies, concretized for this sketch and geometry.  Every
/// candidate derives from `base` (only the sort-shaping knobs change), and
/// each targets one regime's modeled wall-cost structure (phase 1's sample
/// insertion sort is serial per array, so it dominates the paper's defaults;
/// phase 2's scan is p-independent wall time; phase 3's wall is set by the
/// largest bucket):
///  * paper-default — base untouched (the paper's 20-element buckets, 10%
///    sampling; always first, so ties keep today's behaviour);
///  * lean-sample   — the minimum regular sample (kLeanSampleRate, which
///    make_plan clamps to p),
///    cutting the quadratic serial sample sort; the hybrid phase 3 absorbs
///    the slightly rougher splitters.  The uniform-regime workhorse;
///  * hot-split     — lean sampling with the sample size chosen so the
///    stride n/s is PRIME: a periodic hot-band adversary that hides from a
///    composite stride (the ZipfHot generator's decoy trick) aliases with
///    stride 10 but not with stride 19, so the splitters land inside the
///    band and the hot bucket dissolves.  The skew-regime answer;
///  * balanced      — bucket target from a modeled-cost line search (lean
///    sample, base cutoffs): fewer, wider buckets shrink the sample floor
///    further when duplication or presortedness makes big buckets cheap;
///  * run-length    — 8x wider buckets WITH re-tuned cutoffs (insertion on
///    nearly-sorted buckets is O(k + inversions), beating the oblivious
///    bitonic network), for the nearly-sorted regime.
/// Non-default candidates also take the modeled-cheaper phase-2 strategy
/// (the binary-search scan's (n/p) log p wall beats scan-per-thread's 2n).
[[nodiscard]] std::vector<Candidate> make_candidates(const Sketch& sketch,
                                                     std::size_t array_size,
                                                     const Options& base,
                                                     const simt::DeviceProperties& props);

/// Modeled wall cycles per element of one full 3-phase sort of an
/// `array_size` array under `opts`, conditioned on the sketch.  Wall, not
/// work: phase 1 is one serial lane per array (quadratic in the sample,
/// discounted by observed pre-sortedness and duplicate density), phase 2 is
/// the per-thread scan wall (p-independent for scan-per-thread, (n/p) log p
/// for binary search), and phase 3 is the largest bucket's cost under the
/// hybrid cutover rules (mirrored via core/tune's modeled_*_cycles), with
/// an unresolved-hot-band term that vanishes when the sampling stride is
/// prime (no aliasing with a periodic adversary).
[[nodiscard]] double predicted_cost_per_element(const Sketch& sketch,
                                               std::size_t array_size, const Options& opts,
                                               const simt::DeviceProperties& props);

/// Scores every candidate and returns the argmin (ties keep the earliest,
/// i.e. paper-default).
[[nodiscard]] Plan plan_sort(const Sketch& sketch, std::size_t array_size,
                             const Options& base, const simt::DeviceProperties& props);

/// A tuned gpu_array_sort: sketch -> plan -> sort, returning the sketch and
/// plan next to the SortStats so callers (tests, CLIs) can audit the
/// decision.
struct TunedSortResult {
    Sketch sketch;
    Plan plan;
    SortStats stats;
    double sketch_modeled_ms = 0.0;  ///< modeled_sketch_ms (0 with nothing to sketch)
};

TunedSortResult tuned_sort(simt::Device& device, std::span<float> values,
                           std::size_t num_arrays, std::size_t array_size,
                           const Options& base);

}  // namespace gas::tune
