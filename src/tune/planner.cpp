#include "tune/planner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/gpu_array_sort.hpp"
#include "core/plan.hpp"
#include "core/tune.hpp"

namespace gas::tune {

namespace {

/// Regime thresholds.  A uniform histogram puts ~1/kBins in every bin; a
/// hot band concentrated in one or two bins pushes hot_fraction far past
/// that.  Shuffled data sits near sortedness 0.5.
constexpr double kFewDistinctRatio = 0.05;  ///< distinct/sampled below this
constexpr double kSortednessCut = 0.85;     ///< ascending-pair fraction above this
constexpr double kHotFractionCut = 0.35;    ///< heaviest-bin mass above this

/// Floor on the quadratic discounts: even sorted or constant buckets pay a
/// few compares per element.
constexpr double kQuadFloor = 0.02;

bool same_shape(const Options& a, const Options& b) {
    return a.bucket_target == b.bucket_target && a.sampling_rate == b.sampling_rate &&
           a.strategy == b.strategy &&
           a.phase3_small_cutoff == b.phase3_small_cutoff &&
           a.phase3_bitonic_cutoff == b.phase3_bitonic_cutoff;
}

bool is_prime(std::size_t q) {
    if (q < 2) return false;
    for (std::size_t d = 2; d * d <= q; ++d) {
        if (q % d == 0) return false;
    }
    return true;
}

/// Sketch-derived discounts on the quadratic insertion terms.
struct Discounts {
    double inv = 1.0;    ///< inversion density (1 = shuffled, ~0 = sorted)
    double dup = 1.0;    ///< duplicate discount on inversions, 1 - 1/m
    double quad1 = 1.0;  ///< phase-1 sample-sort scale (inv x dup)
};

Discounts discounts_of(const Sketch& sketch) {
    Discounts d;
    d.inv = std::clamp(2.0 * (1.0 - sketch.sortedness), kQuadFloor, 1.0);
    // A shuffled m-valued array has ~(1 - 1/m) of a distinct-valued array's
    // inversions (equal pairs are never inverted).
    d.dup = 1.0 - 1.0 / std::max(1.0, sketch.distinct_estimate());
    d.quad1 = std::max(kQuadFloor, d.inv * d.dup);
    return d;
}

/// Modeled wall cycles of sorting one k-element bucket under the hybrid
/// cutover rules, with the data-dependent quadratic terms scaled by `quad`.
/// The bitonic term is NOT discounted: the network does identical work
/// regardless of input order.
double bucket_cycles(double k, const Options& opts, double quad,
                     const simt::DeviceProperties& props) {
    if (k <= 1.0) return props.cpi * 2.0;
    const double ins = modeled_insertion_cycles(k, props, quad);
    if (!opts.hybrid_phase3 || k <= static_cast<double>(opts.phase3_small_cutoff)) {
        return ins;
    }
    double best = std::min(ins, modeled_binary_insertion_cycles(k, props, quad));
    if (k > static_cast<double>(opts.phase3_bitonic_cutoff)) {
        best = std::min(best,
                        modeled_bitonic_cycles(static_cast<std::size_t>(k), 32, props));
    }
    return best + props.cpi * 4.0;  // scheduling-pass share
}

}  // namespace

Regime classify(const Sketch& sketch) {
    if (sketch.empty()) return Regime::Uniform;
    // Duplicates first: a constant input is also perfectly "sorted", but the
    // winning plan is the duplicate-aware one.
    if (sketch.distinct_ratio < kFewDistinctRatio) return Regime::FewDistinct;
    if (sketch.sortedness >= kSortednessCut) return Regime::NearlySorted;
    if (sketch.hot_fraction() >= kHotFractionCut) return Regime::Skewed;
    return Regime::Uniform;
}

double predicted_cost_per_element(const Sketch& sketch, std::size_t array_size,
                                  const Options& opts,
                                  const simt::DeviceProperties& props) {
    if (array_size == 0) return 0.0;
    const SortPlan plan = make_plan(array_size, opts, props);
    const auto n = static_cast<double>(array_size);
    const auto p = static_cast<double>(plan.buckets);
    const auto s = static_cast<double>(plan.sample_size);
    const Discounts d = discounts_of(sketch);

    // Phase 1: one serial lane per array — strided sample loads, an
    // insertion sort of the sample (the strided sample inherits the row's
    // sortedness and duplicates), splitter writes.
    const double phase1 =
        props.cpi * (3.0 * s + d.quad1 * s * s / 2.0 + 2.0 * s + p + 1.0);

    // Phase 2 wall: scan-per-thread has every one of the p threads scan all
    // n elements, so the block's wall is ~2n regardless of p; the
    // binary-search strategy scans an n/p chunk per thread with a log p
    // probe per element.
    const double phase2 =
        opts.strategy == BucketingStrategy::ScanPerThread
            ? props.cpi * (2.0 * n + 2.0 * (n / p))
            : props.cpi * ((n / p) * (std::log2(std::max(2.0, p)) + 2.0) +
                           2.0 * (n / p));

    // Phase 3 wall: the largest bucket serializes its lane.  Three sources:
    //  * splitter roughness — a minimal sample's splitters are noisier;
    //  * an aliased hot band — band mass the regular sample MISSES because
    //    a periodic adversary hides from a composite stride.  Only distinct
    //    values can hide this way (duplicate mass is hit by any sample), so
    //    the term scales with the observed distinct ratio and vanishes for
    //    a prime stride;
    //  * duplicate runs — no splitter can subdivide equal keys, so one
    //    value's mass (~n/m) shares a bucket; harmless, since insertion
    //    over equals is near-linear, which the discount below reflects.
    const double k_avg = n / p;
    const double rough = s >= 2.0 * p ? 2.5 : 4.0;
    const double k_max = std::min(n, k_avg * rough);
    const std::size_t stride =
        std::max<std::size_t>(1, array_size / std::max<std::size_t>(1, plan.sample_size));
    const bool aliasable = stride >= 2 && !is_prime(stride);
    const double hot_excess = std::max(
        0.0, sketch.hot_fraction() - 2.0 / static_cast<double>(Sketch::kBins));
    const double m = sketch.distinct_estimate();
    const double k_alias =
        hot_excess * sketch.distinct_ratio * n * (aliasable ? 1.0 : 0.05);
    const double k_dup = n / m;
    const double k_big = std::min(n, std::max({k_max, k_alias, k_dup}));
    // Distinct values inside the big bucket: its share of the row's m.
    const double big_bucket_distinct = std::max(1.0, m * k_big / n);
    const double dup3 = 1.0 - 1.0 / big_bucket_distinct;
    const double quad3 = std::max(kQuadFloor, d.inv * dup3);
    const double phase3 =
        bucket_cycles(k_big, opts, quad3, props) + props.cpi * 2.0 * k_avg;

    return (phase1 + phase2 + phase3) / n;
}

std::vector<Candidate> make_candidates(const Sketch& sketch, std::size_t array_size,
                                       const Options& base,
                                       const simt::DeviceProperties& props) {
    std::vector<Candidate> out;
    auto score = [&](const Options& o) {
        return predicted_cost_per_element(sketch, array_size, o, props);
    };
    // Non-default candidates take the modeled-cheaper phase-2 strategy.
    auto add = [&](std::string name, Options o, bool pick_strategy) {
        if (pick_strategy) {
            Options alt = o;
            alt.strategy = o.strategy == BucketingStrategy::ScanPerThread
                               ? BucketingStrategy::BinarySearch
                               : BucketingStrategy::ScanPerThread;
            if (score(alt) < score(o)) o = alt;
        }
        for (const Candidate& c : out) {
            if (same_shape(c.opts, o)) return;  // collapsed onto an earlier plan
        }
        out.push_back(Candidate{std::move(name), o, score(o)});
    };

    add("paper-default", base, false);
    if (array_size == 0 || sketch.empty()) return out;

    {
        Options o = base;
        o.sampling_rate = kLeanSampleRate;
        add("lean-sample", o, true);
    }
    {
        // Largest prime stride not above the base plan's stride: same
        // sample-size scale as lean, but immune to periodic aliasing.
        const SortPlan bp = make_plan(array_size, base, props);
        std::size_t q = std::max<std::size_t>(
            1, array_size / std::max<std::size_t>(1, bp.buckets));
        while (q > 2 && !is_prime(q)) --q;
        if (q >= 3) {
            Options o = base;
            o.sampling_rate = static_cast<double>(array_size / q) /
                              static_cast<double>(array_size);
            add("hot-split", o, true);
        }
    }
    {
        // Line search over bucket-target multipliers with a lean sample:
        // wider buckets shrink the sample floor (s = p) further when the
        // sketch says big buckets stay cheap.
        Options best = base;
        best.sampling_rate = kLeanSampleRate;
        double best_cost = score(best);
        for (const std::size_t mult : {2, 4, 8}) {
            Options o = base;
            o.sampling_rate = kLeanSampleRate;
            o.bucket_target = std::min(base.bucket_target * mult, array_size);
            const double c = score(o);
            if (c < best_cost) {
                best_cost = c;
                best = o;
            }
        }
        add("balanced", best, true);
    }
    {
        Options o = base;
        o.sampling_rate = kLeanSampleRate;
        o.bucket_target = std::min(base.bucket_target * 8, array_size);
        if (o.hybrid_phase3) {
            const Phase3Tuning t = tune_sort_phase(props, 32, o.bucket_target);
            o.phase3_small_cutoff = t.small_cutoff;
            o.phase3_bitonic_cutoff = t.bitonic_cutoff;
        }
        add("run-length", o, true);
    }
    return out;
}

Plan plan_sort(const Sketch& sketch, std::size_t array_size, const Options& base,
               const simt::DeviceProperties& props) {
    Plan plan;
    plan.regime = classify(sketch);
    plan.considered = make_candidates(sketch, array_size, base, props);
    std::size_t win = 0;
    for (std::size_t i = 1; i < plan.considered.size(); ++i) {
        if (plan.considered[i].predicted_cost < plan.considered[win].predicted_cost) {
            win = i;
        }
    }
    plan.opts = plan.considered[win].opts;
    plan.candidate = plan.considered[win].name;
    plan.predicted_cost = plan.considered[win].predicted_cost;
    return plan;
}

TunedSortResult tuned_sort(simt::Device& device, std::span<float> values,
                           std::size_t num_arrays, std::size_t array_size,
                           const Options& base) {
    TunedSortResult result;
    result.plan.opts = base;
    result.plan.candidate = "paper-default";
    if (num_arrays > 0 && array_size > 0) {
        result.sketch = sketch_values(values, num_arrays, array_size);
        if (!result.sketch.empty()) {
            result.plan = plan_sort(result.sketch, array_size, base, device.props());
            result.sketch_modeled_ms = modeled_sketch_ms(result.sketch, device.props());
        }
    }
    result.stats =
        gpu_array_sort(device, values, num_arrays, array_size, result.plan.opts);
    return result;
}

}  // namespace gas::tune
