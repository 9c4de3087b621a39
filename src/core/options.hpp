#pragma once

#include <cstddef>
#include <string>

namespace gas {

/// How phase 2 assigns work to threads.
enum class BucketingStrategy {
    /// The paper's scheme: one splitter pair per thread; every thread scans
    /// the whole array and keeps the elements in its pair's range.  Branch
    /// divergence free, O(n) work per thread.
    ScanPerThread,
    /// Extension: each thread scans an n/p contiguous chunk and binary
    /// searches the splitters per element.  O((n/p) log p) work per thread
    /// but needs shared-memory cursors (atomics on real hardware).
    BinarySearch,
};

[[nodiscard]] inline std::string to_string(BucketingStrategy s) {
    return s == BucketingStrategy::ScanPerThread ? "scan-per-thread" : "binary-search";
}

/// Output ordering.  Descending runs the same ascending machinery over
/// negated keys (an elementwise negate kernel before and after — IEEE
/// negation reverses float total order exactly), so every sorter supports
/// it: uniform, ragged, and key/value (uniform or ragged).
enum class SortOrder { Ascending, Descending };

[[nodiscard]] inline std::string to_string(SortOrder o) {
    return o == SortOrder::Ascending ? "ascending" : "descending";
}

/// Tuning knobs of GPU-ArraySort.  Defaults are the paper's choices.
struct Options {
    /// Minimum elements per bucket; the paper's empirical optimum is 20
    /// (section 5.1: "best performance ... at least 20 elements per bucket").
    std::size_t bucket_target = 20;

    /// Regular-sampling rate for splitter selection; the paper found 10%
    /// best for uniformly distributed data (section 5.1).
    double sampling_rate = 0.10;

    BucketingStrategy strategy = BucketingStrategy::ScanPerThread;

    SortOrder order = SortOrder::Ascending;

    /// Threads cooperating on one bucket in phase 2.  The paper explored >1
    /// and found it slower (section 5.2); kept as an ablation knob.
    unsigned threads_per_bucket = 1;

    /// Hybrid skew-aware phase 3 (DESIGN.md section 8): per-bucket cutover
    /// between plain insertion (tiny), binary insertion (mid) and a
    /// cooperative shared-memory bitonic network (oversized), plus a
    /// size-binning scheduler that groups same-size-class buckets onto the
    /// same warp.  Off reproduces the pre-hybrid kernels bit-for-bit
    /// (identical KernelStats), which the paper-figure benches rely on.
    bool hybrid_phase3 = true;

    /// Buckets at or below this size take the classic one-lane insertion
    /// sort via the legacy fast path (no scheduling pass at all when every
    /// bucket of a block qualifies).  Default from tune_sort_phase on the
    /// modeled K40c: healthy regular-sampling buckets (~6x the 20-element
    /// target at the tail) stay on the paper's code path; only genuine skew
    /// pays for scheduling.
    std::size_t phase3_small_cutoff = 120;

    /// Buckets above this size become candidates for the cooperative
    /// bitonic-network path (when the padded run fits the remaining shared
    /// memory; a per-block cost-model cutover still compares it against
    /// binned binary insertion).  Default from tune_sort_phase: 2x the
    /// small cutoff, past the point where the modeled network beats a
    /// single serialized lane for every block width.
    std::size_t phase3_bitonic_cutoff = 240;

    /// Verify output (sortedness + per-array permutation) before returning.
    /// Host-side and exhaustive: throws std::logic_error on failure.  A
    /// debugging tool — prefer verify_output for production resilience.
    bool validate = false;

    /// End-to-end result verification (gas::resilient): an order-independent
    /// multiset checksum per row, taken on the host before sorting, then one
    /// verify kernel after — sortedness plus permutation-by-checksum.
    /// Failure throws gas::resilient::VerifyError (a transient error the
    /// retry harness re-stages and re-runs).  Costs one extra kernel,
    /// recorded in SortStats::verify; off (the default) adds no launches and
    /// keeps output bytes and KernelStats bit-identical.
    bool verify_output = false;

    /// Copy the bucket-size array Z into SortStats::bucket_sizes for
    /// offline analysis (core/analysis.hpp).  Costs a host copy of N*p u32.
    bool collect_bucket_sizes = false;
};

}  // namespace gas
