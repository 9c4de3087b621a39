#include "core/sort_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/device_ops.hpp"
#include "core/insertion_sort.hpp"
#include "core/phases.hpp"

namespace gas {

namespace {

PhaseStats to_phase_stats(const simt::KernelStats& k) { return {k.modeled_ms, k.wall_ms}; }

/// Argument checks, then the N x n prefix of `data` the pipeline sorts.
template <typename T>
std::span<T> batch_span(std::span<T> data, std::size_t num_arrays, std::size_t array_size,
                        const Options& opts) {
    if (num_arrays == 0 || array_size == 0) {
        throw std::invalid_argument("UniformSortGraph: empty batch");
    }
    if (data.size() < num_arrays * array_size) {
        throw std::invalid_argument("UniformSortGraph: span smaller than N x n");
    }
    if (opts.order == SortOrder::Descending && !std::is_floating_point_v<T>) {
        throw std::invalid_argument(
            "UniformSortGraph: descending order requires a floating-point element type "
            "(implemented via IEEE negation)");
    }
    return data.first(num_arrays * array_size);
}

/// The descending-order negate kernel.  batch_span rejects descending
/// integral sorts, so the integral branch is never reached.
template <typename T>
detail::KernelSpec negate_kernel(std::span<T> data) {
    if constexpr (std::is_floating_point_v<T>) {
        return negate_spec(data);
    } else {
        throw std::logic_error("UniformSortGraph: negate of an integral type");
    }
}

/// Small-array fast path: with a single bucket the three phases degenerate
/// to "one thread insertion-sorts the whole array".  Packing 256 arrays into
/// each block (instead of N one-thread blocks) fills the SMs.
template <typename T>
detail::KernelSpec small_array_spec(std::span<T> data, std::size_t num_arrays,
                                    std::size_t array_size) {
    constexpr unsigned kPack = 256;
    simt::LaunchConfig cfg{"gas.small_array_sort",
                           static_cast<unsigned>((num_arrays + kPack - 1) / kPack), kPack};
    auto body = [=](simt::BlockCtx& blk) {
        const auto sort_lane = [&](simt::ThreadCtx& tc) {
            const std::size_t a = static_cast<std::size_t>(blk.block_idx()) * kPack + tc.tid();
            if (a >= num_arrays) return;
            const std::span<T> row{data.data() + a * array_size, array_size};
            const InsertionCost cost = insertion_sort(row);
            tc.ops(cost.compares + cost.moves);
            tc.global_random(2ull * array_size);
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(sort_lane); });
    };
    return {cfg, std::move(body)};
}

}  // namespace

template <typename T>
UniformSortGraph<T>::UniformSortGraph(simt::Device& device, std::span<T> data,
                                      std::size_t num_arrays, std::size_t array_size,
                                      const Options& opts)
    : device_(&device),
      span_(batch_span(data, num_arrays, array_size, opts)),
      num_arrays_(num_arrays),
      array_size_(array_size),
      opts_(opts),
      plan_(make_plan(array_size, opts, device.props(), sizeof(T))),
      descending_(opts.order == SortOrder::Descending) {
    std::vector<simt::Graph::NodeId> first_deps;
    if (descending_) {
        pre_negate_ = graph_.add_kernel(negate_kernel(span_));
        first_deps.push_back(pre_negate_);
    }

    if (plan_.buckets == 1) {
        phase3_ = graph_.add_kernel(small_array_spec(span_, num_arrays_, array_size_),
                                    first_deps);
        if (descending_) post_negate_ = graph_.add_kernel(negate_kernel(span_), {phase3_});
        return;
    }

    // Run-time temporaries: S (splitters) and Z (bucket sizes) only — the
    // algorithm's in-place property.  A global scratch row per *resident*
    // block is added only for arrays too large to stage in shared memory.
    // Phase 2 picks its row by execution slot (< host_workers), so there are
    // never fewer rows than host workers, even for fewer arrays.
    splitters_ = simt::DeviceBuffer<T>(device, num_arrays_ * plan_.splitters_per_array);
    bucket_sizes_ = simt::DeviceBuffer<std::uint32_t>(device, num_arrays_ * plan_.buckets);
    std::size_t scratch_rows = 0;
    if (!plan_.array_fits_shared) {
        const unsigned conc =
            device.cost_model().blocks_per_sm(plan_.block_threads, /*shared_bytes=*/0);
        scratch_rows = std::max<std::size_t>(
            std::min<std::size_t>(num_arrays_,
                                  static_cast<std::size_t>(device.props().sm_count) * conc),
            device.host_workers());
        scratch_ = simt::DeviceBuffer<T>(device, scratch_rows * array_size_);
    }

    phase1_ = graph_.add_kernel(
        detail::splitter_phase_spec<T>(span_, num_arrays_, plan_, splitters_.span()),
        first_deps);
    phase2_ = graph_.add_kernel(
        detail::bucket_phase_spec<T>(span_, num_arrays_, plan_, opts_, splitters_.span(),
                                     bucket_sizes_.span(), scratch_.span(), scratch_rows),
        {phase1_});
    // The dispatch node re-enqueues phase 3 on every submit, so the spec is
    // captured by value and only copied out (never moved from).  The holder
    // is neither copyable nor movable, so `this` outlives every submit.
    graph_.add_host(
        "gas.phase3_dispatch",
        [this, s3 = detail::sort_phase_spec<T>(device.props(), span_, num_arrays_, plan_,
                                               bucket_sizes_.span(), opts_)](
            simt::GraphCtx& ctx) {
            phase3_ = ctx.enqueue_kernel(s3.cfg, s3.body);
            if (descending_) {
                post_negate_ = ctx.enqueue_kernel(negate_kernel(span_), {phase3_});
            }
        },
        {phase2_});
}

template <typename T>
SortStats UniformSortGraph<T>::run() {
    SortStats stats;
    stats.num_arrays = num_arrays_;
    stats.array_size = array_size_;
    stats.data_bytes = num_arrays_ * array_size_ * sizeof(T);
    stats.buckets_per_array = plan_.buckets;
    stats.sample_size = plan_.sample_size;

    device_->submit(graph_);
    ++runs_;

    if (plan_.buckets > 1) {
        stats.phase1 = to_phase_stats(graph_.kernel_stats(phase1_));
        stats.phase2 = to_phase_stats(graph_.kernel_stats(phase2_));
    }
    const simt::KernelStats& k3 = graph_.kernel_stats(phase3_);
    stats.phase3 = to_phase_stats(k3);
    stats.phase3_imbalance = k3.imbalance;
    if (descending_) {
        const simt::KernelStats& kp = graph_.kernel_stats(pre_negate_);
        const simt::KernelStats& kq = graph_.kernel_stats(post_negate_);
        stats.extra.modeled_ms = kp.modeled_ms + kq.modeled_ms;
        stats.extra.wall_ms = kp.wall_ms + kq.wall_ms;
    }
    stats.peak_device_bytes = device_->memory().peak_bytes_in_use();

    const auto z = bucket_sizes();
    if (z.empty()) {  // small-array path: one bucket holding the whole array
        stats.min_bucket = static_cast<std::uint32_t>(array_size_);
        stats.max_bucket = static_cast<std::uint32_t>(array_size_);
        stats.avg_bucket = static_cast<double>(array_size_);
        return stats;
    }
    const auto [mn, mx] = std::minmax_element(z.begin(), z.end());
    std::uint64_t sum = 0;
    for (const std::uint32_t v : z) sum += v;
    stats.min_bucket = *mn;
    stats.max_bucket = *mx;
    stats.avg_bucket = static_cast<double>(sum) / static_cast<double>(z.size());
    return stats;
}

template class UniformSortGraph<float>;
template class UniformSortGraph<double>;
template class UniformSortGraph<std::uint32_t>;
template class UniformSortGraph<std::int32_t>;

}  // namespace gas
