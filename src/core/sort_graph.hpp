#pragma once

#include <cstdint>
#include <span>

#include "core/options.hpp"
#include "core/plan.hpp"
#include "core/sort_stats.hpp"
#include "simt/device.hpp"
#include "simt/device_buffer.hpp"
#include "simt/graph.hpp"

namespace gas {

/// The uniform GPU-ArraySort pipeline as one built-once, submit-many
/// simt::Graph (DESIGN.md section 13).  This is the only description of
/// the pipeline: sort_arrays_on_device builds one and runs it once.  A
/// holder can also be kept and resubmitted over new contents of its span.
///
/// The graph is (negate) -> phase1 -> phase2 -> dispatch -> phase3
/// (-> negate); the dispatch host node enqueues phase 3 only after phase 2's
/// Z row has settled, so the whole chain runs in one scheduling round-trip.
/// With a single bucket per array (plan.buckets == 1) it degenerates to
/// (negate) -> packed small-array insertion sort (-> negate), with no S/Z
/// temporaries.  Descending order negates before and after (IEEE negation
/// reverses float order exactly), so it needs a floating-point T.
///
/// The S/Z/scratch temporaries are allocated once, in that order, and stay
/// alive between runs.  Device::submit resets the graph's runtime state, so
/// every run() executes the same node sequence over the same spans: the
/// sorted bytes and every deterministic KernelStats field match a fresh
/// gpu_array_sort call (the UniformSortGraph tests in
/// tests/core/test_exec_equivalence.cpp pin this).
///
/// validate, verify_output and collect_bucket_sizes are host-side steps the
/// caller runs around run(); the graph does not read them.
template <typename T>
class UniformSortGraph {
  public:
    /// Builds the pipeline over `data` (a device span holding at least
    /// num_arrays x array_size elements, where the caller stages every batch).
    /// Throws std::invalid_argument for an empty batch, a short span, or
    /// descending order over an integral T.
    UniformSortGraph(simt::Device& device, std::span<T> data, std::size_t num_arrays,
                     std::size_t array_size, const Options& opts);

    UniformSortGraph(const UniformSortGraph&) = delete;
    UniformSortGraph& operator=(const UniformSortGraph&) = delete;

    /// Submits the graph over the current contents of the data span.  Fills
    /// every SortStats field except bucket_sizes and verify.
    SortStats run();

    [[nodiscard]] const SortPlan& plan() const { return plan_; }
    [[nodiscard]] std::size_t runs() const { return runs_; }

    /// The bucket-size table Z (num_arrays rows of plan().buckets), as the
    /// last run() left it.  Empty on the small-array path.
    [[nodiscard]] std::span<const std::uint32_t> bucket_sizes() const {
        return bucket_sizes_.span();
    }

  private:
    simt::Device* device_;
    std::span<T> span_;
    std::size_t num_arrays_;
    std::size_t array_size_;
    Options opts_;
    SortPlan plan_;
    bool descending_;

    simt::DeviceBuffer<T> splitters_;
    simt::DeviceBuffer<std::uint32_t> bucket_sizes_;
    simt::DeviceBuffer<T> scratch_;

    simt::Graph graph_;
    // Node ids run() reads back.  On the three-phase path the dispatch node
    // re-sets phase3_ and post_negate_ on every submit.
    simt::Graph::NodeId phase1_ = 0;
    simt::Graph::NodeId phase2_ = 0;
    simt::Graph::NodeId phase3_ = 0;
    simt::Graph::NodeId pre_negate_ = 0;
    simt::Graph::NodeId post_negate_ = 0;

    std::size_t runs_ = 0;
};

extern template class UniformSortGraph<float>;
extern template class UniformSortGraph<double>;
extern template class UniformSortGraph<std::uint32_t>;
extern template class UniformSortGraph<std::int32_t>;

}  // namespace gas
