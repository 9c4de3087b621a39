#pragma once

#include <cstdint>
#include <string_view>

#include "simt/cost_model.hpp"
#include "workload.hpp"

namespace ledger {

/// Which pipeline stage a logged kernel belongs to.
enum class Stage { Phase1, Phase2, Phase3, Fused, Other };

[[nodiscard]] Stage kernel_stage(std::string_view name);

[[nodiscard]] const char* stage_name(Stage s);

/// Sums over a run of simt::Device::kernel_log() entries.
struct KernelTotals {
    double stage_wall_ms[4] = {};     ///< indexed by Stage (Other excluded)
    double stage_modeled_ms[4] = {};
    double wall_ms = 0.0;
    double ops = 0.0, coalesced_bytes = 0.0, random_accesses = 0.0, shared_accesses = 0.0;
    double warp_max_cycles = 0.0, warp_mean_cycles = 0.0;  ///< phase 3 + fused only
    std::uint64_t launches = 0;

    void add(const simt::KernelStats& k);

    /// Fills the core.* and simt.* kernel metrics, per op and per element.
    void fill(LayerMetrics& out, double ops_done, double elements) const;
};

}  // namespace ledger
