#include "kernels.hpp"

namespace ledger {

Stage kernel_stage(std::string_view name) {
    if (name == "gas.phase1_splitters") return Stage::Phase1;
    if (name == "gas.phase2_bucketing") return Stage::Phase2;
    if (name == "gas.phase3_sort" || name == "gas.small_array_sort") return Stage::Phase3;
    if (name == "gas.ragged_fused" || name == "gas.pair_sort_fused") return Stage::Fused;
    return Stage::Other;
}

const char* stage_name(Stage s) {
    switch (s) {
        case Stage::Phase1: return "phase1";
        case Stage::Phase2: return "phase2";
        case Stage::Phase3: return "phase3";
        case Stage::Fused: return "fused";
        case Stage::Other: return "other";
    }
    return "other";
}

void KernelTotals::add(const simt::KernelStats& k) {
    const Stage s = kernel_stage(k.name);
    if (s != Stage::Other) {
        stage_wall_ms[static_cast<int>(s)] += k.wall_ms;
        stage_modeled_ms[static_cast<int>(s)] += k.modeled_ms;
    }
    if (s == Stage::Phase3 || s == Stage::Fused) {
        warp_max_cycles += k.warp_max_cycles;
        warp_mean_cycles += k.warp_mean_cycles;
    }
    wall_ms += k.wall_ms;
    ops += static_cast<double>(k.totals.ops);
    coalesced_bytes += static_cast<double>(k.totals.coalesced_bytes);
    random_accesses += static_cast<double>(k.totals.random_accesses);
    shared_accesses += static_cast<double>(k.totals.shared_accesses);
    ++launches;
}

void KernelTotals::fill(LayerMetrics& out, double ops_done, double elements) const {
    const auto per_op = [&](double v) { return ops_done > 0 ? v / ops_done : 0.0; };
    const auto per_elem = [&](double v) { return elements > 0 ? v / elements : 0.0; };
    out.phase1_wall_ms = per_op(stage_wall_ms[0]);
    out.phase2_wall_ms = per_op(stage_wall_ms[1]);
    out.phase3_wall_ms = per_op(stage_wall_ms[2]);
    out.phase1_modeled_ms = per_op(stage_modeled_ms[0]);
    out.phase2_modeled_ms = per_op(stage_modeled_ms[1]);
    out.phase3_modeled_ms = per_op(stage_modeled_ms[2]);
    out.fused_modeled_ms = per_op(stage_modeled_ms[3]);
    out.host_ns_per_op = ops > 0 ? wall_ms * 1e6 / ops : 0.0;
    out.ops = per_elem(ops);
    out.coalesced_bytes = per_elem(coalesced_bytes);
    out.random_accesses = per_elem(random_accesses);
    out.shared_accesses = per_elem(shared_accesses);
    out.launches = per_op(static_cast<double>(launches));
    out.phase3_imbalance = warp_mean_cycles > 0 ? warp_max_cycles / warp_mean_cycles : 0.0;
}

}  // namespace ledger
