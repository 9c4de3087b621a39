#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace simt::faults {

/// Kinds of injectable faults (see FaultPlan for trigger semantics).
enum class FaultKind : std::uint8_t { AllocFail, LaunchFail, Corrupt, Stall, Hang };

[[nodiscard]] inline const char* to_string(FaultKind k) {
    switch (k) {
        case FaultKind::AllocFail: return "alloc-fail";
        case FaultKind::LaunchFail: return "launch-fail";
        case FaultKind::Corrupt: return "corrupt";
        case FaultKind::Stall: return "stall";
        case FaultKind::Hang: return "hang";
    }
    return "?";
}

/// One fired injection: which kind, at which ordinal of that kind's event
/// stream, on what target (kernel name, engine, device offset...).
struct FaultEvent {
    FaultKind kind = FaultKind::AllocFail;
    std::uint64_t ordinal = 0;  ///< 1-based ordinal within the kind's stream
    std::string target;
    std::string detail;
};

/// Per-kind accounting of one injector's activity since the last clear:
/// `armed` counts decision points examined, `fired` counts injections that
/// took effect, `suppressed` counts scheduled injections that could not be
/// applied (Virtual-mode memory, no live allocation to corrupt).  The
/// deterministic analog of a chaos run's incident log: same seed + same
/// workload => byte-identical report.
struct FaultReport {
    std::uint64_t alloc_checks = 0;
    std::uint64_t launch_checks = 0;
    std::uint64_t corrupt_checks = 0;
    std::uint64_t stall_checks = 0;
    std::uint64_t hang_checks = 0;

    std::uint64_t alloc_failures = 0;
    std::uint64_t launch_failures = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t stalls = 0;
    std::uint64_t hangs = 0;

    std::uint64_t suppressed = 0;
    std::vector<FaultEvent> events;

    [[nodiscard]] bool clean() const { return fired() == 0 && suppressed == 0; }
    [[nodiscard]] std::uint64_t fired() const {
        return alloc_failures + launch_failures + corruptions + stalls + hangs;
    }
    [[nodiscard]] std::uint64_t armed() const {
        return alloc_checks + launch_checks + corrupt_checks + stall_checks + hang_checks;
    }
};

/// One-line human summary of an event ("corrupt #3: 1 bit(s) ..." style).
[[nodiscard]] std::string describe(const FaultEvent& e);

/// Multi-line human summary of the whole report.
[[nodiscard]] std::string to_text(const FaultReport& report);

/// Writes the whole report as one JSON object into `out`, so a larger
/// document (tools/gas_chaos --json) can nest it.
void write_json(obs::Json& out, const FaultReport& report);

/// The whole report as a stand-alone JSON document.
[[nodiscard]] std::string to_json(const FaultReport& report);

}  // namespace simt::faults
