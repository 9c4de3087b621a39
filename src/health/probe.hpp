#pragma once

#include <cstdint>
#include <string>

#include "simt/device.hpp"

namespace gas::health {

/// Outcome of one seeded probe sort on a quarantined device.
struct ProbeResult {
    bool pass = false;
    std::string error;  ///< why the probe failed (empty on pass)
};

/// Runs one end-to-end canary sort (kProbeArrays x kProbeArraySize) on
/// `device`: seeded data is generated on the host, sorted through the full
/// gpu_array_sort pipeline, and verified on the host — every row sorted
/// ascending AND the PR 5 multiset checksum of every row preserved, so a
/// device that sorts "successfully" but mangles bytes still fails its probe.
/// Any exception out of the device (refused launch, bad alloc, corruption,
/// sanitize finding) is a failed probe, not an error: that is the probe's
/// job.
///
/// Must be called from the thread that owns the device (the shard's
/// scheduler), per the substrate's single-caller contract.
[[nodiscard]] ProbeResult run_probe(simt::Device& device, std::uint64_t seed);

}  // namespace gas::health
