#include "health/probe.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "core/gpu_array_sort.hpp"
#include "core/options.hpp"
#include "core/resilient.hpp"
#include "health/config.hpp"

namespace gas::health {

ProbeResult run_probe(simt::Device& device, std::uint64_t seed) {
    ProbeResult r;

    // Seeded data in (0, 1]: deterministic per (seed, index), no NaNs.
    std::vector<float> data(kProbeArrays * kProbeArraySize);
    for (std::size_t i = 0; i < data.size(); ++i) {
        const std::uint64_t h = resilient::mix64(seed ^ (i + 1));
        data[i] = static_cast<float>((h >> 40) + 1) / static_cast<float>(1ull << 24);
    }
    const auto offsets = resilient::uniform_offsets(kProbeArrays, kProbeArraySize);
    const std::vector<std::uint64_t> before =
        resilient::host_row_checksums<float>(data, {}, offsets);

    try {
        Options opts;
        opts.verify_output = false;  // the probe verifies on the host instead
        gpu_array_sort(device, std::span<float>(data), kProbeArrays, kProbeArraySize, opts);
    } catch (const std::exception& e) {
        r.error = e.what();
        return r;
    }

    const std::vector<std::uint64_t> after =
        resilient::host_row_checksums<float>(data, {}, offsets);
    for (std::size_t a = 0; a < kProbeArrays; ++a) {
        const auto row =
            std::span<const float>(data).subspan(a * kProbeArraySize, kProbeArraySize);
        if (!std::is_sorted(row.begin(), row.end())) {
            r.error = "probe row " + std::to_string(a) + " not sorted";
            return r;
        }
        if (before[a] != after[a]) {
            r.error = "probe row " + std::to_string(a) + " multiset checksum mismatch";
            return r;
        }
    }
    r.pass = true;
    return r;
}

}  // namespace gas::health
