#include "tune/sketch.hpp"

#include <algorithm>
#include <vector>

namespace gas::tune {

namespace {

std::size_t bin_of(float v, double key_space) {
    if (!(v > 0.0f)) return 0;  // negatives, zeros and NaNs share bin 0
    const double frac = static_cast<double>(v) / key_space;
    const auto b = static_cast<std::size_t>(frac * static_cast<double>(Sketch::kBins));
    return std::min(b, Sketch::kBins - 1);
}

/// Strided histogram/min-max/distinct pass over one contiguous region.
void sample_region(std::span<const float> values, Sketch& s,
                   std::vector<float>& samples) {
    if (values.empty()) return;
    const std::size_t stride = std::max<std::size_t>(1, values.size() / Sketch::kMaxSamples);
    for (std::size_t i = 0; i < values.size(); i += stride) {
        const float v = values[i];
        ++s.histogram[bin_of(v, s.key_space)];
        const auto d = static_cast<double>(v);
        if (s.sampled == 0) {
            s.min_key = d;
            s.max_key = d;
        } else {
            s.min_key = std::min(s.min_key, d);
            s.max_key = std::max(s.max_key, d);
        }
        ++s.sampled;
        samples.push_back(v);
    }
}

/// Ascending-adjacent fraction over the first kRunWindow pairs of a row.
void run_region(std::span<const float> row, std::size_t& pairs, std::size_t& ascending) {
    const std::size_t limit = std::min(row.size(), Sketch::kRunWindow + 1);
    for (std::size_t i = 1; i < limit; ++i) {
        ++pairs;
        if (!(row[i] < row[i - 1])) ++ascending;
    }
}

void finalize(Sketch& s, std::vector<float>& samples, std::size_t pairs,
              std::size_t ascending) {
    if (!samples.empty()) {
        std::sort(samples.begin(), samples.end());
        std::size_t distinct = 1;
        for (std::size_t i = 1; i < samples.size(); ++i) {
            if (samples[i] != samples[i - 1]) ++distinct;
        }
        s.distinct_ratio =
            static_cast<double>(distinct) / static_cast<double>(samples.size());
        s.distinct_keys = static_cast<double>(distinct);
    }
    s.adjacent = pairs;
    s.sortedness = pairs > 0
                       ? static_cast<double>(ascending) / static_cast<double>(pairs)
                       : 0.5;
}

}  // namespace

Sketch sketch_values(std::span<const float> values, std::size_t num_arrays,
                     std::size_t array_size, double key_space) {
    Sketch s;
    s.key_space = key_space;
    s.rows = num_arrays;
    s.elements = num_arrays * array_size;
    std::vector<float> samples;
    samples.reserve(Sketch::kMaxSamples + Sketch::kBins);
    sample_region(values.subspan(0, std::min(values.size(), s.elements)), s, samples);
    std::size_t pairs = 0;
    std::size_t ascending = 0;
    for (std::size_t a = 0; a < std::min(num_arrays, Sketch::kRunRows); ++a) {
        run_region(values.subspan(a * array_size, array_size), pairs, ascending);
    }
    finalize(s, samples, pairs, ascending);
    return s;
}

Sketch sketch_ragged(std::span<const float> values, std::span<const std::uint64_t> offsets,
                     double key_space) {
    Sketch s;
    s.key_space = key_space;
    s.rows = offsets.size() < 2 ? 0 : offsets.size() - 1;
    const std::size_t begin = offsets.empty() ? 0 : static_cast<std::size_t>(offsets.front());
    const std::size_t end = offsets.empty() ? 0 : static_cast<std::size_t>(offsets.back());
    s.elements = end - begin;
    std::vector<float> samples;
    samples.reserve(Sketch::kMaxSamples + Sketch::kBins);
    sample_region(values.subspan(begin, s.elements), s, samples);
    std::size_t pairs = 0;
    std::size_t ascending = 0;
    for (std::size_t r = 0; r + 1 < offsets.size() && r < Sketch::kRunRows; ++r) {
        const auto lo = static_cast<std::size_t>(offsets[r]);
        const auto hi = static_cast<std::size_t>(offsets[r + 1]);
        run_region(values.subspan(lo, hi - lo), pairs, ascending);
    }
    finalize(s, samples, pairs, ascending);
    return s;
}

}  // namespace gas::tune
