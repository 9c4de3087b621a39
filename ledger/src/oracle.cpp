#include "oracle.hpp"

#include <algorithm>
#include <cstring>

namespace ledger {

std::vector<float> sorted_rows(std::span<const float> values, std::size_t array_size) {
    std::vector<float> out(values.begin(), values.end());
    if (array_size == 0) return out;
    for (std::size_t begin = 0; begin < out.size(); begin += array_size) {
        const auto first = out.begin() + static_cast<std::ptrdiff_t>(begin);
        std::sort(first, first + static_cast<std::ptrdiff_t>(array_size));
    }
    return out;
}

std::vector<float> sorted_ragged(std::span<const float> values,
                                 std::span<const std::uint64_t> offsets) {
    std::vector<float> out(values.begin(), values.end());
    for (std::size_t r = 0; r + 1 < offsets.size(); ++r) {
        std::sort(out.begin() + static_cast<std::ptrdiff_t>(offsets[r]),
                  out.begin() + static_cast<std::ptrdiff_t>(offsets[r + 1]));
    }
    return out;
}

bool same_bytes(std::span<const float> got, std::span<const float> want) {
    return got.size() == want.size() &&
           (got.empty() || std::memcmp(got.data(), want.data(), got.size_bytes()) == 0);
}

std::vector<float> index_payload(std::size_t count) {
    std::vector<float> p(count);
    for (std::size_t i = 0; i < count; ++i) p[i] = static_cast<float>(i);
    return p;
}

bool pairs_match(std::span<const float> in_keys, std::span<const float> sorted_keys,
                 std::span<const float> out_keys, std::span<const float> out_payload,
                 std::size_t array_size) {
    if (!same_bytes(out_keys, sorted_keys) || out_payload.size() != in_keys.size() ||
        array_size == 0) {
        return false;
    }
    std::vector<bool> used(in_keys.size(), false);
    for (std::size_t j = 0; j < out_payload.size(); ++j) {
        const float p = out_payload[j];
        if (!(p >= 0.0f) || p >= static_cast<float>(in_keys.size())) return false;
        const auto src = static_cast<std::size_t>(p);
        if (static_cast<float>(src) != p || used[src]) return false;
        if (src / array_size != j / array_size) return false;  // pairs stay in their row
        if (std::memcmp(&in_keys[src], &out_keys[j], sizeof(float)) != 0) return false;
        used[src] = true;
    }
    return true;
}

}  // namespace ledger
