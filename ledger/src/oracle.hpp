#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ledger {

/// Host reference for uniform rows: each `array_size` row of `values`
/// sorted with std::sort.
[[nodiscard]] std::vector<float> sorted_rows(std::span<const float> values,
                                             std::size_t array_size);

/// Host reference for CSR rows (`offsets` has one entry per row plus one).
[[nodiscard]] std::vector<float> sorted_ragged(std::span<const float> values,
                                               std::span<const std::uint64_t> offsets);

/// True when `got` and `want` hold the same bytes.
[[nodiscard]] bool same_bytes(std::span<const float> got, std::span<const float> want);

/// Payload a pair request carries: element i's payload is float(i), exact
/// for every index below 2^24.
[[nodiscard]] std::vector<float> index_payload(std::size_t count);

/// Oracle for a pair sort whose payload is index_payload(): the output keys
/// equal `sorted_keys` byte for byte, and each output payload names a
/// distinct input element of the same row holding the same key, so the
/// (key, payload) multiset is preserved.  Key-equal payload order is free.
[[nodiscard]] bool pairs_match(std::span<const float> in_keys,
                               std::span<const float> sorted_keys,
                               std::span<const float> out_keys,
                               std::span<const float> out_payload, std::size_t array_size);

}  // namespace ledger
