#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/options.hpp"
#include "core/sort_stats.hpp"
#include "simt/device.hpp"
#include "simt/error.hpp"

namespace gas::resilient {

// ---------------------------------------------------------------------------
// Order-independent multiset checksums.
//
// Each element's bit pattern is mixed through the splitmix64 finalizer and
// the mixes are summed mod 2^64, so the checksum is invariant under any
// permutation of the row but (with overwhelming probability) not under any
// other change — dropped/duplicated/altered elements, including a single bit
// flip, move it.  Sortedness + matching checksum together certify "a sorted
// permutation of the input", the property Options::verify_output checks.
// ---------------------------------------------------------------------------

[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

template <typename T>
[[nodiscard]] std::uint64_t key_bits(T v) {
    if constexpr (sizeof(T) == 4) {
        return std::bit_cast<std::uint32_t>(v);
    } else {
        static_assert(sizeof(T) == 8, "supported element widths: 4 and 8 bytes");
        return std::bit_cast<std::uint64_t>(v);
    }
}

template <typename T>
[[nodiscard]] std::uint64_t elem_hash(T v) {
    return mix64(key_bits(v));
}

template <typename T>
[[nodiscard]] std::uint64_t pair_hash(T key, T value) {
    return mix64(key_bits(key) ^ mix64(key_bits(value)));
}

/// Multiset checksum of one row; with `values` (same length as `keys`) each
/// key is bound to its payload, so a payload that stops traveling with its
/// key moves the checksum, not just key loss.  Empty `values` = keys only.
template <typename T>
[[nodiscard]] std::uint64_t row_checksum(std::span<const T> keys,
                                         std::span<const T> values = {}) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        sum += values.empty() ? elem_hash(keys[i]) : pair_hash(keys[i], values[i]);
    }
    return sum;
}

/// CSR row table of `num_rows` rows of `row_size` elements: offsets[i] =
/// i * row_size, N+1 entries.
[[nodiscard]] inline std::vector<std::uint64_t> uniform_offsets(std::size_t num_rows,
                                                                std::size_t row_size) {
    std::vector<std::uint64_t> offsets(num_rows + 1);
    for (std::size_t r = 0; r <= num_rows; ++r) offsets[r] = r * row_size;
    return offsets;
}

// Host-side batch checksums, one per CSR row: row r spans [offsets[r],
// offsets[r+1]) of `keys` (and of `values`, when not empty).  The
// verification baseline must come from data no device fault can touch: the
// serve layer hashes its staging copies, and the sorters hash the
// freshly-uploaded span before the first launch (the corruption model
// materializes flips at launch *entry*, so that read is pristine by
// construction).  Taking the baseline via a device kernel would open a
// TOCTOU window — corruption firing at that kernel's entry poisons the
// baseline and certifies corrupted data as correct.
template <typename T>
[[nodiscard]] std::vector<std::uint64_t> host_row_checksums(
    std::span<const T> keys, std::span<const T> values,
    std::span<const std::uint64_t> offsets) {
    std::vector<std::uint64_t> out(offsets.empty() ? 0 : offsets.size() - 1);
    for (std::size_t r = 0; r < out.size(); ++r) {
        const std::size_t len = offsets[r + 1] - offsets[r];
        out[r] = row_checksum(keys.subspan(offsets[r], len),
                              values.empty() ? values : values.subspan(offsets[r], len));
    }
    return out;
}

// ---------------------------------------------------------------------------
// Typed verification failure + deterministic retry policy.
// ---------------------------------------------------------------------------

/// Thrown when post-sort verification finds rows that are not a sorted
/// permutation of their input (Options::verify_output).  Device data is
/// suspect; recovery means re-staging from the host copy and retrying.
class VerifyError : public std::runtime_error {
  public:
    VerifyError(const std::string& where, std::size_t unsorted, std::size_t mismatched)
        : std::runtime_error("verification failed in " + where + ": " +
                             std::to_string(unsorted) + " unsorted row(s), " +
                             std::to_string(mismatched) + " checksum mismatch(es)"),
          unsorted_(unsorted),
          mismatched_(mismatched) {}

    [[nodiscard]] std::size_t unsorted_rows() const { return unsorted_; }
    [[nodiscard]] std::size_t mismatched_rows() const { return mismatched_; }

  private:
    std::size_t unsorted_;
    std::size_t mismatched_;
};

/// Seeded deterministic retry policy: capped exponential backoff with
/// multiplicative jitter.  Backoff is *modeled* milliseconds (recorded in
/// stats, never slept), consistent with the substrate's modeled-time
/// philosophy — and deterministic, so chaos runs reproduce byte-for-byte.
struct RetryPolicy {
    unsigned max_attempts = 3;  ///< total tries, including the first
    double base_ms = 1.0;       ///< backoff before attempt 2
    double cap_ms = 64.0;       ///< exponential growth ceiling
    std::uint64_t seed = 1;     ///< jitter seed

    /// Modeled wait after `attempt` (1-based) failed; jitter in [0.5, 1.0)
    /// of the capped exponential, decided by (seed, salt, attempt).
    [[nodiscard]] double backoff_ms(unsigned attempt, std::uint64_t salt = 0) const {
        double window = base_ms;
        for (unsigned i = 1; i < attempt && window < cap_ms; ++i) window *= 2.0;
        window = window < cap_ms ? window : cap_ms;
        const std::uint64_t h = mix64(mix64(seed ^ salt * 0x9e3779b97f4a7c15ull) ^ attempt);
        const double frac = static_cast<double>(h >> 11) * 0x1.0p-53;
        return window * (0.5 + 0.5 * frac);
    }
};

/// True for errors that a retry (with re-staging from host data) can
/// plausibly cure: injected/transient allocation failures, refused
/// launches, aborted hangs, detected corruption, and failed output
/// verification.  SanitizeError — a real bug in kernel code — is
/// deliberately excluded.
[[nodiscard]] inline bool transient(const std::exception& e) {
    if (dynamic_cast<const simt::SanitizeError*>(&e) != nullptr) return false;
    return dynamic_cast<const simt::DeviceBadAlloc*>(&e) != nullptr ||
           dynamic_cast<const simt::LaunchFault*>(&e) != nullptr ||
           dynamic_cast<const simt::StallFault*>(&e) != nullptr ||
           dynamic_cast<const simt::TransferError*>(&e) != nullptr ||
           dynamic_cast<const VerifyError*>(&e) != nullptr;
}

// ---------------------------------------------------------------------------
// Device-side verify kernel: the one device row checker.
//
// One thread per row, 256 rows per block.  The checksum baseline it
// compares against comes from the host (see host_row_checksums above).
// Verification is a real kernel launch with modeled cost, so enabling
// Options::verify_output shows up honestly in modeled time (SortStats::verify)
// — and so an injected corruption arriving *before* the verify launch is
// always observed (corruption is checked at launch entry; see simt::faults).
// ---------------------------------------------------------------------------

/// Outcome of one verify kernel over a batch of rows.
struct VerifyCounts {
    std::size_t rows = 0;
    std::size_t unsorted = 0;    ///< rows violating the requested order
    std::size_t mismatched = 0;  ///< rows whose multiset checksum changed
    double modeled_ms = 0.0;
    double wall_ms = 0.0;

    [[nodiscard]] bool ok() const { return unsorted == 0 && mismatched == 0; }
};

/// Post-sort verification of the CSR rows `offsets` (N+1 entries) cuts out
/// of `keys` (and `values`, bound key-to-payload, when not empty): order per
/// `order`, multiset checksum per row against `expected`.  Uniform rows are
/// offsets[i] = i * n (uniform_offsets).  `name` is the launched kernel's
/// name.  `row_fail` (optional) receives per row: bit 0 = unsorted, bit 1 =
/// checksum mismatch.
template <typename T>
VerifyCounts verify_rows_on_device(simt::Device& device, const char* name,
                                   std::span<const T> keys, std::span<const T> values,
                                   std::span<const std::uint64_t> offsets, SortOrder order,
                                   std::span<const std::uint64_t> expected,
                                   std::span<std::uint8_t> row_fail = {}) {
    constexpr unsigned kRowsPerBlock = 256;
    VerifyCounts counts;
    const std::size_t num_rows = offsets.empty() ? 0 : offsets.size() - 1;
    counts.rows = num_rows;
    if (num_rows == 0) return counts;
    std::vector<std::uint8_t> local;
    if (row_fail.empty()) {
        local.assign(num_rows, 0);
        row_fail = local;
    }
    const bool ascending = order == SortOrder::Ascending;
    const simt::LaunchConfig cfg{
        name, static_cast<unsigned>((num_rows + kRowsPerBlock - 1) / kRowsPerBlock),
        kRowsPerBlock};
    const simt::KernelStats k = device.launch(cfg, [&](simt::BlockCtx& blk) {
        const auto verify_lane = [&](simt::ThreadCtx& tc) {
            const std::size_t r =
                static_cast<std::size_t>(blk.block_idx()) * kRowsPerBlock + tc.tid();
            if (r >= num_rows) return;
            const std::size_t len = offsets[r + 1] - offsets[r];
            const auto row = keys.subspan(offsets[r], len);
            const auto vals = values.empty() ? values : values.subspan(offsets[r], len);
            const bool sorted = ascending ? std::is_sorted(row.begin(), row.end())
                                          : std::is_sorted(row.begin(), row.end(),
                                                           std::greater<>{});
            std::uint8_t flags = 0;
            if (!sorted) flags |= 1;
            if (row_checksum(row, vals) != expected[r]) flags |= 2;
            row_fail[r] = flags;
            tc.ops(4ull * len);
            // A per-lane linear scan consumes every byte of every DRAM
            // segment it touches — streaming bandwidth, not scattered access.
            tc.global_coalesced(row.size_bytes() + vals.size_bytes() +
                                sizeof(std::uint64_t) + sizeof(std::uint8_t));
        };
        blk.for_each_warp([&](simt::WarpCtx& wc) { wc.for_lanes(verify_lane); });
    });
    counts.modeled_ms = k.modeled_ms;
    counts.wall_ms = k.wall_ms;
    for (std::size_t r = 0; r < num_rows; ++r) {
        counts.unsorted += (row_fail[r] & 1) != 0 ? 1 : 0;
        counts.mismatched += (row_fail[r] & 2) != 0 ? 1 : 0;
    }
    return counts;
}

}  // namespace gas::resilient
