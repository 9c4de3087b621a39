#pragma once

#include "core/gpu_array_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/ragged_sort.hpp"
#include "core/resilient.hpp"

namespace gas::resilient {

/// What the retry loop did: attempts actually run, modeled backoff accrued,
/// and the message of every transient error survived along the way.
struct AttemptLog {
    unsigned attempts = 0;
    double backoff_ms = 0.0;
    std::vector<std::string> errors;
};

namespace detail {

/// Retry harness shared by the wrappers below.  `run()` must re-stage from
/// host data on every call (all gas host entry points do: they only write
/// the host span after a fully successful sort+verify, so the host copy is
/// intact after any transient failure — including detected corruption).
template <typename Run>
SortStats with_retries(const RetryPolicy& retry, std::uint64_t salt, AttemptLog* log,
                       Run run) {
    const unsigned max_attempts = retry.max_attempts > 0 ? retry.max_attempts : 1;
    for (unsigned attempt = 1;; ++attempt) {
        try {
            const SortStats stats = run();
            if (log != nullptr) log->attempts = attempt;
            return stats;
        } catch (const std::exception& e) {
            if (!transient(e) || attempt >= max_attempts) throw;
            if (log != nullptr) {
                log->attempts = attempt;
                log->backoff_ms += retry.backoff_ms(attempt, salt);
                log->errors.emplace_back(e.what());
            }
        }
    }
}

}  // namespace detail

/// gpu_array_sort with verification + deterministic retries: transient
/// failures (injected allocation faults, refused launches, detected
/// corruption, failed verification) re-stage from `host_data` and re-sort,
/// up to `retry.max_attempts`; the last error propagates if all attempts
/// fail.  Pass opts.verify_output = true to close the silent-corruption
/// window — without it, undetected corruption cannot be caught here.
template <typename T>
SortStats sort_arrays(simt::Device& device, std::span<T> host_data, std::size_t num_arrays,
                      std::size_t array_size, const Options& opts = {},
                      const RetryPolicy& retry = {}, AttemptLog* log = nullptr) {
    return detail::with_retries(retry, num_arrays ^ array_size, log, [&] {
        return gpu_array_sort<T>(device, host_data, num_arrays, array_size, opts);
    });
}

/// gpu_ragged_sort under the same harness.
inline SortStats ragged_sort(simt::Device& device, std::span<float> host_values,
                             std::span<const std::uint64_t> offsets, const Options& opts = {},
                             const RetryPolicy& retry = {}, AttemptLog* log = nullptr) {
    return detail::with_retries(retry, offsets.size(), log, [&] {
        return gpu_ragged_sort(device, host_values, offsets, opts);
    });
}

/// gpu_pair_sort under the same harness.
template <typename T>
SortStats pair_sort(simt::Device& device, std::span<T> host_keys, std::span<T> host_values,
                    std::size_t num_arrays, std::size_t array_size, const Options& opts = {},
                    const RetryPolicy& retry = {}, AttemptLog* log = nullptr) {
    return detail::with_retries(retry, num_arrays ^ array_size, log, [&] {
        return gpu_pair_sort<T>(device, host_keys, host_values, num_arrays, array_size, opts);
    });
}

}  // namespace gas::resilient
