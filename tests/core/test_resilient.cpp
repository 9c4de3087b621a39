// gas::resilient: multiset checksums, verify kernels, retry policy, and the
// verified/retrying sort wrappers — including the silent-corruption pin: an
// undetected bit flip is invisible without Options::verify_output and caught
// (then cured by retry) with it.

#include "core/resilient_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "core/gpu_array_sort.hpp"
#include "workload/generators.hpp"

namespace {

using gas::Options;
using gas::SortOrder;
namespace resilient = gas::resilient;

simt::Device make_device(std::size_t bytes = 256 << 20) {
    return simt::Device(simt::tiny_device(bytes));
}

std::vector<float> sorted_rows(std::vector<float> values, std::size_t num_arrays,
                               std::size_t array_size) {
    for (std::size_t a = 0; a < num_arrays; ++a) {
        auto* row = values.data() + a * array_size;
        std::sort(row, row + array_size);
    }
    return values;
}

TEST(Checksum, InvariantUnderPermutationOnly) {
    auto values = workload::make_values(257, workload::Distribution::Uniform, 11);
    const std::uint64_t before =
        resilient::row_checksum(std::span<const float>(values));

    auto shuffled = values;
    std::mt19937 rng(3);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    EXPECT_EQ(resilient::row_checksum(std::span<const float>(shuffled)), before);

    // A single bit flip moves it.
    auto flipped = values;
    flipped[100] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(flipped[100]) ^ 1u);
    EXPECT_NE(resilient::row_checksum(std::span<const float>(flipped)), before);

    // Dropping + duplicating (multiset change at equal length) moves it too.
    auto duped = values;
    duped[0] = duped[1];
    EXPECT_NE(resilient::row_checksum(std::span<const float>(duped)), before);
}

TEST(Checksum, PairChecksumBindsKeyToPayload) {
    const std::vector<float> keys{1.0f, 2.0f, 3.0f};
    const std::vector<float> vals{10.0f, 20.0f, 30.0f};
    const std::uint64_t bound = resilient::row_checksum(
        std::span<const float>(keys), std::span<const float>(vals));

    // Same multisets of keys and of values, but payloads swapped between
    // keys: a plain per-plane checksum would miss this, the bound one must
    // not (the pair sorter's whole point is that payloads travel with keys).
    const std::vector<float> swapped{20.0f, 10.0f, 30.0f};
    EXPECT_NE(resilient::row_checksum(std::span<const float>(keys),
                                      std::span<const float>(swapped)),
              bound);

    // Reordering whole pairs together is a permutation: invariant.
    const std::vector<float> keys_r{3.0f, 1.0f, 2.0f};
    const std::vector<float> vals_r{30.0f, 10.0f, 20.0f};
    EXPECT_EQ(resilient::row_checksum(std::span<const float>(keys_r),
                                      std::span<const float>(vals_r)),
              bound);
}

TEST(RetryPolicy, BackoffIsDeterministicJitteredAndCapped) {
    const resilient::RetryPolicy policy{/*max_attempts=*/5, /*base_ms=*/1.0,
                                        /*cap_ms=*/8.0, /*seed=*/42};
    for (unsigned attempt = 1; attempt <= 10; ++attempt) {
        const double a = policy.backoff_ms(attempt, 123);
        const double b = policy.backoff_ms(attempt, 123);
        EXPECT_EQ(a, b);  // pure function of (seed, salt, attempt)
        const double window = std::min(policy.cap_ms, policy.base_ms * (1u << (attempt - 1)));
        EXPECT_GE(a, 0.5 * window);
        EXPECT_LT(a, window + 1e-12);
    }
    // Past the cap the window stops growing.
    EXPECT_LE(policy.backoff_ms(30, 0), policy.cap_ms);
    // Different salts decorrelate concurrent retry streams.
    EXPECT_NE(policy.backoff_ms(2, 1), policy.backoff_ms(2, 2));
}

TEST(RetryPolicy, TransientClassifiesInjectedErrorsNotBugs) {
    EXPECT_TRUE(resilient::transient(simt::DeviceBadAlloc(1, 0, 0)));
    EXPECT_TRUE(resilient::transient(simt::LaunchFault("k", 3)));
    EXPECT_TRUE(resilient::transient(simt::TransferError(0, 1)));
    EXPECT_TRUE(resilient::transient(resilient::VerifyError("here", 1, 2)));
    EXPECT_FALSE(resilient::transient(simt::SanitizeError("k", 2)));
    EXPECT_FALSE(resilient::transient(std::runtime_error("not retryable")));
}

TEST(RetryPolicy, VerifyErrorCarriesBothArms) {
    const resilient::VerifyError e("phase3", 2, 5);
    EXPECT_EQ(e.unsorted_rows(), 2u);
    EXPECT_EQ(e.mismatched_rows(), 5u);
    EXPECT_NE(std::string(e.what()).find("2 unsorted"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("5 checksum"), std::string::npos);
}

TEST(VerifyKernels, FlagsUnsortedAndMismatchedArmsIndependently) {
    auto dev = make_device();
    const std::size_t n = 16;
    auto ds = workload::make_dataset(4, n, workload::Distribution::Uniform, 6);
    std::vector<std::uint64_t> expected(4);
    for (std::size_t a = 0; a < 4; ++a) {
        expected[a] = resilient::row_checksum(
            std::span<const float>(ds.values.data() + a * n, n));
    }
    auto sorted = sorted_rows(ds.values, 4, n);

    // Row 1: swap two elements — unsorted but checksum-intact (pure
    // permutation).  Row 2: overwrite the last element with a larger value —
    // still sorted, checksum broken.  Rows 0 and 3 stay clean.
    std::swap(sorted[n + 2], sorted[n + 9]);
    sorted[2 * n + (n - 1)] = sorted[2 * n + (n - 1)] + 1000.0f;

    std::vector<std::uint8_t> row_fail(4, 0);
    const auto counts = resilient::verify_rows_on_device<float>(
        dev, "gas.verify", sorted, {}, resilient::uniform_offsets(4, n), SortOrder::Ascending,
        expected, row_fail);
    EXPECT_EQ(counts.rows, 4u);
    EXPECT_EQ(counts.unsorted, 1u);
    EXPECT_EQ(counts.mismatched, 1u);
    EXPECT_FALSE(counts.ok());
    EXPECT_EQ(row_fail[0], 0);
    EXPECT_EQ(row_fail[1], 1);  // bit 0: order violated
    EXPECT_EQ(row_fail[2], 2);  // bit 1: checksum moved
    EXPECT_EQ(row_fail[3], 0);
    EXPECT_GT(counts.modeled_ms, 0.0);
}

TEST(VerifyKernels, RespectsDescendingOrderAndCsrGeometry) {
    auto dev = make_device();
    const auto rag = workload::make_ragged_dataset(5, 3, 40, workload::Distribution::Uniform, 7);
    const std::vector<std::uint64_t> offsets(rag.offsets.begin(), rag.offsets.end());
    const auto expected = resilient::host_row_checksums<float>(rag.values, {}, offsets);

    auto desc = rag.values;
    for (std::size_t a = 0; a < rag.num_arrays(); ++a) {
        std::sort(desc.begin() + static_cast<std::ptrdiff_t>(offsets[a]),
                  desc.begin() + static_cast<std::ptrdiff_t>(offsets[a + 1]),
                  std::greater<float>());
    }
    EXPECT_TRUE(resilient::verify_rows_on_device<float>(dev, "gas.verify_csr", desc, {}, offsets,
                                                        SortOrder::Descending, expected)
                    .ok());
    // The same bytes fail ascending verification (some row of length >= 2
    // with distinct values exists in a 5 x [3,40] uniform dataset).
    EXPECT_GT(resilient::verify_rows_on_device<float>(dev, "gas.verify_csr", desc, {}, offsets,
                                                      SortOrder::Ascending, expected)
                  .unsorted,
              0u);
}

TEST(VerifyKernels, PairVariantChecksPayloadBinding) {
    auto dev = make_device();
    const std::size_t rows = 3;
    const std::size_t n = 8;
    auto ds = workload::make_dataset(rows, n, workload::Distribution::Uniform, 8);
    std::vector<float> payload(rows * n);
    for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<float>(i);
    const auto offsets = resilient::uniform_offsets(rows, n);
    const auto expected = resilient::host_row_checksums<float>(ds.values, payload, offsets);

    // Sort each row's pairs by key on the host (the reference permutation).
    std::vector<float> keys = ds.values;
    std::vector<float> vals = payload;
    for (std::size_t a = 0; a < rows; ++a) {
        std::vector<std::size_t> idx(n);
        for (std::size_t i = 0; i < n; ++i) idx[i] = i;
        std::sort(idx.begin(), idx.end(), [&](std::size_t x, std::size_t y) {
            return ds.values[a * n + x] < ds.values[a * n + y];
        });
        for (std::size_t i = 0; i < n; ++i) {
            keys[a * n + i] = ds.values[a * n + idx[i]];
            vals[a * n + i] = payload[a * n + idx[i]];
        }
    }
    EXPECT_TRUE(resilient::verify_rows_on_device<float>(dev, "gas.verify_pairs", keys, vals,
                                                        offsets, SortOrder::Ascending, expected)
                    .ok());
    // Detach one payload from its key: sortedness holds, binding breaks.
    std::swap(vals[0], vals[1]);
    const auto counts = resilient::verify_rows_on_device<float>(
        dev, "gas.verify_pairs", keys, vals, offsets, SortOrder::Ascending, expected);
    EXPECT_EQ(counts.unsorted, 0u);
    EXPECT_EQ(counts.mismatched, 1u);
}

// The one device row checker over CSR row tables: uniform rows
// (offsets[i] = i * n), ragged rows with empty and 1-element rows, and
// key/value rows.  `expected` is taken from keys/values before `mutate`
// runs; `want` is the per-row row_fail (bit 0 unsorted, bit 1 mismatch).
struct RowCheckCase {
    const char* name;
    std::vector<float> keys;
    std::vector<float> values;  ///< empty = keys only
    std::vector<std::uint64_t> offsets;
    void (*mutate)(std::vector<float>& keys, std::vector<float>& values);
    std::vector<std::uint8_t> want;
};

std::vector<float> sorted_dataset(std::size_t rows, std::size_t n, unsigned seed) {
    return workload::make_dataset(rows, n, workload::Distribution::Sorted, seed).values;
}

TEST(VerifyKernels, OneCheckerOverUniformRaggedAndPairRows) {
    const auto keep = [](std::vector<float>&, std::vector<float>&) {};
    // Ragged rows: [] [5 6] [1 2] [] [9] [4] [3 7].  The flat sequence
    // descends at three row boundaries; every row is sorted on its own.
    const std::vector<float> ragged{5, 6, 1, 2, 9, 4, 3, 7};
    const std::vector<std::uint64_t> ragged_offsets{0, 0, 2, 4, 4, 5, 6, 8};
    std::vector<float> pair_values(ragged.size());
    for (std::size_t i = 0; i < pair_values.size(); ++i) pair_values[i] = 100.0f + static_cast<float>(i);

    std::vector<std::uint8_t> two_broken(10, 0);
    two_broken[2] = two_broken[7] = 1;
    const std::vector<RowCheckCase> cases{
        {"uniform sorted", sorted_dataset(20, 333, 2), {},
         resilient::uniform_offsets(20, 333), keep, std::vector<std::uint8_t>(20, 0)},
        {"uniform two unsorted rows", sorted_dataset(10, 100, 3), {},
         resilient::uniform_offsets(10, 100),
         [](std::vector<float>& k, std::vector<float>&) {
             // A swap keeps the multiset: only bit 0 may fire.
             std::swap(k[2 * 100 + 50], k[2 * 100 + 51]);
             std::swap(k[7 * 100 + 98], k[7 * 100 + 99]);
         },
         two_broken},
        {"uniform row boundary descends", {5, 6, 1, 2}, {}, resilient::uniform_offsets(2, 2),
         keep, {0, 0}},
        {"uniform 1-element rows", {3, 1, 2}, {}, resilient::uniform_offsets(3, 1), keep,
         {0, 0, 0}},
        {"no rows", {}, {}, {0}, keep, {}},
        {"ragged sorted", ragged, {}, ragged_offsets, keep, {0, 0, 0, 0, 0, 0, 0}},
        {"ragged both arms",
         ragged,
         {},
         ragged_offsets,
         [](std::vector<float>& k, std::vector<float>&) {
             std::swap(k[2], k[3]);  // row 2 [2 1]: unsorted, same multiset
             k[7] = 8;               // row 6 [3 8]: sorted, checksum moved
             k[0] = 7;               // row 1 [7 6]: unsorted and checksum moved
         },
         {0, 3, 1, 0, 0, 0, 2}},
        {"pairs sorted", ragged, pair_values, ragged_offsets, keep, {0, 0, 0, 0, 0, 0, 0}},
        {"pairs payload detached",
         ragged,
         pair_values,
         ragged_offsets,
         [](std::vector<float>&, std::vector<float>& v) { std::swap(v[2], v[3]); },
         {0, 0, 2, 0, 0, 0, 0}},
        {"pairs keys unsorted",
         ragged,
         pair_values,
         ragged_offsets,
         [](std::vector<float>& k, std::vector<float>& v) {
             std::swap(k[0], k[1]);  // the pair travels together: bit 0 only
             std::swap(v[0], v[1]);
         },
         {0, 1, 0, 0, 0, 0, 0}},
    };
    for (RowCheckCase c : cases) {
        SCOPED_TRACE(c.name);
        auto dev = make_device();
        const auto expected = resilient::host_row_checksums<float>(c.keys, c.values, c.offsets);
        c.mutate(c.keys, c.values);
        std::vector<std::uint8_t> row_fail(c.want.size(), 0xff);
        const auto counts = resilient::verify_rows_on_device<float>(
            dev, "gas.verify_csr", c.keys, c.values, c.offsets, SortOrder::Ascending, expected,
            row_fail);
        EXPECT_EQ(row_fail, c.want);
        std::size_t unsorted = 0;
        std::size_t mismatched = 0;
        for (const std::uint8_t f : c.want) {
            unsorted += f & 1;
            mismatched += (f >> 1) & 1;
        }
        EXPECT_EQ(counts.rows, c.want.size());
        EXPECT_EQ(counts.unsorted, unsorted);
        EXPECT_EQ(counts.mismatched, mismatched);
        EXPECT_EQ(counts.ok(), unsorted + mismatched == 0);
    }
}

TEST(VerifiedSort, VerifyOutputReproducesTodaysBytesWhenClean) {
    const auto ds = workload::make_dataset(10, 150, workload::Distribution::Uniform, 9);

    auto plain_dev = make_device();
    auto plain = ds.values;
    const auto plain_stats = gas::gpu_array_sort(plain_dev, plain, 10, 150);

    auto verified_dev = make_device();
    auto verified = ds.values;
    Options opts;
    opts.verify_output = true;
    const auto verified_stats = gas::gpu_array_sort(verified_dev, verified, 10, 150, opts);

    // Same sorted bytes; verification only adds honestly-modeled kernels.
    EXPECT_EQ(plain, verified);
    EXPECT_EQ(plain_stats.verify.modeled_ms, 0.0);
    EXPECT_GT(verified_stats.verify.modeled_ms, 0.0);
    EXPECT_GT(verified_stats.modeled_kernel_ms(), plain_stats.modeled_kernel_ms());
}

TEST(VerifiedSort, RetryWrapperCuresInjectedLaunchFault) {
    auto dev = make_device();
    simt::faults::FaultPlan plan;
    plan.launch_fail_at = {2};  // second launch of attempt 1 refused
    dev.set_fault_plan(plan);

    auto ds = workload::make_dataset(8, 120, workload::Distribution::Uniform, 10);
    const auto want = sorted_rows(ds.values, 8, 120);

    resilient::RetryPolicy retry;
    retry.seed = 99;
    resilient::AttemptLog log;
    const auto stats = resilient::sort_arrays<float>(dev, std::span<float>(ds.values), 8, 120,
                                                     Options{}, retry, &log);
    EXPECT_EQ(ds.values, want);
    EXPECT_EQ(log.attempts, 2u);
    ASSERT_EQ(log.errors.size(), 1u);
    EXPECT_NE(log.errors[0].find("injected launch fault"), std::string::npos);
    EXPECT_GT(log.backoff_ms, 0.0);
    EXPECT_GT(stats.modeled_kernel_ms(), 0.0);
    EXPECT_EQ(dev.fault_report().launch_failures, 1u);
}

TEST(VerifiedSort, ExhaustedRetriesPropagateTheTypedError) {
    auto dev = make_device();
    simt::faults::FaultPlan plan;
    plan.launch_fail_every = 1;  // every launch refused: unrecoverable
    dev.set_fault_plan(plan);
    auto ds = workload::make_dataset(4, 64, workload::Distribution::Uniform, 11);
    resilient::RetryPolicy retry;
    retry.max_attempts = 3;
    resilient::AttemptLog log;
    EXPECT_THROW(resilient::sort_arrays<float>(dev, std::span<float>(ds.values), 4, 64,
                                               Options{}, retry, &log),
                 simt::LaunchFault);
    EXPECT_EQ(log.attempts, 2u);  // two logged failures, the third throws out
    EXPECT_EQ(log.errors.size(), 2u);
}

// The silent-corruption pin (the PR's reason to exist): flip one bit in
// device memory, undetected, at the entry of the verify kernel — i.e. after
// the sort finished writing.  Without verify_output nothing notices and the
// caller gets silently wrong bytes; with it, VerifyError fires, and the
// retry wrapper re-stages and delivers correct bytes.
TEST(VerifiedSort, SilentCorruptionIsCaughtByVerifyOutputOnly) {
    const std::size_t num_arrays = 6;
    const std::size_t n = 200;
    const auto ds = workload::make_dataset(num_arrays, n, workload::Distribution::Uniform, 12);
    const auto want = sorted_rows(ds.values, num_arrays, n);

    // Count the launches of a clean verified sort; its last launch is the
    // verify kernel, so corrupting at that ordinal flips a bit in the sorted
    // data right before verification reads it.
    Options verify_opts;
    verify_opts.verify_output = true;
    std::size_t verify_ordinal = 0;
    {
        auto dev = make_device();
        auto data = ds.values;
        gas::gpu_array_sort(dev, data, num_arrays, n, verify_opts);
        verify_ordinal = dev.kernel_log().size();
        ASSERT_EQ(dev.kernel_log().back().name, "gas.verify");
    }

    simt::faults::FaultPlan plan;
    plan.corrupt_at = {verify_ordinal};
    plan.detected = false;  // no TransferError: only verification can see it

    // Arm 1: verification off.  The corrupting ordinal is never reached
    // (no verify launch exists), today's bytes reproduce exactly.
    {
        auto dev = make_device();
        dev.set_fault_plan(plan);
        auto data = ds.values;
        gas::gpu_array_sort(dev, data, num_arrays, n);
        EXPECT_EQ(data, want);
        EXPECT_EQ(dev.fault_report().corruptions, 0u);
    }

    // Arm 2: with verification off, some launch ordinal's corruption must
    // survive into the output as silently wrong bytes — the failure mode
    // this PR closes.  Scan from the last sort kernel backwards (an early
    // flip can be overwritten by later pipeline stages, so the surviving
    // ordinal is found empirically but deterministically).
    {
        std::size_t no_verify_launches = 0;
        {
            auto dev = make_device();
            auto data = ds.values;
            gas::gpu_array_sort(dev, data, num_arrays, n);
            no_verify_launches = dev.kernel_log().size();
        }
        std::size_t silent_ordinal = 0;
        for (std::size_t k = no_verify_launches; k >= 1 && silent_ordinal == 0; --k) {
            auto dev = make_device();
            simt::faults::FaultPlan mid = plan;
            mid.corrupt_at = {k};
            dev.set_fault_plan(mid);
            auto data = ds.values;
            gas::gpu_array_sort(dev, data, num_arrays, n);
            if (dev.fault_report().corruptions == 1 && data != want) silent_ordinal = k;
        }
        EXPECT_NE(silent_ordinal, 0u)
            << "no ordinal produced silently wrong bytes with verification off";
    }

    // Arm 3: verification on, single attempt: VerifyError names the damage.
    {
        auto dev = make_device();
        dev.set_fault_plan(plan);
        auto data = ds.values;
        resilient::RetryPolicy once;
        once.max_attempts = 1;
        try {
            resilient::sort_arrays<float>(dev, std::span<float>(data), num_arrays, n,
                                          verify_opts, once);
            FAIL() << "verification should have caught the flipped bit";
        } catch (const resilient::VerifyError& e) {
            EXPECT_GE(e.mismatched_rows() + e.unsorted_rows(), 1u);
        }
    }

    // Arm 4: verification on + retries: the second attempt re-stages clean
    // data (the corrupt ordinal is behind us) and the caller gets the right
    // bytes, with the VerifyError recorded in the attempt log.
    {
        auto dev = make_device();
        dev.set_fault_plan(plan);
        auto data = ds.values;
        resilient::RetryPolicy retry;
        retry.seed = 4;
        resilient::AttemptLog log;
        resilient::sort_arrays<float>(dev, std::span<float>(data), num_arrays, n,
                                      verify_opts, retry, &log);
        EXPECT_EQ(data, want);
        EXPECT_EQ(log.attempts, 2u);
        ASSERT_EQ(log.errors.size(), 1u);
        EXPECT_NE(log.errors[0].find("verification failed"), std::string::npos);
    }
}

TEST(VerifiedSort, RaggedAndPairWrappersVerifyAndRetry) {
    // Ragged: refuse one launch, expect a clean recovery.
    {
        auto dev = make_device();
        simt::faults::FaultPlan plan;
        plan.launch_fail_at = {1};  // the fused sort kernel itself, refused once
        dev.set_fault_plan(plan);
        auto rag = workload::make_ragged_dataset(6, 2, 60, workload::Distribution::Uniform, 13);
        const std::vector<std::uint64_t> offsets(rag.offsets.begin(), rag.offsets.end());
        auto want = rag.values;
        for (std::size_t a = 0; a + 1 < offsets.size(); ++a) {
            std::sort(want.begin() + static_cast<std::ptrdiff_t>(offsets[a]),
                      want.begin() + static_cast<std::ptrdiff_t>(offsets[a + 1]));
        }
        Options opts;
        opts.verify_output = true;
        resilient::AttemptLog log;
        resilient::ragged_sort(dev, rag.values, offsets, opts, {}, &log);
        EXPECT_EQ(rag.values, want);
        EXPECT_EQ(log.attempts, 2u);
    }
    // Pairs: verified fault-free run keeps key/payload binding.
    {
        auto dev = make_device();
        auto ds = workload::make_dataset(5, 80, workload::Distribution::Uniform, 14);
        std::vector<float> payload(ds.values.size());
        for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<float>(i);
        const auto offsets = resilient::uniform_offsets(5, 80);
        const auto expected = resilient::host_row_checksums<float>(ds.values, payload, offsets);
        Options opts;
        opts.verify_output = true;
        resilient::pair_sort<float>(dev, std::span<float>(ds.values),
                                    std::span<float>(payload), 5, 80, opts);
        EXPECT_TRUE(resilient::verify_rows_on_device<float>(dev, "gas.verify_pairs", ds.values,
                                                            payload, offsets,
                                                            SortOrder::Ascending, expected)
                        .ok());
    }
}

}  // namespace
