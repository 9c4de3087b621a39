// simt::sanitize coverage: the seeded-bug mutation tests (each deliberately
// broken kernel must raise exactly its finding kind), clean-run guarantees
// over the real GPU-ArraySort kernels, strict mode, and the zero-overhead
// contract (sanitizer off => KernelStats bit-identical).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/gpu_array_sort.hpp"
#include "simt/device.hpp"
#include "simt/device_buffer.hpp"
#include "simt/report.hpp"
#include "simt/sanitize/selftest.hpp"
#include "simt/sanitize/tracked_span.hpp"
#include "thrustlite/device_vector.hpp"
#include "thrustlite/radix_sort.hpp"
#include "workload/generators.hpp"

namespace {

using simt::sanitize::FindingKind;
using simt::sanitize::SanitizeOptions;
using simt::sanitize::SeededBug;

simt::Device make_device() { return simt::Device(simt::tiny_device(256 << 20)); }

void enable_all_checks(simt::Device& dev) {
    dev.set_sanitize_options(SanitizeOptions::all());
}

// --- Mutation tests: every seeded bug must be caught with the right kind ---

TEST(SanitizeSeededBugs, NeighbourWriteRaisesRace) {
    auto dev = make_device();
    const auto report = run_seeded_bug(dev, SeededBug::NeighbourWrite);
    EXPECT_GT(report.count(FindingKind::Race), 0u);
    EXPECT_EQ(report.count(FindingKind::OutOfBounds), 0u);
    ASSERT_FALSE(report.findings.empty());
    EXPECT_EQ(report.findings[0].kernel, "selftest.neighbour_write");
}

TEST(SanitizeSeededBugs, SharedOverflowRaisesOutOfBounds) {
    auto dev = make_device();
    const auto report = run_seeded_bug(dev, SeededBug::SharedOverflow);
    EXPECT_GT(report.count(FindingKind::OutOfBounds), 0u);
    EXPECT_EQ(report.count(FindingKind::Race), 0u);
}

TEST(SanitizeSeededBugs, UninitReadRaisesUninitRead) {
    auto dev = make_device();
    const auto report = run_seeded_bug(dev, SeededBug::UninitRead);
    EXPECT_GT(report.count(FindingKind::UninitRead), 0u);
}

TEST(SanitizeSeededBugs, StridedAccessRaisesBankConflict) {
    auto dev = make_device();
    const auto report = run_seeded_bug(dev, SeededBug::BankConflictStride);
    EXPECT_GT(report.count(FindingKind::BankConflict), 0u);
    // The stride puts all 32 lanes on one bank: full serialization.
    bool saw_full_degree = false;
    for (const auto& l : report.launches) {
        saw_full_degree = saw_full_degree || l.worst_bank_degree == 32;
    }
    EXPECT_TRUE(saw_full_degree);
}

TEST(SanitizeSeededBugs, SelftestPassesEndToEnd) {
    auto dev = make_device();
    const auto self = simt::sanitize::run_selftest(dev);
    EXPECT_TRUE(self.ok) << self.log;
}

// --- Clean-run guarantees: the paper's kernels must produce no findings ---

TEST(SanitizeCleanRun, GpuArraySortIsClean) {
    auto dev = make_device();
    enable_all_checks(dev);
    auto ds = workload::make_dataset(16, 500);
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    const auto& report = dev.sanitize_report();
    EXPECT_TRUE(report.clean()) << report.findings.size() << " findings; first: "
                                << (report.findings.empty()
                                        ? ""
                                        : describe(report.findings[0]));
    // The phase kernels actually routed accesses through the shadow state.
    std::uint64_t tracked = 0;
    for (const auto& l : report.launches) tracked += l.tracked_accesses;
    EXPECT_GT(tracked, 0u);
}

TEST(SanitizeCleanRun, BinarySearchStrategyIsClean) {
    // The atomic-cursor strategy: shared counts/cursors are hammered by all
    // lanes concurrently, legal only because they are atomics — racecheck
    // must understand that.
    auto dev = make_device();
    enable_all_checks(dev);
    auto ds = workload::make_dataset(8, 500);
    gas::Options opts;
    opts.strategy = gas::BucketingStrategy::BinarySearch;
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size, opts);
    const auto& report = dev.sanitize_report();
    EXPECT_TRUE(report.clean()) << (report.findings.empty()
                                        ? ""
                                        : describe(report.findings[0]));
}

TEST(SanitizeCleanRun, GlobalScratchFallbackIsClean) {
    // Arrays too big for the shared arena: phase 2 stages in global scratch
    // rows keyed by execution slot.
    auto dev = make_device();
    enable_all_checks(dev);
    const std::size_t n = 20000;  // 80 KB > 48 KB shared
    auto ds = workload::make_dataset(4, n);
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    const auto& report = dev.sanitize_report();
    EXPECT_TRUE(report.clean()) << (report.findings.empty()
                                        ? ""
                                        : describe(report.findings[0]));
}

TEST(SanitizeCleanRun, RadixSortIsClean) {
    auto dev = make_device();
    enable_all_checks(dev);
    auto host = workload::make_values(30000, workload::Distribution::Uniform, 3);
    std::vector<std::uint32_t> keys(host.size());
    for (std::size_t i = 0; i < host.size(); ++i) {
        keys[i] = static_cast<std::uint32_t>(static_cast<std::int64_t>(host[i] * 1e6f));
    }
    thrustlite::device_vector<std::uint32_t> dkeys(dev, keys);
    thrustlite::stable_sort(dkeys);
    const auto& report = dev.sanitize_report();
    EXPECT_TRUE(report.clean()) << (report.findings.empty()
                                        ? ""
                                        : describe(report.findings[0]));
}

// --- Strict mode: findings abort the launch with SanitizeError ---

TEST(SanitizeStrict, ThrowsOnFindings) {
    auto dev = make_device();
    auto opts = SanitizeOptions::all();
    opts.strict = true;
    dev.set_sanitize_options(opts);
    simt::DeviceBuffer<std::uint32_t> out(dev, 8);
    EXPECT_THROW(
        dev.launch({"strict.racy", 1, 8},
                   [&](simt::BlockCtx& blk) {
                       auto view = blk.global_view(out.span());
                       blk.for_each_thread([&](simt::ThreadCtx& tc) {
                           view[(tc.tid() + 1) % 8] = tc.tid();
                           view[tc.tid()] = tc.tid();
                       });
                   }),
        simt::SanitizeError);
    // The findings were still recorded before the throw.
    EXPECT_FALSE(dev.sanitize_report().clean());
}

// --- Zero-overhead contract: sanitizer off => KernelStats bit-identical ---

bool deterministic_fields_equal(const simt::KernelStats& a, const simt::KernelStats& b) {
    return a.name == b.name && a.grid_dim == b.grid_dim && a.block_dim == b.block_dim &&
           a.shared_bytes_per_block == b.shared_bytes_per_block &&
           a.totals.ops == b.totals.ops &&
           a.totals.shared_accesses == b.totals.shared_accesses &&
           a.totals.coalesced_bytes == b.totals.coalesced_bytes &&
           a.totals.random_accesses == b.totals.random_accesses &&
           a.traffic_bytes == b.traffic_bytes && a.compute_ms == b.compute_ms &&
           a.memory_ms == b.memory_ms && a.modeled_ms == b.modeled_ms;
}

TEST(SanitizeOverhead, KernelStatsBitIdenticalWithChecksOnOrOff) {
    // The fig4-style workload: N arrays of n=1000 floats.  Every modeled
    // KernelStats field must be identical whether the sanitizer is off
    // (default) or fully on — instrumentation must never leak into the
    // performance model (only wall_ms, real time, may differ).
    const auto run = [](bool checked) {
        auto dev = make_device();
        if (checked) enable_all_checks(dev);
        auto ds = workload::make_dataset(64, 1000);
        gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
        return std::vector<simt::KernelStats>(dev.kernel_log().begin(),
                                              dev.kernel_log().end());
    };
    const auto off = run(false);
    const auto on = run(true);
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t i = 0; i < off.size(); ++i) {
        EXPECT_TRUE(deterministic_fields_equal(off[i], on[i]))
            << "kernel log row " << i << " (" << off[i].name << ") diverged";
    }
}

TEST(SanitizeOverhead, DisabledDeviceRecordsNothing) {
    auto dev = make_device();  // default options: everything off
    auto ds = workload::make_dataset(4, 200);
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    EXPECT_TRUE(dev.sanitize_report().clean());
    EXPECT_TRUE(dev.sanitize_report().launches.empty());
}

// --- TrackedSpan mechanics ---

TEST(TrackedSpan, UntrackedViewDegradesToRawIndexing) {
    std::vector<int> data{1, 2, 3, 4};
    simt::sanitize::TrackedSpan<int> view{std::span<int>(data)};
    view[2] = 9;
    EXPECT_EQ(static_cast<int>(view[2]), 9);
    EXPECT_EQ(data[2], 9);
    EXPECT_EQ(view.size(), 4u);
}

TEST(TrackedSpan, SubspanPreservesTracking) {
    std::vector<int> data(8, 0);
    simt::sanitize::TrackedSpan<int> view{std::span<int>(data)};
    auto sub = view.subspan(4, 4);
    sub[0] = 7;
    EXPECT_EQ(data[4], 7);
}

TEST(SanitizeReportPrint, ProducesTableAndJson) {
    auto dev = make_device();
    enable_all_checks(dev);
    auto ds = workload::make_dataset(4, 200);
    gas::gpu_array_sort(dev, ds.values, ds.num_arrays, ds.array_size);
    std::ostringstream os;
    simt::print_sanitize_report(os, dev);
    EXPECT_NE(os.str().find("no findings"), std::string::npos);
    const std::string json = simt::sanitize::to_json(dev.sanitize_report());
    EXPECT_NE(json.find("\"clean\": true"), std::string::npos);
}

}  // namespace
