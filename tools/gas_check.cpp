// gas_check — run GPU-ArraySort workloads under the simt::sanitize checker
// (the repo's compute-sanitizer analog) and report findings.
//
//   gas_check [--workload sort|small|pairs|ragged|radix|bitonic|all]
//             [--arrays N] [--size n]
//             [--checks race,mem,init,bank | all]
//             [--json PATH] [--strict] [--demo-bugs]
//
// Exit status: 0 = all workloads clean, 2 = findings were reported,
// 1 = usage / runtime error.  --demo-bugs instead runs the sanitizer's
// seeded-bug selftest (four deliberately broken kernels, one per finding
// kind, plus a clean control) and exits 0 iff every bug was caught.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/gpu_array_sort.hpp"
#include "core/pair_sort.hpp"
#include "core/ragged_sort.hpp"
#include "core/validate.hpp"
#include "tune/planner.hpp"
#include "simt/device.hpp"
#include "simt/report.hpp"
#include "simt/sanitize/selftest.hpp"
#include "thrustlite/device_vector.hpp"
#include "thrustlite/radix_sort.hpp"
#include "workload/generators.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: gas_check [options]\n"
                 "  --workload W   sort|small|pairs|ragged|radix|bitonic|all\n"
                 "                 (default: all)\n"
                 "  --arrays N     number of arrays (default: 64)\n"
                 "  --size n       elements per array (default: 1000)\n"
                 "  --checks C     comma list of race,mem,init,bank or 'all' (default)\n"
                 "  --exec M       interpreter execution mode: scalar|warp (default:\n"
                 "                 the SIMT_EXEC environment variable, else warp)\n"
                 "  --tune on|off  adaptive autotuning for the sort workload: on runs\n"
                 "                 it through gas::tune (sketch -> plan -> sort) so the\n"
                 "                 tuned plan's kernels face the checker (default: on)\n"
                 "  --json PATH    also write the findings report as JSON\n"
                 "  --strict       abort the failing launch (SanitizeError) instead of\n"
                 "                 collecting findings\n"
                 "  --demo-bugs    run the seeded-bug selftest instead of workloads\n");
    return 1;
}

struct Args {
    std::string workload = "all";
    std::size_t arrays = 64;
    std::size_t size = 1000;
    simt::sanitize::SanitizeOptions checks = simt::sanitize::SanitizeOptions::all();
    simt::ExecMode exec = simt::exec_mode_from_env();
    bool tune = true;
    std::string json_path;
    bool demo_bugs = false;
};

bool parse_checks(const std::string& spec, simt::sanitize::SanitizeOptions& opts) {
    if (spec == "all") {
        const bool strict = opts.strict;
        opts = simt::sanitize::SanitizeOptions::all();
        opts.strict = strict;
        return true;
    }
    opts.racecheck = opts.memcheck = opts.initcheck = opts.bankcheck = false;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = std::min(spec.find(',', pos), spec.size());
        const std::string item = spec.substr(pos, comma - pos);
        if (item == "race") opts.racecheck = true;
        else if (item == "mem") opts.memcheck = true;
        else if (item == "init") opts.initcheck = true;
        else if (item == "bank") opts.bankcheck = true;
        else return false;
        pos = comma + 1;
    }
    return opts.any();
}

/// One sanitized workload: runs the sort, validates the output, and leaves
/// its launches in the device's sanitize report.  With tune on the sort goes
/// through gas::tune (sketch -> plan -> sort), so the tuned plan's kernel
/// shapes — not just the paper defaults — face the checker.
void run_sort(simt::Device& device, std::size_t arrays, std::size_t size, bool tune) {
    auto ds = workload::make_dataset(arrays, size);
    if (tune) {
        gas::tune::tuned_sort(device, ds.values, ds.num_arrays, ds.array_size, {});
    } else {
        gas::gpu_array_sort(device, ds.values, ds.num_arrays, ds.array_size);
    }
    if (!gas::all_arrays_sorted(ds.values, ds.num_arrays, ds.array_size)) {
        throw std::runtime_error("sort workload produced unsorted output");
    }
}

void run_small(simt::Device& device, std::size_t arrays) {
    // Single-bucket fast path (n below the sampling threshold).
    auto ds = workload::make_dataset(arrays, 8);
    gas::gpu_array_sort(device, ds.values, ds.num_arrays, ds.array_size);
    if (!gas::all_arrays_sorted(ds.values, ds.num_arrays, ds.array_size)) {
        throw std::runtime_error("small workload produced unsorted output");
    }
}

void run_pairs(simt::Device& device, std::size_t arrays, std::size_t size) {
    auto keys = workload::make_dataset(arrays, size, workload::Distribution::Uniform, 7);
    auto vals = workload::make_dataset(arrays, size, workload::Distribution::Uniform, 8);
    gas::gpu_pair_sort(device, keys.values, vals.values, arrays, size);
    if (!gas::all_arrays_sorted(keys.values, arrays, size)) {
        throw std::runtime_error("pairs workload produced unsorted keys");
    }
}

void run_ragged(simt::Device& device, std::size_t arrays) {
    auto ds = workload::make_ragged_dataset(arrays, 16, 512);
    std::vector<std::uint64_t> offsets(ds.offsets.begin(), ds.offsets.end());
    gas::gpu_ragged_sort(device, ds.values, offsets);
}

void run_bitonic(simt::Device& device, std::size_t arrays, std::size_t size) {
    // Single-hot-bucket adversary with the hybrid cutovers forced low so
    // every phase-3 path — size-binned serial classes and the cooperative
    // shared-memory bitonic network — runs under the checker.  The network's
    // staggered access order is designed bank-conflict free; this workload
    // is the empirical proof (tests pin it under --checks bank --strict).
    gas::Options opts;
    opts.phase3_small_cutoff = 16;
    opts.phase3_bitonic_cutoff = 64;
    auto ds = workload::make_dataset(arrays, size, workload::Distribution::ZipfHot, 11);
    gas::gpu_array_sort(device, ds.values, ds.num_arrays, ds.array_size, opts);
    if (!gas::all_arrays_sorted(ds.values, ds.num_arrays, ds.array_size)) {
        throw std::runtime_error("bitonic workload produced unsorted output");
    }
    // Pair variant: the value plane doubles the co-issued access pattern.
    auto keys = workload::make_dataset(arrays, size, workload::Distribution::ZipfHot, 12);
    auto vals = workload::make_dataset(arrays, size, workload::Distribution::Uniform, 13);
    gas::gpu_pair_sort(device, keys.values, vals.values, arrays, size, opts);
    if (!gas::all_arrays_sorted(keys.values, arrays, size)) {
        throw std::runtime_error("bitonic pair workload produced unsorted keys");
    }
}

void run_radix(simt::Device& device, std::size_t count) {
    std::vector<std::uint32_t> host(count);
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (auto& x : host) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x = static_cast<std::uint32_t>(state >> 32);
    }
    thrustlite::device_vector<std::uint32_t> keys(device, host);
    thrustlite::stable_sort(keys);

    // Narrow-range keys: the max-key bound and the degenerate-histogram
    // check skip passes, and an odd executed count runs the copy-back.
    for (auto& x : host) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        x = static_cast<std::uint32_t>(state >> 40);
    }
    thrustlite::device_vector<std::uint32_t> narrow(device, host);
    thrustlite::stable_sort(narrow);
}

int run_demo_bugs(simt::Device& device) {
    const auto self = simt::sanitize::run_selftest(device);
    std::fputs(self.log.c_str(), stdout);
    std::printf("selftest: %s\n", self.ok ? "all seeded bugs detected" : "FAILED");
    return self.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const auto need_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "gas_check: %s needs a value\n", flag);
                std::exit(usage());
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--workload") == 0) args.workload = need_value("--workload");
        else if (std::strcmp(argv[i], "--arrays") == 0)
            args.arrays = std::strtoull(need_value("--arrays"), nullptr, 10);
        else if (std::strcmp(argv[i], "--size") == 0)
            args.size = std::strtoull(need_value("--size"), nullptr, 10);
        else if (std::strcmp(argv[i], "--checks") == 0) {
            if (!parse_checks(need_value("--checks"), args.checks)) {
                std::fprintf(stderr, "gas_check: bad --checks value\n");
                return usage();
            }
        } else if (std::strcmp(argv[i], "--exec") == 0) {
            const std::string mode = need_value("--exec");
            if (mode == "scalar") args.exec = simt::ExecMode::Scalar;
            else if (mode == "warp") args.exec = simt::ExecMode::Warp;
            else {
                std::fprintf(stderr, "gas_check: bad --exec value %s\n", mode.c_str());
                return usage();
            }
        } else if (std::strcmp(argv[i], "--tune") == 0) {
            const std::string v = need_value("--tune");
            if (v == "on") args.tune = true;
            else if (v == "off") args.tune = false;
            else {
                // A typo must not silently check the default path: name the
                // rejected string and the full valid set.
                std::fprintf(stderr, "gas_check: unknown --tune '%s' (valid: on, off)\n",
                             v.c_str());
                return 1;
            }
        } else if (std::strcmp(argv[i], "--json") == 0) args.json_path = need_value("--json");
        else if (std::strcmp(argv[i], "--strict") == 0) args.checks.strict = true;
        else if (std::strcmp(argv[i], "--demo-bugs") == 0) args.demo_bugs = true;
        else {
            std::fprintf(stderr, "gas_check: unknown option %s\n", argv[i]);
            return usage();
        }
    }

    try {
        simt::Device device(simt::tiny_device(512 << 20));
        device.set_exec_mode(args.exec);
        if (args.demo_bugs) return run_demo_bugs(device);

        device.set_sanitize_options(args.checks);
        const bool all = args.workload == "all";
        bool matched = false;
        const auto want = [&](const char* name) {
            const bool hit = all || args.workload == name;
            matched = matched || hit;
            if (hit) std::printf("checking workload: %s\n", name);
            return hit;
        };
        if (want("sort")) run_sort(device, args.arrays, args.size, args.tune);
        if (want("small")) run_small(device, args.arrays);
        if (want("pairs")) run_pairs(device, args.arrays, std::min<std::size_t>(args.size, 2048));
        if (want("ragged")) run_ragged(device, args.arrays);
        if (want("radix")) run_radix(device, args.arrays * args.size);
        if (want("bitonic"))
            run_bitonic(device, args.arrays, std::min<std::size_t>(args.size, 2048));
        if (!matched) {
            std::fprintf(stderr, "gas_check: unknown workload %s\n", args.workload.c_str());
            return usage();
        }

        std::printf("\n");
        simt::print_sanitize_report(std::cout, device);

        if (!args.json_path.empty()) {
            std::ofstream out(args.json_path);
            if (!out) throw std::runtime_error("cannot write " + args.json_path);
            out << simt::sanitize::to_json(device.sanitize_report()) << "\n";
            std::printf("wrote JSON report to %s\n", args.json_path.c_str());
        }
        return device.sanitize_report().clean() ? 0 : 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gas_check: %s\n", e.what());
        return 1;
    }
}
