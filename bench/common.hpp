#pragma once

// Shared helpers for the figure/table reproduction benches.
//
// Every bench prints the same series the paper reports.  Because the host is
// a functional simulator, runs default to a scaled N grid; pass --full to run
// the paper-scale grid (slow: hours of simulation).  Both grids report the
// *modeled* Tesla K40c milliseconds (the paper's y-axis) next to the host
// wall-clock of the simulation.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "simt/cost_model.hpp"
#include "simt/device.hpp"

namespace bench {

/// A full simulated K40c with as many host simulation workers as the machine
/// offers (results are worker-count invariant; see simt tests).
inline simt::Device make_device() {
    return simt::Device(simt::tesla_k40c(), simt::DeviceMemory::Mode::Backed,
                        std::max(std::thread::hardware_concurrency(), 1u));
}

struct Args {
    bool full = false;      ///< run the paper-scale grid
    double scale = 1.0;     ///< extra multiplier on the N grid (power users)
    std::string csv;        ///< optional CSV output path for the series
    std::string exec;       ///< "" (auto), "scalar" or "warp" from --exec
};

inline Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            args.full = true;
        } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
            args.scale = std::stod(argv[++i]);
        } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
            args.csv = argv[++i];
        } else if (std::strcmp(argv[i], "--exec") == 0 && i + 1 < argc) {
            args.exec = argv[++i];
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf("usage: %s [--full] [--scale F] [--csv PATH] [--exec MODE]\n",
                        argv[0]);
            std::printf("  --full    paper-scale N grid (very slow functional simulation)\n");
            std::printf("  --scale F multiply the default N grid by F\n");
            std::printf("  --csv P   also write the series as CSV to P\n");
            std::printf("  --exec M  interpreter: scalar | warp (default: scalar;\n");
            std::printf("            --full defaults to warp so paper scale is tractable)\n");
            std::exit(0);
        }
    }
    return args;
}

/// Execution mode the figure benches should run under.  The default grid is
/// pinned to the scalar reference interpreter (the committed figures were
/// produced with it, and both modes are bit-identical anyway — see the `warp`
/// ctest label); --full flips the default to the warp fast path because the
/// paper-scale grid is hours of simulation on the scalar interpreter.  An
/// explicit --exec always wins.
inline simt::ExecMode exec_mode_for(const Args& args) {
    if (args.exec == "warp") return simt::ExecMode::Warp;
    if (args.exec == "scalar") return simt::ExecMode::Scalar;
    if (!args.exec.empty()) {
        std::fprintf(stderr, "unknown --exec '%s' (want scalar|warp)\n", args.exec.c_str());
        std::exit(2);
    }
    return args.full ? simt::ExecMode::Warp : simt::ExecMode::Scalar;
}

/// Writes rows of comma-separated values with a header line; silently does
/// nothing when path is empty.
class CsvWriter {
  public:
    CsvWriter(const std::string& path, const std::string& header) {
        if (path.empty()) return;
        file_ = std::fopen(path.c_str(), "w");
        if (file_ != nullptr) std::fprintf(file_, "%s\n", header.c_str());
    }
    CsvWriter(const CsvWriter&) = delete;
    CsvWriter& operator=(const CsvWriter&) = delete;
    ~CsvWriter() {
        if (file_ != nullptr) std::fclose(file_);
    }

    template <typename... Vals>
    void row(const char* fmt, Vals... vals) {
        if (file_ == nullptr) return;
        std::fprintf(file_, fmt, vals...);
        std::fputc('\n', file_);
    }

    [[nodiscard]] bool active() const { return file_ != nullptr; }

  private:
    std::FILE* file_ = nullptr;
};

/// Writes `doc` and a trailing newline to `path`, and says so on stdout;
/// false when the file could not be written.
inline bool write_json_file(const std::string& path, const obs::Json& doc) {
    std::ofstream out(path);
    out << doc.str() << '\n';
    out.close();
    std::printf("%s %s\n", out ? "wrote" : "could not write", path.c_str());
    return static_cast<bool>(out);
}

/// The top-level number `key` of the JSON file at `path` (a committed bench
/// baseline); std::nullopt when the file or the key is missing.
inline std::optional<double> baseline_number(const std::string& path, const char* key) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return obs::read_number(text.str(), key);
}

/// N grid for the runtime figures.  Paper: 5e4 .. 2e5; default: 1/40 of it,
/// which preserves the linear-in-N shape (one block per array).
inline std::vector<std::size_t> n_arrays_grid(const Args& args) {
    std::vector<std::size_t> grid;
    if (args.full) {
        grid = {50000, 75000, 100000, 125000, 150000, 175000, 200000};
    } else {
        grid = {1250, 1875, 2500, 3125, 3750, 4375, 5000};
    }
    if (args.scale != 1.0) {
        for (auto& n : grid) {
            n = static_cast<std::size_t>(static_cast<double>(n) * args.scale);
        }
    }
    return grid;
}

inline void rule(char c = '-', int width = 78) {
    for (int i = 0; i < width; ++i) std::putchar(c);
    std::putchar('\n');
}

/// Verifies the sanitizer-off guarantee over `workload` (any callable taking
/// simt::Device&): the kernel log produced with the sanitizer fully enabled
/// must match the default run bit-for-bit in every deterministic KernelStats
/// field (everything except host wall_ms).  The benches assert this so the
/// numbers they report are provably untouched by the checking machinery.
/// Prints a PASS/FAIL line; returns true on PASS.
template <typename Workload>
inline bool verify_sanitize_off_guarantee(Workload workload) {
    const auto run = [&workload](bool checked) {
        simt::Device dev = make_device();
        if (checked) dev.set_sanitize_options(simt::sanitize::SanitizeOptions::all());
        workload(dev);
        return std::vector<simt::KernelStats>(dev.kernel_log().begin(),
                                              dev.kernel_log().end());
    };
    const auto off = run(false);
    const auto on = run(true);
    bool ok = off.size() == on.size();
    for (std::size_t i = 0; ok && i < off.size(); ++i) {
        const simt::KernelStats& a = off[i];
        const simt::KernelStats& b = on[i];
        ok = a.name == b.name && a.grid_dim == b.grid_dim && a.block_dim == b.block_dim &&
             a.shared_bytes_per_block == b.shared_bytes_per_block &&
             a.totals.ops == b.totals.ops &&
             a.totals.shared_accesses == b.totals.shared_accesses &&
             a.totals.coalesced_bytes == b.totals.coalesced_bytes &&
             a.totals.random_accesses == b.totals.random_accesses &&
             a.traffic_bytes == b.traffic_bytes && a.compute_ms == b.compute_ms &&
             a.memory_ms == b.memory_ms && a.modeled_ms == b.modeled_ms;
    }
    std::printf("sanitizer-off guarantee: %s (%zu kernel log rows, default vs all-checks)\n",
                ok ? "PASS" : "FAIL", off.size());
    return ok;
}

}  // namespace bench
