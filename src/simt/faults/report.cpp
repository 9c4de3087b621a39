#include "simt/faults/report.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace simt::faults {

std::string describe(const FaultEvent& e) {
    std::ostringstream os;
    os << to_string(e.kind) << " #" << e.ordinal << " [" << e.target << "]: " << e.detail;
    return os.str();
}

std::string to_text(const FaultReport& report) {
    std::ostringstream os;
    os << "fault report: " << report.fired() << " fired / " << report.armed()
       << " decision points (alloc " << report.alloc_failures << "/" << report.alloc_checks
       << ", launch " << report.launch_failures << "/" << report.launch_checks << ", corrupt "
       << report.corruptions << "/" << report.corrupt_checks << ", stall " << report.stalls
       << "/" << report.stall_checks << ", hang " << report.hangs << "/" << report.hang_checks
       << "), " << report.suppressed << " suppressed\n";
    for (const FaultEvent& e : report.events) os << "  " << describe(e) << "\n";
    return os.str();
}

void write_json(obs::Json& out, const FaultReport& report) {
    const auto count = [&out](const char* kind, std::uint64_t checks, std::uint64_t fired) {
        out.object(kind).field("checks", checks).field("fired", fired).end_object();
    };
    out.begin_object().field("tool", "simt::faults").field("clean", report.clean());
    out.object("counts");
    count("alloc-fail", report.alloc_checks, report.alloc_failures);
    count("launch-fail", report.launch_checks, report.launch_failures);
    count("corrupt", report.corrupt_checks, report.corruptions);
    count("stall", report.stall_checks, report.stalls);
    count("hang", report.hang_checks, report.hangs);
    out.end_object().field("suppressed", report.suppressed).array("events");
    for (const FaultEvent& e : report.events) {
        out.begin_object().field("kind", to_string(e.kind)).field("ordinal", e.ordinal);
        out.field("target", e.target).field("detail", e.detail).end_object();
    }
    out.end_array().end_object();
}

std::string to_json(const FaultReport& report) {
    obs::Json out;
    write_json(out, report);
    return out.str();
}

}  // namespace simt::faults
