#include "simt/sanitize/finding.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace simt::sanitize {

std::string describe(const Finding& f) {
    std::ostringstream os;
    os << to_string(f.kind) << " [" << to_string(f.space) << "] " << f.kernel << " block "
       << f.block << " region " << f.region;
    if (f.kind == FindingKind::Race) {
        os << " lanes " << f.lane << "/" << f.other_lane;
    } else if (f.kind != FindingKind::BankConflict) {
        os << " lane " << f.lane;
    }
    if (f.kind != FindingKind::BankConflict) os << " +0x" << std::hex << f.offset << std::dec;
    os << ": " << f.detail;
    return os.str();
}

std::string to_json(const SanitizeReport& report) {
    obs::Json out;
    out.begin_object().field("tool", "simt::sanitize").field("clean", report.clean());
    out.object("counts");
    for (const FindingKind kind : {FindingKind::Race, FindingKind::OutOfBounds,
                                   FindingKind::UninitRead, FindingKind::BankConflict}) {
        out.field(to_string(kind), report.count(kind));
    }
    out.end_object().field("suppressed", report.suppressed).array("findings");
    for (const Finding& f : report.findings) {
        out.begin_object().field("kind", to_string(f.kind)).field("space", to_string(f.space));
        out.field("kernel", f.kernel).field("block", f.block).field("region", f.region);
        out.field("lane", f.lane).field("other_lane", f.other_lane).field("offset", f.offset);
        out.field("write", f.write).field("detail", f.detail).end_object();
    }
    out.end_array().array("launches");
    for (const LaunchSanitizeStats& l : report.launches) {
        out.begin_object().field("kernel", l.kernel).field("grid", l.grid_dim);
        out.field("block", l.block_dim).field("tracked_accesses", l.tracked_accesses);
        out.field("bank_conflict_cycles", l.bank_conflict_cycles);
        out.field("worst_bank_degree", l.worst_bank_degree).field("findings", l.findings);
        out.end_object();
    }
    out.end_array().end_object();
    return out.str();
}

}  // namespace simt::sanitize
