#include "trace.hpp"

#include <algorithm>

#include "metrics.hpp"

namespace ledger {

std::size_t Tracer::add(const char* name, double start_us, double end_us, std::uint64_t id,
                        std::size_t parent, std::uint64_t batch) {
    if (!on_) return Span::kNoParent;
    spans_.push_back(Span{name, start_us, end_us, id, parent, batch});
    return spans_.size() - 1;
}

std::map<std::string, double> Tracer::self_ms() const {
    // Children may overlap one another (a request's submit and queue spans
    // both start at submit entry), so subtract the union of their intervals.
    // Children are clipped to their parent here, as in the JSON.
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const auto& s : spans_) {
        if (s.parent == Span::kNoParent) continue;
        const Span& p = spans_[s.parent];
        children[s.parent].emplace_back(std::max(s.start_us, p.start_us),
                                        std::min(s.end_us, p.end_us));
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto& c = children[i];
        std::sort(c.begin(), c.end());
        double covered = 0.0, reach = spans_[i].start_us;
        for (const auto& [start, end] : c) {
            const double from = std::max(start, reach);
            if (end > from) covered += end - from;
            reach = std::max(reach, end);
        }
        out[spans_[i].name] += std::max(0.0, spans_[i].duration_us() - covered) / 1e3;
    }
    return out;
}

std::size_t Tracer::nesting_violations() const {
    std::size_t bad = 0;
    for (const auto& s : spans_) {
        if (s.end_us < s.start_us) {
            ++bad;
            continue;
        }
        if (s.parent == Span::kNoParent) continue;
        const Span& p = spans_[s.parent];
        if (s.start_us < p.start_us - kNestingToleranceUs ||
            s.end_us > p.end_us + kNestingToleranceUs || s.id != p.id) {
            ++bad;
        }
    }
    return bad;
}

std::string Tracer::chrome_json(const std::string& metadata) const {
    // Clipped intervals: parents precede children, so one pass suffices.
    std::vector<std::pair<double, double>> at(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        double start = s.start_us, end = s.end_us;
        if (s.parent != Span::kNoParent) {
            start = std::clamp(start, at[s.parent].first, at[s.parent].second);
            end = std::min(end, at[s.parent].second);
        }
        at[i] = {start, std::max(start, end)};
    }
    // Lanes: roots in start order take the lowest lane whose last root has
    // ended; children inherit their parent's lane.
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent == Span::kNoParent) roots.push_back(i);
    }
    std::stable_sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
        return at[a].first < at[b].first;
    });
    std::vector<std::size_t> lane(spans_.size(), 0);
    std::vector<double> lane_free_at;
    for (const auto r : roots) {
        std::size_t l = 0;
        while (l < lane_free_at.size() && lane_free_at[l] > at[r].first) ++l;
        if (l == lane_free_at.size()) lane_free_at.push_back(0.0);
        lane_free_at[l] = at[r].second;
        lane[r] = l;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent != Span::kNoParent) lane[i] = lane[spans_[i].parent];
    }

    std::string j;
    j.reserve(spans_.size() * 128 + metadata.size() + 64);
    j += "{\"displayTimeUnit\": \"ms\", \"otherData\": ";
    j += metadata;
    j += ", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        if (i > 0) j += ",";
        j += "\n{\"name\": " + json_string(s.name) + ", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
             std::to_string(lane[i]) + ", \"ts\": " + json_number(at[i].first) +
             ", \"dur\": " + json_number(at[i].second - at[i].first) +
             ", \"args\": {\"id\": " + std::to_string(s.id) +
             ", \"batch\": " + std::to_string(s.batch) + "}}";
    }
    j += "\n]}\n";
    return j;
}

}  // namespace ledger
