#include "metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace ledger {

double nearest_rank(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

double windowed_percentile(const std::vector<double>& in_order, double q, std::size_t window) {
    const std::size_t windows = std::max<std::size_t>(1, in_order.size() / std::max<std::size_t>(window, 1));
    std::vector<double> per_window;
    per_window.reserve(windows);
    // Window w covers [w * n / windows, (w + 1) * n / windows): sizes differ
    // by at most one, and every one holds at least `window` samples.
    const std::size_t n = in_order.size();
    for (std::size_t w = 0; w < windows; ++w) {
        const auto begin = in_order.begin() + static_cast<std::ptrdiff_t>(w * n / windows);
        const auto end = in_order.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / windows);
        per_window.push_back(nearest_rank(std::vector<double>(begin, end), q));
    }
    return nearest_rank(std::move(per_window), 50.0);
}

double class_geomean_percentile(const std::vector<std::vector<double>>& by_class, double q) {
    double log_sum = 0.0;
    std::size_t classes = 0;
    for (const auto& c : by_class) {
        if (c.empty()) continue;
        log_sum += std::log(nearest_rank(c, q));
        ++classes;
    }
    return classes > 0 ? std::exp(log_sum / static_cast<double>(classes)) : 0.0;
}

namespace {

bool name_char(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
    if (name.empty() || name.size() > 64 || !name_char(name[0]) || name[0] == '_' ||
        name[0] == '.' || name[0] == '-') {
        return false;
    }
    return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_metric_unit(std::string_view unit) {
    if (unit.empty() || unit.size() > 16) return false;
    return std::all_of(unit.begin(), unit.end(),
                       [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

std::string json_number(double v) {
    if (!std::isfinite(v)) throw std::invalid_argument("json_number: non-finite value");
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char esc[8];
                    std::snprintf(esc, sizeof(esc), "\\u%04x", static_cast<unsigned>(c));
                    out += esc;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
    return out;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const MetricList& metrics) {
    std::set<std::string_view> seen;
    std::string j = "{\"correct\": ";
    j += correct ? "true" : "false";
    j += ", \"attempted\": " + std::to_string(attempted);
    j += ", \"failed\": " + std::to_string(failed);
    j += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics) {
        if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
            throw std::invalid_argument("result_json: bad or repeated metric name '" + m.name + "'");
        }
        if (!valid_metric_unit(m.unit)) {
            throw std::invalid_argument("result_json: bad unit '" + m.unit + "' for " + m.name);
        }
        if (!first) j += ", ";
        first = false;
        j += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    j += "}}";
    return j;
}

}  // namespace ledger
