#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ledger {

/// One named measurement with its unit, as the result line prints it.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};
using MetricList = std::vector<Metric>;

/// Nearest-rank percentile, q in (0, 100]: the smallest sample with at least
/// q% of the samples at or below it.  0 for no samples.
[[nodiscard]] double nearest_rank(std::vector<double> samples, double q);

/// Splits `in_order` (samples in the order they were taken) into consecutive
/// windows of at least `window` samples each and returns the nearest-rank
/// median of the windows' q-th percentiles.  Fewer than 2 * `window`
/// samples make one window, so the result is the plain percentile.  A host
/// hiccup then moves one window, not the metric.
[[nodiscard]] double windowed_percentile(const std::vector<double>& in_order, double q,
                                         std::size_t window = 1000);

/// Geometric mean over the non-empty classes of each class's nearest-rank
/// q-th percentile.  With operations of very different sizes, a percentile
/// over all of them sits where one class gives way to the next and jumps
/// with small count changes; per-class percentiles do not, and the geometric
/// mean weighs a relative change in any class alike.  0 for no samples.
[[nodiscard]] double class_geomean_percentile(const std::vector<std::vector<double>>& by_class,
                                              double q);

/// Metric names are `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// Units are 1 to 16 characters of `[A-Za-z0-9_/%.-]`.
[[nodiscard]] bool valid_metric_unit(std::string_view unit);

/// Shortest decimal form that reads back as the same double.  Throws
/// std::invalid_argument for NaN and infinities, which JSON cannot hold.
[[nodiscard]] std::string json_number(double v);

/// A JSON string literal (quotes and escapes added).
[[nodiscard]] std::string json_string(std::string_view s);

/// The benchmark's last output line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric as {"value": v, "unit": u}.  Throws
/// std::invalid_argument on a malformed or repeated metric name or unit.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed, const MetricList& metrics);

}  // namespace ledger
