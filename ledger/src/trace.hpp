#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

/// One timed interval at a layer boundary.  Spans of one operation share
/// `id` (the request id, or the call index for direct sorts); `parent` is the
/// index of the enclosing span, or kNoParent for an operation's root.
struct Span {
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
    const char* name = "";  ///< static string: "request", "submit", "phase1", ...
    double start_us = 0.0;  ///< microseconds since the run's time origin
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::size_t parent = kNoParent;
    std::uint64_t batch = 0;  ///< Response::batch_id (0 when none)

    [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// In-memory span recorder.  Off, add() records nothing; on, spans are kept
/// as measured until the run ends and written once as Chrome trace-event
/// JSON.  Only the JSON clips a child to its parent, so that an overrun
/// shows in nesting_violations() rather than being hidden.
class Tracer {
  public:
    /// Slack allowed when nesting spans whose ends come from different
    /// readings of one steady clock, each converted to microseconds.
    static constexpr double kNestingToleranceUs = 1.0;

    explicit Tracer(bool on = false) : on_(on) {}

    [[nodiscard]] bool on() const { return on_; }
    void reserve(std::size_t n) {
        if (on_) spans_.reserve(n);
    }
    /// Records a span; returns its index (Span::kNoParent when off).
    std::size_t add(const char* name, double start_us, double end_us, std::uint64_t id,
                    std::size_t parent = Span::kNoParent, std::uint64_t batch = 0);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    /// Self time per span name in ms, summed over all spans: each span's
    /// duration minus the part of it that the union of its children covers.
    [[nodiscard]] std::map<std::string, double> self_ms() const;

    /// Spans that end before they start, or whose interval is not inside
    /// their parent's by more than kNestingToleranceUs (0 when well formed).
    [[nodiscard]] std::size_t nesting_violations() const;

    /// Chrome trace-event JSON ({"traceEvents": [...]}, complete "X" events).
    /// Each root span gets the lowest lane (tid) free at its start, and its
    /// descendants share that lane, so a viewer nests them.  `metadata` is a
    /// JSON object stored under "otherData".  Each span is clipped to its
    /// parent's interval and to a duration of at least zero.
    [[nodiscard]] std::string chrome_json(const std::string& metadata) const;

  private:
    bool on_;
    std::vector<Span> spans_;
};

}  // namespace ledger
