#pragma once

#include <algorithm>
#include <cstdint>

#include "health/config.hpp"

namespace gas::health {

/// Per-device health states.  PR 7's quarantine was one-way (Healthy →
/// quarantined forever); this machine closes the loop:
///
///   Healthy --transient fault/hang--> Degraded
///   Degraded --clean streak--> Healthy
///   any --retries exhausted--> Quarantined
///   Quarantined --K consecutive probe passes--> Probation
///   Probation --M clean batches--> Healthy
///   Probation --any failure--> Quarantined
enum class State : std::uint8_t { Healthy, Degraded, Quarantined, Probation };

[[nodiscard]] inline const char* to_string(State s) {
    switch (s) {
        case State::Healthy: return "healthy";
        case State::Degraded: return "degraded";
        case State::Quarantined: return "quarantined";
        case State::Probation: return "probation";
    }
    return "?";
}

/// The state machine for one shard.  Purely host-side bookkeeping — the
/// caller (gas::serve) drives it from its own lock and is responsible for
/// counting the transitions the event methods report.
class Machine {
  public:
    Machine() = default;
    /// Reads probe_passes (K), probation_batches (M) and
    /// probation_base_weight; `enabled` is the server's concern.
    explicit Machine(const HealthConfig& cfg) : cfg_(cfg) {}

    [[nodiscard]] State state() const { return state_; }

    /// A transient fault (refused launch, aborted hang, detected corruption,
    /// failed verify) survived by retry.  Returns true when this demoted a
    /// Healthy shard to Degraded.
    bool on_transient_fault() {
        clean_streak_ = 0;
        if (state_ == State::Healthy) {
            state_ = State::Degraded;
            return true;
        }
        return false;
    }

    /// Retries exhausted (or probation failed): the shard is pulled from
    /// rotation.  Returns true when the state actually changed.
    bool on_quarantine() {
        clean_streak_ = 0;
        probe_streak_ = 0;
        probation_done_ = 0;
        if (state_ == State::Quarantined) return false;
        state_ = State::Quarantined;
        return true;
    }

    /// A seeded probe sort on the quarantined device verified clean.
    /// Returns true when this completed the K-streak and promoted the shard
    /// to Probation.
    bool on_probe_pass() {
        if (state_ != State::Quarantined) return false;
        if (++probe_streak_ < cfg_.probe_passes) return false;
        state_ = State::Probation;
        probe_streak_ = 0;
        probation_done_ = 0;
        return true;
    }

    void on_probe_fail() { probe_streak_ = 0; }

    /// A real batch completed verified-clean on this shard.  Returns true
    /// when this restored the shard to Healthy (from Probation after M
    /// batches, or from Degraded after kDegradedClearBatches).
    bool on_clean_batch() {
        if (state_ == State::Probation) {
            if (++probation_done_ < cfg_.probation_batches) return false;
            state_ = State::Healthy;
            probation_done_ = 0;
            return true;
        }
        if (state_ == State::Degraded) {
            if (++clean_streak_ < kDegradedClearBatches) return false;
            state_ = State::Healthy;
            clean_streak_ = 0;
            return true;
        }
        return false;
    }

    /// Least-loaded routing weight: 1.0 when Healthy, kDegradedWeight when
    /// Degraded, a linear ramp from probation_base_weight to 1.0 across the
    /// probation window, 0.0 when Quarantined (never routed anyway).
    [[nodiscard]] double route_weight() const {
        switch (state_) {
            case State::Healthy: return 1.0;
            case State::Degraded: return kDegradedWeight;
            case State::Quarantined: return 0.0;
            case State::Probation: {
                const double span = 1.0 - cfg_.probation_base_weight;
                const double frac =
                    cfg_.probation_batches == 0
                        ? 1.0
                        : static_cast<double>(probation_done_) /
                              static_cast<double>(cfg_.probation_batches);
                return cfg_.probation_base_weight + span * std::min(frac, 1.0);
            }
        }
        return 1.0;
    }

  private:
    HealthConfig cfg_;
    State state_ = State::Healthy;
    unsigned probe_streak_ = 0;     ///< consecutive probe passes while Quarantined
    unsigned probation_done_ = 0;   ///< clean batches served while in Probation
    unsigned clean_streak_ = 0;     ///< consecutive clean batches while Degraded
};

}  // namespace gas::health
