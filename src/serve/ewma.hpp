#pragma once

namespace gas::serve {

/// Weight of the newest sample in every serve EWMA.
inline constexpr double kEwmaAlpha = 0.2;

/// One exponentially weighted moving-average step:
///     next = (1 - kEwmaAlpha) * prev + kEwmaAlpha * sample
/// Shared by the shard's queue-depth smoothing (DeviceBreakdown) and its
/// queued-elements load signal (Ewma below), so every smoothed metric in
/// the server blends the same way.
[[nodiscard]] constexpr double ewma_step(double prev, double sample) {
    return (1.0 - kEwmaAlpha) * prev + kEwmaAlpha * sample;
}

/// A self-priming EWMA: the first sample seeds the average directly (no
/// decay from an arbitrary zero), later samples blend with ewma_step.
struct Ewma {
    double value = 0.0;
    bool primed = false;

    void update(double sample) {
        value = primed ? ewma_step(value, sample) : sample;
        primed = true;
    }
};

}  // namespace gas::serve
