#pragma once

namespace gas::serve {

/// One exponentially weighted moving-average step:
///     next = (1 - alpha) * prev + alpha * sample
/// Shared by the shard's queue-depth smoothing (DeviceBreakdown) and its
/// queued-elements load signal (Ewma below), so every smoothed metric in
/// the server blends the same way.
[[nodiscard]] constexpr double ewma_step(double prev, double sample, double alpha) {
    return (1.0 - alpha) * prev + alpha * sample;
}

/// A self-priming EWMA: the first sample seeds the average directly (no
/// decay from an arbitrary zero), later samples blend with `alpha` weight
/// on the newest observation.
struct Ewma {
    double alpha = 0.2;
    double value = 0.0;
    bool primed = false;

    void update(double sample) {
        value = primed ? ewma_step(value, sample, alpha) : sample;
        primed = true;
    }
};

}  // namespace gas::serve
