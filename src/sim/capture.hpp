// Collision / capture model for overlapping GFSK frames.
//
// Paper §V-D, outcome (b): an injected frame that overlaps the legitimate one
// may still be demodulated intact "when the power of the injected signal is by
// far superior to the power of the legitimate signal … [or] depending on the
// phase difference between the injected and legitimate signals".
//
// We model exactly that: each byte that overlaps an interferer is corrupted
// with a probability driven by the signal-to-interference ratio (SIR) shifted
// by a per-frame "phase quality" lottery.  Above `mid_sir_db + a few dB` the
// capture effect wins (GFSK receivers track the stronger signal); far below,
// overlapped bytes are almost surely destroyed.
#pragma once

#include <cmath>
#include <limits>

namespace ble::sim {

struct CaptureParams {
    /// SIR (dB) at which an overlapped byte survives with probability 0.5
    /// (before the phase shift). Negative: GFSK capture tolerates moderately
    /// stronger interferers thanks to FM capture effect.
    double mid_sir_db = -12.0;
    /// Logistic slope (dB): smaller = sharper capture threshold.
    double slope_db = 5.0;
    /// Amplitude of the per-frame phase lottery, expressed as an equivalent
    /// SIR shift in dB. A lucky relative carrier phase can rescue a collision
    /// (paper §V-D); an unlucky one dooms it.
    double phase_spread_db = 3.0;
};

class CaptureModel {
public:
    /// A noise-only byte decision may skip the probability when the byte's
    /// uniform is at least this bound (see lazy_sir_floor_db).
    static constexpr double kLazyBound = 0x1.0p-10;

    explicit CaptureModel(CaptureParams params = {}) noexcept;

    /// Probability that a single byte overlapped by an interferer at the given
    /// SIR is corrupted. `phase_quality` in [0,1] is drawn once per
    /// frame/interferer pair and shifts the effective SIR by
    /// ±phase_spread_db.
    [[nodiscard]] double byte_corruption_prob(double sir_db,
                                              double phase_quality) const noexcept;

    /// The SIR (dB) from which byte_corruption_prob(sir, 0.5) ≤ kLazyBound:
    /// mid + slope·ln(2/kLazyBound) + 1 dB, kept only if the real function
    /// confirms it there (it falls with SIR); +inf when it does not, as
    /// for a non-positive slope, which disables the lazy path.
    [[nodiscard]] double lazy_sir_floor_db() const noexcept { return lazy_sir_floor_db_; }

    [[nodiscard]] const CaptureParams& params() const noexcept { return params_; }

private:
    CaptureParams params_;
    double lazy_sir_floor_db_;
};

/// The noise-only byte decisions of one delivery: `u < byte_corruption_prob(
/// sir_db, 0.5)` for each byte's uniform `u`.  The probability is evaluated
/// at most once, and above the lazy floor only when some `u` falls below
/// kLazyBound — every other `u` is at least the bound, hence at least the
/// probability, so the decision is the same without it.
class NoiseOnlyDecision {
public:
    NoiseOnlyDecision(const CaptureModel& model, double sir_db) noexcept
        : model_(model), sir_db_(sir_db), lazy_(sir_db >= model.lazy_sir_floor_db()) {}

    [[nodiscard]] bool corrupts(double u) noexcept {
        if (lazy_ && u >= CaptureModel::kLazyBound) return false;
        if (std::isnan(prob_)) prob_ = model_.byte_corruption_prob(sir_db_, 0.5);
        return u < prob_;
    }

private:
    const CaptureModel& model_;
    double sir_db_;
    bool lazy_;
    double prob_ = std::numeric_limits<double>::quiet_NaN();
};

}  // namespace ble::sim
