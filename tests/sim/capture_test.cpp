#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/capture.hpp"

namespace ble::sim {
namespace {

TEST(CaptureModelTest, StrongSignalSurvives) {
    CaptureModel model;
    // +20 dB SIR: corruption negligible regardless of phase.
    EXPECT_LT(model.byte_corruption_prob(20.0, 0.0), 0.01);
    EXPECT_LT(model.byte_corruption_prob(20.0, 1.0), 0.01);
}

TEST(CaptureModelTest, BuriedSignalCorrupts) {
    CaptureModel model;
    EXPECT_GT(model.byte_corruption_prob(-40.0, 1.0), 0.98);
    EXPECT_GT(model.byte_corruption_prob(-30.0, 0.5), 0.95);
}

TEST(CaptureModelTest, MonotoneInSir) {
    CaptureModel model;
    double prev = 1.0;
    for (double sir = -30.0; sir <= 30.0; sir += 1.0) {
        const double p = model.byte_corruption_prob(sir, 0.5);
        EXPECT_LE(p, prev + 1e-12) << "at SIR " << sir;
        prev = p;
    }
}

TEST(CaptureModelTest, PhaseShiftsEffectiveSir) {
    CaptureModel model;
    // Neutral phase at the logistic midpoint -> 0.5.
    const double mid = model.params().mid_sir_db;
    EXPECT_NEAR(model.byte_corruption_prob(mid, 0.5), 0.5, 1e-9);
    // Good phase helps, bad phase hurts.
    EXPECT_LT(model.byte_corruption_prob(mid, 1.0), 0.5);
    EXPECT_GT(model.byte_corruption_prob(mid, 0.0), 0.5);
}

TEST(CaptureModelTest, PhaseSpreadMatchesParameter) {
    CaptureParams params;
    params.phase_spread_db = 4.0;
    CaptureModel model(params);
    // phase 1.0 == SIR shifted by +4 dB.
    EXPECT_NEAR(model.byte_corruption_prob(0.0, 1.0),
                model.byte_corruption_prob(4.0, 0.5), 1e-9);
    EXPECT_NEAR(model.byte_corruption_prob(0.0, 0.0),
                model.byte_corruption_prob(-4.0, 0.5), 1e-9);
}

TEST(CaptureModelTest, PhaseQualityClamped) {
    CaptureModel model;
    EXPECT_NEAR(model.byte_corruption_prob(0.0, 2.0),
                model.byte_corruption_prob(0.0, 1.0), 1e-9);
    EXPECT_NEAR(model.byte_corruption_prob(0.0, -1.0),
                model.byte_corruption_prob(0.0, 0.0), 1e-9);
}

/// Raw draws at and around the lazy bound, around `prob`, and far from both.
std::vector<std::uint64_t> straddling_draws(double prob) {
    constexpr std::uint64_t b = CaptureModel::kLazyDrawBound;
    constexpr std::uint64_t step = std::uint64_t{1} << 11;  // one to_unit step
    std::vector<std::uint64_t> draws = {0,        1,     step,  b / 4, b / 2,
                                        b - step, b - 1, b,     b + 1, b + step,
                                        2 * b,    std::uint64_t{1} << 63, ~std::uint64_t{0}};
    if (prob > 0.0 && prob < 1.0) {
        // The draw whose uniform is the largest not above `prob`.
        const std::uint64_t at = static_cast<std::uint64_t>(std::ldexp(prob, 53)) << 11;
        draws.insert(draws.end(), {at - step, at, at + step});
    }
    return draws;
}

/// Checks NoiseOnlyDecision against the eager `u < p` over an SIR grid,
/// with one decision object per delivery (its memo reused across bytes).
void expect_lazy_matches_eager(const CaptureModel& model) {
    int decisions = 0;
    for (double sir = -60.0; sir <= 120.0; sir += 0.125) {
        const double prob = model.byte_corruption_prob(sir, 0.5);
        const std::vector<std::uint64_t> draws = straddling_draws(prob);
        NoiseOnlyDecision per_delivery(model, sir);
        for (const std::uint64_t draw : draws) {
            const bool eager = Rng::to_unit(draw) < prob;
            NoiseOnlyDecision fresh(model, sir);
            ASSERT_EQ(fresh.corrupts(draw), eager) << "SIR " << sir << " draw " << draw;
            ASSERT_EQ(per_delivery.corrupts(draw), eager) << "SIR " << sir << " draw " << draw;
            ++decisions;
        }
    }
    EXPECT_GT(decisions, 10'000);
}

TEST(NoiseOnlyDecisionTest, LazyFloorHoldsForDefaultParams) {
    const CaptureModel model;
    const CaptureParams& p = model.params();
    const double floor = model.lazy_sir_floor_db();
    const double ln_2_over_bound = std::log(2.0 / CaptureModel::kLazyBound);
    EXPECT_DOUBLE_EQ(floor, p.mid_sir_db + p.slope_db * ln_2_over_bound + 1.0);
    EXPECT_LE(model.byte_corruption_prob(floor, 0.5), CaptureModel::kLazyBound);
    // Below the floor the bound does not hold everywhere, so it is not used.
    EXPECT_GT(model.byte_corruption_prob(floor - 20.0, 0.5), CaptureModel::kLazyBound);
}

TEST(NoiseOnlyDecisionTest, LazyDecisionEqualsEagerDecision) {
    expect_lazy_matches_eager(CaptureModel{});
    CaptureParams sharp;
    sharp.mid_sir_db = 3.0;
    sharp.slope_db = 0.5;
    expect_lazy_matches_eager(CaptureModel(sharp));
}

TEST(NoiseOnlyDecisionTest, ExtremeParamsFallBackToEager) {
    // A rising logistic (negative slope), a NaN midpoint and an infinite
    // phase spread all fail the construction-time check: no lazy floor.
    CaptureParams rising;
    rising.slope_db = -5.0;
    CaptureParams nan_mid;
    nan_mid.mid_sir_db = std::nan("");
    CaptureParams wild_phase;
    wild_phase.phase_spread_db = std::numeric_limits<double>::infinity();
    for (const CaptureParams& params : {rising, nan_mid, wild_phase}) {
        const CaptureModel model(params);
        EXPECT_EQ(model.lazy_sir_floor_db(), std::numeric_limits<double>::infinity());
        expect_lazy_matches_eager(model);
    }
}

}  // namespace
}  // namespace ble::sim
