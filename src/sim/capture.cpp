#include "sim/capture.hpp"

#include <algorithm>
#include <cmath>

namespace ble::sim {

CaptureModel::CaptureModel(CaptureParams params) noexcept
    : params_(params), lazy_sir_floor_db_(std::numeric_limits<double>::infinity()) {
    const double floor =
        params_.mid_sir_db + params_.slope_db * std::log(2.0 / kLazyBound) + 1.0;
    if (params_.slope_db > 0.0 && byte_corruption_prob(floor, 0.5) <= kLazyBound) {
        lazy_sir_floor_db_ = floor;
    }
}

double CaptureModel::byte_corruption_prob(double sir_db, double phase_quality) const noexcept {
    const double phase_shift = (std::clamp(phase_quality, 0.0, 1.0) - 0.5) * 2.0 *
                               params_.phase_spread_db;
    const double effective = sir_db + phase_shift;
    const double survival = 1.0 / (1.0 + std::exp(-(effective - params_.mid_sir_db) /
                                                  params_.slope_db));
    return 1.0 - survival;
}

}  // namespace ble::sim
