// Census transform (CENTRIST-style) features used by the C4 detector
// (paper's [6]: "real-time human detection using contour cues"). Each pixel
// is encoded by an 8-bit signature comparing it to its 8 neighbors; windows
// are described by histograms of these signatures, which capture local
// contour structure.
#pragma once

#include <vector>

#include "energy/cost.hpp"
#include "imaging/image.hpp"

namespace eecs::features {

/// Default comparison margin of the modified census transform.
inline constexpr float kCensusThreshold = 0.045f;

/// Per-pixel 8-bit census codes of the grayscale image (borders clamped).
/// A bit is set only when the neighbor exceeds the center by `threshold`
/// (modified census transform) so flat, noise-dominated regions collapse to
/// a stable code instead of random bits.
[[nodiscard]] std::vector<std::uint8_t> census_transform(const imaging::Image& img,
                                                         energy::CostCounter* cost = nullptr,
                                                         float threshold = kCensusThreshold);

}  // namespace eecs::features
