// SURF-like interest points (paper §V-A uses SURF key-points): blob detection
// via a box-filter determinant-of-Hessian on an integral image, plus 64-d
// gradient-statistics descriptors (4x4 subregions x [sum dx, sum dy, sum |dx|,
// sum |dy|]).
#pragma once

#include <vector>

#include "energy/cost.hpp"
#include "imaging/image.hpp"
#include "imaging/integral.hpp"

namespace eecs::features {

struct Keypoint {
  float x = 0.0f;
  float y = 0.0f;
  float scale = 1.0f;     ///< Filter scale the response peaked at.
  float response = 0.0f;  ///< Determinant-of-Hessian response.
};

inline constexpr int kDescriptorDim = 64;

struct KeypointParams {
  float response_threshold = 4e-4f;
  int max_keypoints = 300;      ///< Strongest responses kept.
  std::vector<int> scales{2, 4, 6};  ///< Box filter half-sizes (pixels).
};

/// Determinant-of-Hessian responses of box-filter half-size `s` (>= 1) on
/// the stride-2 lattice of `ii`'s image: (width/2) x (height/2) floats, row
/// major. Points whose filters would leave the image hold 0.
[[nodiscard]] std::vector<float> hessian_response_map(const imaging::IntegralImage& ii, int s);

/// Detect keypoints on the grayscale version of `img`: local maxima of the
/// response maps of params.scales.
[[nodiscard]] std::vector<Keypoint> detect_keypoints(const imaging::Image& img,
                                                     const KeypointParams& params = {},
                                                     energy::CostCounter* cost = nullptr);

/// 64-d descriptor of the patch around a keypoint (side = 10 * scale,
/// clamped to the image). Normalized to unit L2 norm.
[[nodiscard]] std::vector<float> describe_keypoint(const imaging::Image& img, const Keypoint& kp,
                                                   energy::CostCounter* cost = nullptr);

/// Convenience: detect and describe; returns one row per keypoint.
[[nodiscard]] std::vector<std::vector<float>> extract_descriptors(
    const imaging::Image& img, const KeypointParams& params = {},
    energy::CostCounter* cost = nullptr);

}  // namespace eecs::features
