#include "features/keypoints.hpp"

#include <algorithm>
#include <cmath>

#include "common/simd.hpp"

namespace eecs::features {

namespace {

// Response maps are sampled on a stride-2 lattice for speed. The row
// kernel's even-lane loads assume this stride.
constexpr int kStride = 2;

/// Determinant-of-Hessian response of scale s at lattice x-position(s) x of
/// the row whose table rows are rows[0..6] = y + {-3s/2, -s, -s/2, 0, s/2,
/// s, 3s/2}. D is an F64 pack with lanes across adjacent lattice points
/// (kStride table columns apart, hence the even-lane loads). Each lane runs
/// the scalar chain exactly: rect_sum's ((T11 - T01) - T10) + T00 per box,
/// then the [-1 2 -1] and quadrant combinations, the divisions by the filter
/// area and the determinant, in that order. The caller keeps every box
/// inside the image, so rect_sum's clamps never fire. kEmptyMiddle is s = 1,
/// where the middle boxes are empty: rect_sum returns +0.0 for them without
/// reading the table, and the four reads of an empty box need not cancel.
template <class D, bool kEmptyMiddle>
D hessian_det(const double* const* rows, int x, int s) {
  const int half = s / 2;
  const int outer = 3 * s / 2;
  const auto box = [&](int top_row, int bottom_row, int x0, int x1) {
    const double* t = rows[top_row] + x;
    const double* b = rows[bottom_row] + x;
    return ((D::load_even(b + x1) - D::load_even(b + x0)) - D::load_even(t + x1)) +
           D::load_even(t + x0);
  };
  const D two = D::broadcast(2.0);
  D mid = D::broadcast(0.0);
  D vmid = D::broadcast(0.0);
  if constexpr (!kEmptyMiddle) {
    mid = box(1, 5, -half, half);
    vmid = box(2, 4, -s, s);
  }
  // Dxx: [-1 2 -1] pattern of three vertical s x 2s boxes.
  const D left = box(1, 5, -outer, -half);
  const D right = box(1, 5, half, outer);
  const D dxx = mid * two - left - right;
  // Dyy: the same pattern of three horizontal 2s x s boxes.
  const D top = box(0, 2, -s, s);
  const D bottom = box(4, 6, -s, s);
  const D dyy = vmid * two - top - bottom;
  // Dxy: four diagonal quadrant boxes.
  const D q1 = box(1, 3, -s, 0);
  const D q2 = box(1, 3, 0, s);
  const D q3 = box(3, 5, -s, 0);
  const D q4 = box(3, 5, 0, s);
  const D dxy = (q1 + q4) - (q2 + q3);
  // Normalize by filter area so responses are scale-comparable.
  const D area = D::broadcast(static_cast<double>(s) * static_cast<double>(s));
  const D nxx = dxx / area;
  const D nyy = dyy / area;
  const D nxy = dxy / area;
  return nxx * nyy - D::broadcast(0.81) * nxy * nxy;
}

/// Lattice points [gx0, gx1) of the row at pixel y, kLanes at a time, then a
/// scalar tail (the 1-lane emulation pack runs the same chain).
template <class D, bool kEmptyMiddle>
void response_row(const imaging::IntegralImage& ii, int s, int y, int gx0, int gx1, float* out) {
  const int half = s / 2;
  const int outer = 3 * s / 2;
  const double* const rows[7] = {ii.row(y - outer), ii.row(y - s), ii.row(y - half), ii.row(y),
                                 ii.row(y + half), ii.row(y + s), ii.row(y + outer)};
  int gx = gx0;
  for (; gx + D::kLanes <= gx1; gx += D::kLanes) {
    double det[D::kLanes];
    hessian_det<D, kEmptyMiddle>(rows, gx * kStride, s).store(det);
    for (int l = 0; l < D::kLanes; ++l) out[gx + l] = static_cast<float>(det[l]);
  }
  for (; gx < gx1; ++gx) {
    const auto det = hessian_det<simd::F64xEmul<1>, kEmptyMiddle>(rows, gx * kStride, s);
    out[gx] = static_cast<float>(det.extract(0));
  }
}

}  // namespace

std::vector<float> hessian_response_map(const imaging::IntegralImage& ii, int s) {
  EECS_EXPECTS(s >= 1);
  const int gw = ii.width() / kStride;
  const int gh = ii.height() / kStride;
  std::vector<float> map(static_cast<std::size_t>(gw) * static_cast<std::size_t>(gh), 0.0f);
  // Interior lattice points, 2s <= g * kStride < extent - 2s: their widest
  // boxes reach 3s/2 <= 2s from the point, so every table read stays inside
  // the table, including the even-lane load's one double past its last lane
  // (column x + 3s/2 + 1 <= width). The border keeps 0.
  const auto end = [&](int extent, int cells) {
    return std::max(s, std::min(cells, (extent - 2 * s + kStride - 1) / kStride));
  };
  const int gx1 = end(ii.width(), gw);
  const int gy1 = end(ii.height(), gh);
  // s = 1 gets its own instance rather than a choice between packs inside
  // the kernel: GCC 12 at -O3 turns such a choice into an AVX-512 masked
  // operation whose mask is the condition's 0/1, so only lane 0 gets it.
  simd::dispatch([&](auto isa) {
    using D = typename decltype(isa)::F64;
    for (int gy = s; gy < gy1; ++gy) {
      float* out = map.data() + static_cast<std::size_t>(gy) * static_cast<std::size_t>(gw);
      if (s == 1) {
        response_row<D, true>(ii, s, gy * kStride, s, gx1, out);
      } else {
        response_row<D, false>(ii, s, gy * kStride, s, gx1, out);
      }
    }
  });
  return map;
}

std::vector<Keypoint> detect_keypoints(const imaging::Image& img, const KeypointParams& params,
                                       energy::CostCounter* cost) {
  EECS_EXPECTS(!params.scales.empty());
  imaging::Image gray_storage;
  const imaging::Image& gray = imaging::gray_view(img, gray_storage);
  const imaging::IntegralImage ii(gray);
  const int gw = gray.width() / kStride;
  const int gh = gray.height() / kStride;

  std::vector<std::vector<float>> responses;
  responses.reserve(params.scales.size());
  for (int s : params.scales) responses.push_back(hessian_response_map(ii, s));
  if (cost != nullptr) {
    cost->add_pixels(gray.pixel_count());  // Integral image pass.
    // The op model: 8 box sums per lattice point and scale, border points
    // included. The filters take 10 per interior point and none at the
    // border; correcting the model would move the energy goldens.
    cost->add_features(static_cast<std::uint64_t>(gw) * static_cast<std::uint64_t>(gh) *
                       params.scales.size() * 8);
  }

  // Local maxima (3x3 neighborhood on the lattice, per scale) above threshold.
  std::vector<Keypoint> keypoints;
  for (std::size_t si = 0; si < params.scales.size(); ++si) {
    const auto& map = responses[si];
    auto at = [&](int gx, int gy) {
      return map[static_cast<std::size_t>(gy) * static_cast<std::size_t>(gw) + static_cast<std::size_t>(gx)];
    };
    for (int gy = 1; gy < gh - 1; ++gy) {
      for (int gx = 1; gx < gw - 1; ++gx) {
        const float v = at(gx, gy);
        if (v < params.response_threshold) continue;
        bool is_max = true;
        for (int dy = -1; dy <= 1 && is_max; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) continue;
            if (at(gx + dx, gy + dy) > v) {
              is_max = false;
              break;
            }
          }
        }
        if (is_max) {
          keypoints.push_back({static_cast<float>(gx * kStride), static_cast<float>(gy * kStride),
                               static_cast<float>(params.scales[si]), v});
        }
      }
    }
  }

  // Keep the strongest.
  std::sort(keypoints.begin(), keypoints.end(),
            [](const Keypoint& a, const Keypoint& b) { return a.response > b.response; });
  if (static_cast<int>(keypoints.size()) > params.max_keypoints) {
    keypoints.resize(static_cast<std::size_t>(params.max_keypoints));
  }
  return keypoints;
}

std::vector<float> describe_keypoint(const imaging::Image& img, const Keypoint& kp,
                                     energy::CostCounter* cost) {
  imaging::Image gray_storage;
  const imaging::Image& gray = imaging::gray_view(img, gray_storage);
  const int half = std::max(5, static_cast<int>(5.0f * kp.scale));
  const int x0 = static_cast<int>(kp.x) - half;
  const int y0 = static_cast<int>(kp.y) - half;
  const int side = 2 * half;
  const int sub = side / 4;  // 4x4 subregions.

  std::vector<float> desc(kDescriptorDim, 0.0f);
  for (int sy = 0; sy < 4; ++sy) {
    for (int sx = 0; sx < 4; ++sx) {
      float sum_dx = 0, sum_dy = 0, sum_adx = 0, sum_ady = 0;
      for (int dy = 0; dy < sub; ++dy) {
        for (int dx = 0; dx < sub; ++dx) {
          const int x = x0 + sx * sub + dx;
          const int y = y0 + sy * sub + dy;
          const float gx = gray.at_clamped(x + 1, y) - gray.at_clamped(x - 1, y);
          const float gy = gray.at_clamped(x, y + 1) - gray.at_clamped(x, y - 1);
          sum_dx += gx;
          sum_dy += gy;
          sum_adx += std::abs(gx);
          sum_ady += std::abs(gy);
        }
      }
      const std::size_t base = static_cast<std::size_t>((sy * 4 + sx) * 4);
      desc[base] = sum_dx;
      desc[base + 1] = sum_dy;
      desc[base + 2] = sum_adx;
      desc[base + 3] = sum_ady;
    }
  }
  double s = 0.0;
  for (float v : desc) s += static_cast<double>(v) * static_cast<double>(v);
  const float n = static_cast<float>(std::sqrt(s) + 1e-9);
  for (auto& v : desc) v /= n;
  if (cost != nullptr) cost->add_features(static_cast<std::uint64_t>(side) * static_cast<std::uint64_t>(side) * 4);
  return desc;
}

std::vector<std::vector<float>> extract_descriptors(const imaging::Image& img,
                                                    const KeypointParams& params,
                                                    energy::CostCounter* cost) {
  imaging::Image gray_storage;
  const imaging::Image& gray = imaging::gray_view(img, gray_storage);
  const std::vector<Keypoint> kps = detect_keypoints(gray, params, cost);
  std::vector<std::vector<float>> descriptors;
  descriptors.reserve(kps.size());
  for (const Keypoint& kp : kps) descriptors.push_back(describe_keypoint(gray, kp, cost));
  return descriptors;
}

}  // namespace eecs::features
