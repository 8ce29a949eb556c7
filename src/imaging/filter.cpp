#include "imaging/filter.hpp"

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "common/atan2.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace eecs::imaging {

namespace {

/// Row-partition grain: pixel rows are cheap, so only images tall enough to
/// amortize task handoff are split. Each (channel, row) writes its own output
/// row — bit-identical at any thread count.
constexpr std::size_t kRowGrain = 48;

/// Parallel loop over every (channel, row) pair of a `channels` x `height`
/// plane set. The body runs out of line, so a kernel dispatches its SIMD tier
/// inside it (common/simd.hpp).
void parallel_rows(int channels, int height, const std::function<void(int, int)>& body) {
  common::parallel_for(static_cast<std::size_t>(channels) * static_cast<std::size_t>(height),
                       kRowGrain, [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           body(static_cast<int>(i / static_cast<std::size_t>(height)),
                                static_cast<int>(i % static_cast<std::size_t>(height)));
                         }
                       });
}

// The filter/resize/gradient kernels below are lane-blocked over OUTPUT
// pixels: each lane owns one output element and accumulates its own chain in
// the same term order as the scalar loop, so the native and emulated pack
// instantiations (and the scalar edge/tail code) are bit-identical by
// construction. See common/simd.hpp and DESIGN.md "SIMD & portability".

/// Horizontal tap pass of one row: dst[x] = sum_k kernel[k] * row[clamp(x+k)].
template <class F4>
void filter_row_horizontal(const float* row, int w, std::span<const float> kernel, int radius,
                           float* dst) {
  const int taps = static_cast<int>(kernel.size());
  const auto clamped = [&](int x) { return row[x < 0 ? 0 : (x >= w ? w - 1 : x)]; };
  const int lo = std::min(radius, w);
  const int hi = std::max(lo, w - radius);
  int x = 0;
  for (; x < lo; ++x) {
    float s = 0.0f;
    for (int k = 0; k < taps; ++k) s += kernel[static_cast<std::size_t>(k)] * clamped(x + k - radius);
    dst[x] = s;
  }
  for (; x + F4::kLanes <= hi; x += F4::kLanes) {
    F4 acc = F4::broadcast(0.0f);
    const float* base = row + x - radius;
    for (int k = 0; k < taps; ++k) {
      acc = acc + F4::broadcast(kernel[static_cast<std::size_t>(k)]) * F4::load(base + k);
    }
    acc.store(dst + x);
  }
  for (; x < w; ++x) {
    float s = 0.0f;
    for (int k = 0; k < taps; ++k) s += kernel[static_cast<std::size_t>(k)] * clamped(x + k - radius);
    dst[x] = s;
  }
}

/// Vertical tap pass of one output row: dst[x] = sum_k kernel[k] * rows[k][x],
/// where rows[k] is the clamped source row y + k - radius.
template <class F4>
void filter_row_vertical(const float* const* rows, int w, std::span<const float> kernel,
                         float* dst) {
  const int taps = static_cast<int>(kernel.size());
  int x = 0;
  for (; x + F4::kLanes <= w; x += F4::kLanes) {
    F4 acc = F4::broadcast(0.0f);
    for (int k = 0; k < taps; ++k) {
      acc = acc + F4::broadcast(kernel[static_cast<std::size_t>(k)]) * F4::load(rows[k] + x);
    }
    acc.store(dst + x);
  }
  for (; x < w; ++x) {
    float s = 0.0f;
    for (int k = 0; k < taps; ++k) s += kernel[static_cast<std::size_t>(k)] * rows[k][x];
    dst[x] = s;
  }
}

/// Horizontal then vertical pass with an arbitrary normalized kernel.
Image separable_filter(const Image& img, std::span<const float> kernel) {
  const int radius = static_cast<int>(kernel.size()) / 2;
  const int w = img.width();
  const int h = img.height();
  Image tmp = Image::uninitialized(w, h, img.channels());
  Image out = Image::uninitialized(w, h, img.channels());
  parallel_rows(img.channels(), h, [&](int c, int y) {
    const float* row =
        img.plane(c).data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    float* dst = tmp.plane(c).data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    simd::dispatch([&](auto isa) {
      filter_row_horizontal<typename decltype(isa)::F32>(row, w, kernel, radius, dst);
    });
  });
  parallel_rows(img.channels(), h, [&](int c, int y) {
    const float* src = tmp.plane(c).data();
    std::vector<const float*> rows(kernel.size());
    for (int k = 0; k < static_cast<int>(kernel.size()); ++k) {
      const int yy = std::clamp(y + k - radius, 0, h - 1);
      rows[static_cast<std::size_t>(k)] =
          src + static_cast<std::size_t>(yy) * static_cast<std::size_t>(w);
    }
    float* dst = out.plane(c).data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    simd::dispatch([&](auto isa) {
      filter_row_vertical<typename decltype(isa)::F32>(rows.data(), w, kernel, dst);
    });
  });
  return out;
}

/// Magnitude and orientation of one row in a single fused pass: the gx/gy
/// subtractions are computed once and feed both the sqrt chain and the
/// vendored fdlibm atan2f (bit-exact with the libm values the goldens were
/// recorded against, see common/atan2.hpp), folded into [0, pi) with mask
/// blends. Per-pixel values are identical to running the two passes
/// separately — only the duplicate loads/subtractions are gone.
template <class F4>
void gradient_row_fused(const float* row, const float* up, const float* dn, int w, float* mrow,
                        float* orow) {
  constexpr float kPi = std::numbers::pi_v<float>;
  const auto scalar_px = [&](int x) {
    const int xl = x > 0 ? x - 1 : 0;
    const int xr = x + 1 < w ? x + 1 : w - 1;
    const float gx = row[xr] - row[xl];
    const float gy = dn[x] - up[x];
    mrow[x] = std::sqrt(gx * gx + gy * gy);
    float theta = simd::atan2f_portable(gy, gx);  // [-pi, pi]
    if (theta < 0.0f) theta += kPi;
    if (theta >= kPi) theta -= kPi;
    orow[x] = theta;
  };
  if (w == 0) return;
  scalar_px(0);
  const F4 pi = F4::broadcast(kPi);
  const F4 zero = F4::broadcast(0.0f);
  int x = 1;
  using U = typename F4::Mask;
  for (; x + F4::kLanes <= w - 1; x += F4::kLanes) {
    const F4 gx = F4::load(row + x + 1) - F4::load(row + x - 1);
    const F4 gy = F4::load(dn + x) - F4::load(up + x);
    // Flat-region fast path: when every lane has gx = gy = +0.0 (equal
    // neighbors subtract to +0 in round-to-nearest), sqrt(+0) is +0,
    // atan2f(+0, +0) is +0 and the [0, pi) fold keeps it — store zeros and
    // skip the polynomial. Bit-identical, and common in synthetic scenes
    // with flat backgrounds.
    if (!U::any(F4::to_bits(gx) | F4::to_bits(gy))) {
      zero.store(mrow + x);
      zero.store(orow + x);
      continue;
    }
    const F4 mag = F4::sqrt(gx * gx + gy * gy);
    mag.store(mrow + x);
    const F4 theta = simd::atan2f_pack<F4>(gy, gx);
    const F4 shifted = F4::select(F4::lt(theta, zero), theta + pi, theta);
    const F4 wrapped = F4::select(F4::ge(shifted, pi), shifted - pi, shifted);
    wrapped.store(orow + x);
  }
  for (; x < w; ++x) scalar_px(x);
}

/// One output row of the bilinear resize: lanes gather their own four source
/// corners (per-column indices precomputed by the caller) and evaluate the
/// identical ((t00 + t10) + t01) + t11 chain as the scalar tail.
template <class F4>
void resize_row(const float* r0, const float* r1, const int* col0, const int* col1,
                const float* colw, int new_width, float wy, float* dst) {
  const float one_m_wy = 1.0f - wy;
  const F4 wyv = F4::broadcast(wy);
  const F4 one_m_wyv = F4::broadcast(one_m_wy);
  const F4 onev = F4::broadcast(1.0f);
  int x = 0;
  for (; x + F4::kLanes <= new_width; x += F4::kLanes) {
    const F4 v00 = F4::gather(r0, col0 + x);
    const F4 v10 = F4::gather(r0, col1 + x);
    const F4 v01 = F4::gather(r1, col0 + x);
    const F4 v11 = F4::gather(r1, col1 + x);
    const F4 wx = F4::load(colw + x);
    const F4 one_m_wx = onev - wx;
    const F4 s = (one_m_wx * one_m_wyv) * v00 + (wx * one_m_wyv) * v10 + (one_m_wx * wyv) * v01 +
                 (wx * wyv) * v11;
    s.store(dst + x);
  }
  for (; x < new_width; ++x) {
    const float wx = colw[x];
    const std::size_t x0 = static_cast<std::size_t>(col0[x]);
    const std::size_t x1 = static_cast<std::size_t>(col1[x]);
    const float v00 = r0[x0];
    const float v10 = r0[x1];
    const float v01 = r1[x0];
    const float v11 = r1[x1];
    dst[x] = (1 - wx) * (1 - wy) * v00 + wx * (1 - wy) * v10 +
             (1 - wx) * wy * v01 + wx * wy * v11;
  }
}

}  // namespace

Image gaussian_blur(const Image& img, float sigma) {
  EECS_EXPECTS(sigma >= 0.0f);
  if (sigma <= 0.0f || img.empty()) return img;
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  float sum = 0.0f;
  for (int k = -radius; k <= radius; ++k) {
    const float v = std::exp(-0.5f * static_cast<float>(k) * static_cast<float>(k) / (sigma * sigma));
    kernel[static_cast<std::size_t>(k + radius)] = v;
    sum += v;
  }
  for (auto& v : kernel) v /= sum;
  return separable_filter(img, kernel);
}

Gradients compute_gradients(const Image& img) {
  const Image gray = to_gray(img);
  Gradients g{Image::uninitialized(gray.width(), gray.height(), 1),
              Image::uninitialized(gray.width(), gray.height(), 1)};
  const int w = gray.width();
  const int h = gray.height();
  const float* src = gray.plane(0).data();
  float* mag = g.magnitude.plane(0).data();
  float* ori = g.orientation.plane(0).data();
  parallel_rows(1, h, [&](int, int y) {
    const float* row = src + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    const float* up =
        src + static_cast<std::size_t>(y > 0 ? y - 1 : 0) * static_cast<std::size_t>(w);
    const float* dn =
        src + static_cast<std::size_t>(y + 1 < h ? y + 1 : h - 1) * static_cast<std::size_t>(w);
    float* mrow = mag + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    float* orow = ori + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    simd::dispatch([&](auto isa) {
      gradient_row_fused<typename decltype(isa)::F32>(row, up, dn, w, mrow, orow);
    });
  });
  return g;
}

void gradient_band(const Image& gray, int y0, int y1, float* mag, float* ori) {
  EECS_EXPECTS(gray.channels() == 1);
  EECS_EXPECTS(y0 >= 0 && y0 <= y1 && y1 <= gray.height());
  const int w = gray.width();
  const int h = gray.height();
  const float* src = gray.plane(0).data();
  simd::dispatch([&](auto isa) {
    using F4 = typename decltype(isa)::F32;
    for (int y = y0; y < y1; ++y) {
      const float* row = src + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
      const float* up =
          src + static_cast<std::size_t>(y > 0 ? y - 1 : 0) * static_cast<std::size_t>(w);
      const float* dn =
          src + static_cast<std::size_t>(y + 1 < h ? y + 1 : h - 1) * static_cast<std::size_t>(w);
      const std::size_t off = static_cast<std::size_t>(y - y0) * static_cast<std::size_t>(w);
      gradient_row_fused<F4>(row, up, dn, w, mag + off, ori + off);
    }
  });
}

Image resize(const Image& img, int new_width, int new_height) {
  EECS_EXPECTS(new_width >= 1 && new_height >= 1);
  EECS_EXPECTS(!img.empty());
  const float sx = static_cast<float>(img.width()) / static_cast<float>(new_width);
  const float sy = static_cast<float>(img.height()) / static_cast<float>(new_height);
  // The horizontal sample position is a pure function of the output column;
  // compute each column's source indices and blend weight once (the same
  // arithmetic the per-pixel form used, so the outputs are bit-identical)
  // instead of per (channel, row, column).
  std::vector<int> col0(static_cast<std::size_t>(new_width));
  std::vector<int> col1(static_cast<std::size_t>(new_width));
  std::vector<float> colw(static_cast<std::size_t>(new_width));
  const int xlim = img.width() - 1;
  for (int x = 0; x < new_width; ++x) {
    const float fx = (static_cast<float>(x) + 0.5f) * sx - 0.5f;
    const int x0 = static_cast<int>(std::floor(fx));
    colw[static_cast<std::size_t>(x)] = fx - static_cast<float>(x0);
    col0[static_cast<std::size_t>(x)] = std::clamp(x0, 0, xlim);
    col1[static_cast<std::size_t>(x)] = std::clamp(x0 + 1, 0, xlim);
  }
  Image out = Image::uninitialized(new_width, new_height, img.channels());
  const int ylim = img.height() - 1;
  parallel_rows(img.channels(), new_height, [&](int c, int y) {
    const float fy = (static_cast<float>(y) + 0.5f) * sy - 0.5f;
    const int y0 = static_cast<int>(std::floor(fy));
    const float wy = fy - static_cast<float>(y0);
    const float* src = img.plane(c).data();
    const float* r0 = src + static_cast<std::size_t>(std::clamp(y0, 0, ylim)) *
                                static_cast<std::size_t>(img.width());
    const float* r1 = src + static_cast<std::size_t>(std::clamp(y0 + 1, 0, ylim)) *
                                static_cast<std::size_t>(img.width());
    float* dst =
        out.plane(c).data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(new_width);
    simd::dispatch([&](auto isa) {
      resize_row<typename decltype(isa)::F32>(r0, r1, col0.data(), col1.data(), colw.data(),
                                              new_width, wy, dst);
    });
  });
  return out;
}

}  // namespace eecs::imaging
