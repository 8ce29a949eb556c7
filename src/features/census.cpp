#include "features/census.hpp"

#include "common/simd.hpp"

namespace eecs::features {

namespace {

/// Census codes of one row. The 8 neighbor comparisons of a pixel are
/// independent single-float compares, so the lanes run across 4 adjacent
/// output pixels: each comparison becomes a masked bit per lane, OR-folded in
/// the same LSB-first neighbor order as the scalar edge code. Pure integer
/// masking after the compares — trivially bit-exact in every backend.
template <class F4>
void census_row(const float* row, const float* up, const float* dn, int w, float threshold,
                std::uint8_t* out) {
  using Mask = typename F4::Mask;
  const auto scalar_code = [&](int x) {
    const int xl = x > 0 ? x - 1 : 0;
    const int xr = x + 1 < w ? x + 1 : w - 1;
    const float t = row[x] + threshold;
    unsigned code = (up[xl] > t) ? 1u : 0u;
    code |= (up[x] > t) ? 2u : 0u;
    code |= (up[xr] > t) ? 4u : 0u;
    code |= (row[xl] > t) ? 8u : 0u;
    code |= (row[xr] > t) ? 16u : 0u;
    code |= (dn[xl] > t) ? 32u : 0u;
    code |= (dn[x] > t) ? 64u : 0u;
    code |= (dn[xr] > t) ? 128u : 0u;
    out[x] = static_cast<std::uint8_t>(code);
  };
  if (w == 0) return;
  scalar_code(0);
  int x = 1;
  const F4 thr = F4::broadcast(threshold);
  for (; x + F4::kLanes <= w - 1; x += F4::kLanes) {
    const F4 t = F4::load(row + x) + thr;
    const auto bit = [&](const float* p, std::uint32_t b) {
      return F4::gt(F4::load(p), t) & Mask::broadcast(b);
    };
    const Mask code = bit(up + x - 1, 1u) | bit(up + x, 2u) | bit(up + x + 1, 4u) |
                      bit(row + x - 1, 8u) | bit(row + x + 1, 16u) | bit(dn + x - 1, 32u) |
                      bit(dn + x, 64u) | bit(dn + x + 1, 128u);
    for (int j = 0; j < F4::kLanes; ++j) {
      out[x + j] = static_cast<std::uint8_t>(code.extract(j));
    }
  }
  for (; x < w; ++x) scalar_code(x);
}

}  // namespace

std::vector<std::uint8_t> census_transform(const imaging::Image& img, energy::CostCounter* cost,
                                           float threshold) {
  const imaging::Image gray = imaging::to_gray(img);
  std::vector<std::uint8_t> codes(gray.pixel_count(), 0);
  const int w = gray.width();
  const int h = gray.height();
  // Neighbor bit layout, LSB first: (-1,-1) (0,-1) (1,-1) (-1,0) (1,0)
  // (-1,1) (0,1) (1,1) — same fixed order as the offset-table form this
  // replaces; each comparison is independent, with edge pixels clamped.
  const float* src = gray.plane(0).data();
  simd::dispatch([&](auto isa) {
    using F4 = typename decltype(isa)::F32;
    for (int y = 0; y < h; ++y) {
      const float* row = src + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
      const float* up =
          src + static_cast<std::size_t>(y > 0 ? y - 1 : 0) * static_cast<std::size_t>(w);
      const float* dn =
          src + static_cast<std::size_t>(y + 1 < h ? y + 1 : h - 1) * static_cast<std::size_t>(w);
      std::uint8_t* out = codes.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
      census_row<F4>(row, up, dn, w, threshold, out);
    }
  });
  if (cost != nullptr) cost->add_pixels(gray.pixel_count() * 8);
  return codes;
}

}  // namespace eecs::features
