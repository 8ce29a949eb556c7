#include "features/hog.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "imaging/filter.hpp"

namespace eecs::features {

namespace {

/// Computes the soft-assignment bin positions (pos = theta/bin_width - 0.5)
/// and their floors for `n` contiguous pixels. Elementwise — per-pixel
/// results are identical no matter how pixels are grouped into lanes, so the
/// whole image row vectorizes at full width (a per-cell 8-pixel run would
/// fall entirely into the scalar tail at 16 lanes) and the pack results are
/// stored to buffers instead of extracted lane by lane.
template <class F4>
void bin_row_positions(const float* theta, int n, float bin_width, float* pos, float* fl) {
  const F4 half = F4::broadcast(0.5f);
  const F4 bw = F4::broadcast(bin_width);
  int x = 0;
  for (; x + F4::kLanes <= n; x += F4::kLanes) {
    const F4 p = F4::load(theta + x) / bw - half;
    p.store(pos + x);
    F4::floor(p).store(fl + x);
  }
  for (; x < n; ++x) {
    pos[x] = theta[x] / bin_width - 0.5f;
    fl[x] = std::floor(pos[x]);
  }
}

/// Precomputes both scatter addends of every pixel in a row: a0 = m*(1-w1)
/// and a1 = m*w1 with w1 = pos - fl. Elementwise (each pixel's products are
/// the exact two the scalar scatter computed), so it lane-blocks at full
/// width and leaves only the bin-index wrap and the two order-sensitive
/// histogram adds in the scalar drain loop.
template <class F4>
void bin_row_addends(const float* mag, const float* pos, const float* fl, int n, float* a0,
                     float* a1) {
  const F4 one = F4::broadcast(1.0f);
  int x = 0;
  for (; x + F4::kLanes <= n; x += F4::kLanes) {
    const F4 m = F4::load(mag + x);
    const F4 w1 = F4::load(pos + x) - F4::load(fl + x);
    (m * (one - w1)).store(a0 + x);
    (m * w1).store(a1 + x);
  }
  for (; x < n; ++x) {
    const float w1 = pos[x] - fl[x];
    a0[x] = mag[x] * (1.0f - w1);
    a1[x] = mag[x] * w1;
  }
}

/// Scatters one pixel's precomputed addends into its two neighboring
/// orientation bins. Callers drain pixels of a cell in (dy, dx) order, so the
/// accumulation order into each histogram — and therefore every float sum —
/// matches the all-scalar loop bit for bit.
inline void bin_scatter(float m, float fl, float a0, float a1, int bins, std::span<float> hist) {
  if (m <= 0.0f) return;
  int b0 = static_cast<int>(fl);
  int b1 = b0 + 1;
  if (b0 < 0) b0 += bins;
  if (b1 >= bins) b1 -= bins;
  hist[static_cast<std::size_t>(b0)] += a0;
  hist[static_cast<std::size_t>(b1)] += a1;
}

}  // namespace

HogGrid::HogGrid(int cells_x, int cells_y, int bins)
    : cells_x_(cells_x),
      cells_y_(cells_y),
      bins_(bins),
      data_(static_cast<std::size_t>(cells_x) * static_cast<std::size_t>(cells_y) *
                static_cast<std::size_t>(bins),
            0.0f) {
  EECS_EXPECTS(cells_x >= 0 && cells_y >= 0 && bins >= 1);
}

std::span<float> HogGrid::cell(int cx, int cy) {
  EECS_EXPECTS(cx >= 0 && cx < cells_x_ && cy >= 0 && cy < cells_y_);
  return {data_.data() +
              (static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_x_) +
               static_cast<std::size_t>(cx)) *
                  static_cast<std::size_t>(bins_),
          static_cast<std::size_t>(bins_)};
}

std::span<const float> HogGrid::cell(int cx, int cy) const {
  EECS_EXPECTS(cx >= 0 && cx < cells_x_ && cy >= 0 && cy < cells_y_);
  return {data_.data() +
              (static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_x_) +
               static_cast<std::size_t>(cx)) *
                  static_cast<std::size_t>(bins_),
          static_cast<std::size_t>(bins_)};
}

HogGrid compute_hog_grid(const imaging::Image& img, const HogParams& params,
                         energy::CostCounter* cost) {
  EECS_EXPECTS(params.cell_size >= 2 && params.bins >= 2);
  imaging::Image gray_storage;
  const imaging::Image& gray = imaging::gray_view(img, gray_storage);
  const int cells_x = img.width() / params.cell_size;
  const int cells_y = img.height() / params.cell_size;
  HogGrid grid(cells_x, cells_y, params.bins);

  const float bin_width = std::numbers::pi_v<float> / static_cast<float>(params.bins);
  const int img_w = img.width();
  // Cell rows are independent (each cell bins only its own pixels into its
  // own histogram), so they partition across the pool bit-identically. Within
  // a cell the soft-assignment arithmetic is lane-blocked (see bin_cell_row);
  // each task dispatches its own SIMD tier (common/simd.hpp).
  common::parallel_for(
      static_cast<std::size_t>(cells_y), 8, [&](std::size_t cy0, std::size_t cy1) {
        simd::dispatch([&](auto isa) {
          using F4 = typename decltype(isa)::F32;
          // Gradients are streamed one pixel row at a time through an
          // L1-resident scratch (imaging::gradient_band) instead of whole
          // magnitude/orientation planes — per-pixel values are bit-identical
          // by that function's contract. Bin positions are then computed a
          // whole image row at a time (full lane width) and scattered per
          // cell. Interleaving dy across cells is fine: each cell's histogram
          // still receives its own pixels in (dy, dx) ascending order, the
          // same sequence the per-cell loop produced, so every bin sum is
          // bit-identical.
          const int row_px = cells_x * params.cell_size;
          const std::size_t band = static_cast<std::size_t>(params.cell_size);
          std::vector<float> mag(band * static_cast<std::size_t>(img_w));
          std::vector<float> ori(band * static_cast<std::size_t>(img_w));
          std::vector<float> pos(static_cast<std::size_t>(row_px));
          std::vector<float> fl(static_cast<std::size_t>(row_px));
          std::vector<float> a0(static_cast<std::size_t>(row_px));
          std::vector<float> a1(static_cast<std::size_t>(row_px));
          for (int cy = static_cast<int>(cy0); cy < static_cast<int>(cy1); ++cy) {
            const int y0 = cy * params.cell_size;
            imaging::gradient_band(gray, y0, y0 + params.cell_size, mag.data(), ori.data());
            for (int dy = 0; dy < params.cell_size; ++dy) {
              const std::size_t base =
                  static_cast<std::size_t>(dy) * static_cast<std::size_t>(img_w);
              bin_row_positions<F4>(ori.data() + base, row_px, bin_width, pos.data(), fl.data());
              bin_row_addends<F4>(mag.data() + base, pos.data(), fl.data(), row_px, a0.data(),
                                  a1.data());
              for (int cx = 0; cx < cells_x; ++cx) {
                auto hist = grid.cell(cx, cy);
                const int x0 = cx * params.cell_size;
                for (int dx = 0; dx < params.cell_size; ++dx) {
                  const std::size_t x = static_cast<std::size_t>(x0 + dx);
                  bin_scatter(mag[base + x], fl[x], a0[x], a1[x], params.bins, hist);
                }
              }
            }
          }
        });
      });
  if (cost != nullptr) {
    // Gradient pass + binning pass over every pixel.
    cost->add_pixels(2 * img.pixel_count());
    cost->add_features(static_cast<std::uint64_t>(cells_x) * static_cast<std::uint64_t>(cells_y) *
                       static_cast<std::uint64_t>(params.cell_size * params.cell_size));
  }
  return grid;
}

int window_descriptor_size(int window_cells_x, int window_cells_y, const HogParams& params) {
  const int blocks_x = window_cells_x - params.block_size + 1;
  const int blocks_y = window_cells_y - params.block_size + 1;
  return blocks_x * blocks_y * params.block_size * params.block_size * params.bins;
}

std::vector<float> window_descriptor(const HogGrid& grid, int cell_x0, int cell_y0,
                                     int window_cells_x, int window_cells_y,
                                     const HogParams& params, energy::CostCounter* cost) {
  EECS_EXPECTS(cell_x0 >= 0 && cell_y0 >= 0);
  EECS_EXPECTS(cell_x0 + window_cells_x <= grid.cells_x());
  EECS_EXPECTS(cell_y0 + window_cells_y <= grid.cells_y());

  std::vector<float> desc;
  desc.reserve(static_cast<std::size_t>(window_descriptor_size(window_cells_x, window_cells_y, params)));

  const int bs = params.block_size;
  std::vector<float> block(static_cast<std::size_t>(bs * bs * params.bins));
  for (int by = 0; by + bs <= window_cells_y; ++by) {
    for (int bx = 0; bx + bs <= window_cells_x; ++bx) {
      std::size_t k = 0;
      for (int cy = 0; cy < bs; ++cy) {
        for (int cx = 0; cx < bs; ++cx) {
          const auto cell = grid.cell(cell_x0 + bx + cx, cell_y0 + by + cy);
          for (float v : cell) block[k++] = v;
        }
      }
      // L2-hys: normalize, clip at 0.2, renormalize.
      auto l2norm = [](std::span<const float> v) {
        double s = 0.0;
        for (float x : v) s += static_cast<double>(x) * static_cast<double>(x);
        return static_cast<float>(std::sqrt(s) + 1e-6);
      };
      float n = l2norm(block);
      for (auto& v : block) v = std::min(v / n, 0.2f);
      n = l2norm(block);
      for (auto& v : block) v /= n;
      desc.insert(desc.end(), block.begin(), block.end());
    }
  }
  if (cost != nullptr) cost->add_features(desc.size() * 3);  // Gather + 2 normalization passes.
  return desc;
}

std::vector<float> global_descriptor(const imaging::Image& img, int pool_x, int pool_y,
                                     const HogParams& params, energy::CostCounter* cost) {
  EECS_EXPECTS(pool_x >= 1 && pool_y >= 1);
  const HogGrid grid = compute_hog_grid(img, params, cost);
  EECS_EXPECTS(grid.cells_x() >= pool_x && grid.cells_y() >= pool_y);

  std::vector<float> desc(static_cast<std::size_t>(pool_x * pool_y * params.bins), 0.0f);
  for (int cy = 0; cy < grid.cells_y(); ++cy) {
    const int py = std::min(cy * pool_y / grid.cells_y(), pool_y - 1);
    for (int cx = 0; cx < grid.cells_x(); ++cx) {
      const int px = std::min(cx * pool_x / grid.cells_x(), pool_x - 1);
      const auto cell = grid.cell(cx, cy);
      float* out = desc.data() + static_cast<std::size_t>((py * pool_x + px) * params.bins);
      for (int b = 0; b < params.bins; ++b) out[b] += cell[static_cast<std::size_t>(b)];
    }
  }
  double s = 0.0;
  for (float v : desc) s += static_cast<double>(v) * static_cast<double>(v);
  const float n = static_cast<float>(std::sqrt(s) + 1e-9);
  for (auto& v : desc) v /= n;
  if (cost != nullptr) cost->add_features(desc.size() * 2);
  return desc;
}

}  // namespace eecs::features
