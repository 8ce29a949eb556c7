#include "imaging/integral.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace eecs::imaging {

namespace {

/// Horizontal prefix pass over rows [y0, y1): each table row y+1 gets its
/// row's running double sum. A prefix sum is one serial chain per row, so the
/// lanes run across ROWS — each lane owns one row's accumulator and the
/// per-row order is untouched (bit-identical to the serial loop at any lane
/// or thread blocking).
template <class D2>
void prefix_rows(const float* src, int width, std::size_t w1, double* table, std::size_t y0,
                 std::size_t y1) {
  std::size_t y = y0;
  for (; y + D2::kLanes <= y1; y += D2::kLanes) {
    D2 row_sum = D2::broadcast(0.0);
    const float* in = src + y * static_cast<std::size_t>(width);
    double* outs[D2::kLanes];
    for (int l = 0; l < D2::kLanes; ++l) {
      outs[l] = table + (y + static_cast<std::size_t>(l) + 1) * w1 + 1;
    }
    for (int x = 0; x < width; ++x) {
      row_sum = row_sum + D2::gather2f(in + x, static_cast<std::size_t>(width));
      double tmp[D2::kLanes];
      row_sum.store(tmp);
      for (int l = 0; l < D2::kLanes; ++l) outs[l][x] = tmp[l];
    }
  }
  for (; y < y1; ++y) {
    double row_sum = 0.0;
    const float* in = src + y * static_cast<std::size_t>(width);
    double* out = table + (y + 1) * w1 + 1;
    for (int x = 0; x < width; ++x) {
      row_sum += in[x];
      out[x] = row_sum;
    }
  }
}

/// Vertical accumulation over columns [x0, x1): table[y+1][x+1] +=
/// table[y][x+1] in increasing y. Columns are independent chains, so the
/// lanes run across columns (contiguous double loads/stores).
template <class D2>
void accumulate_columns(double* table, int height, std::size_t w1, std::size_t x0,
                        std::size_t x1) {
  for (int y = 1; y < height; ++y) {
    double* cur = table + static_cast<std::size_t>(y + 1) * w1 + 1;
    const double* prev = table + static_cast<std::size_t>(y) * w1 + 1;
    std::size_t x = x0;
    for (; x + D2::kLanes <= x1; x += D2::kLanes) {
      (D2::load(cur + x) + D2::load(prev + x)).store(cur + x);
    }
    for (; x < x1; ++x) cur[x] += prev[x];
  }
}

}  // namespace

IntegralImage::IntegralImage(const Image& img)
    : width_(img.width()),
      height_(img.height()),
      table_(static_cast<std::size_t>(width_ + 1) * static_cast<std::size_t>(height_ + 1), 0.0) {
  // Two passes, each parallel over an independent partition, reproducing the
  // serial recurrence table[y+1][x+1] = table[y][x+1] + row_sum bit for bit:
  // the horizontal prefix sums accumulate in x order per row, and the
  // vertical pass adds them in y order per column, so every table entry sees
  // the identical sequence of double additions as the single-threaded loop.
  const std::size_t w1 = static_cast<std::size_t>(width_ + 1);
  const float* src = img.plane(0).data();
  // Each task dispatches its own SIMD tier (common/simd.hpp).
  common::parallel_for(static_cast<std::size_t>(height_), 64, [&](std::size_t y0, std::size_t y1) {
    simd::dispatch([&](auto isa) {
      prefix_rows<typename decltype(isa)::F64>(src, width_, w1, table_.data(), y0, y1);
    });
  });
  common::parallel_for(static_cast<std::size_t>(width_), 64, [&](std::size_t x0, std::size_t x1) {
    simd::dispatch([&](auto isa) {
      accumulate_columns<typename decltype(isa)::F64>(table_.data(), height_, w1, x0, x1);
    });
  });
}

double IntegralImage::rect_sum(int x0, int y0, int x1, int y1) const {
  x0 = std::clamp(x0, 0, width_);
  x1 = std::clamp(x1, 0, width_);
  y0 = std::clamp(y0, 0, height_);
  y1 = std::clamp(y1, 0, height_);
  if (x1 <= x0 || y1 <= y0) return 0.0;
  return table_at(x1, y1) - table_at(x0, y1) - table_at(x1, y0) + table_at(x0, y0);
}

}  // namespace eecs::imaging
