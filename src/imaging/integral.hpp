// Summed-area table over a single-channel image. The keypoint detector's
// box-filter Hessian reads its rows directly; rect_sum is the clamped,
// checked form of the same box sum.
#pragma once

#include <vector>

#include "imaging/image.hpp"

namespace eecs::imaging {

class IntegralImage {
 public:
  /// Builds from channel 0 of the given image.
  explicit IntegralImage(const Image& img);

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }

  /// Sum of pixels in [x0, x1) x [y0, y1); coordinates are clamped.
  [[nodiscard]] double rect_sum(int x0, int y0, int x1, int y1) const;

  /// Table row y in [0, height()]: width() + 1 doubles, entry x holding the
  /// sum over [0, x) x [0, y). Unchecked, for kernels that keep their
  /// rectangles inside the image.
  [[nodiscard]] const double* row(int y) const {
    return table_.data() + static_cast<std::size_t>(y) * static_cast<std::size_t>(width_ + 1);
  }

 private:
  [[nodiscard]] double table_at(int x, int y) const { return row(y)[x]; }

  int width_ = 0;
  int height_ = 0;
  std::vector<double> table_;  ///< (w+1) x (h+1), row-major, leading zeros.
};

}  // namespace eecs::imaging
