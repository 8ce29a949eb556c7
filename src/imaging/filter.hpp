// Separable filters, gradients, and image pyramids.
#pragma once

#include <vector>

#include "imaging/image.hpp"

namespace eecs::imaging {

/// Separable Gaussian blur; kernel radius derived from sigma (3*sigma).
[[nodiscard]] Image gaussian_blur(const Image& img, float sigma);

struct Gradients {
  Image magnitude;    ///< Single channel.
  Image orientation;  ///< Single channel, radians in [0, pi) (unsigned).
};

/// Central-difference gradients of a grayscale image (converts if needed).
[[nodiscard]] Gradients compute_gradients(const Image& img);

/// Magnitude + orientation of pixel rows [y0, y1) of a single-channel image,
/// written row-major into caller buffers of width gray.width(). One fused
/// pass per row; every per-pixel value is bit-identical to the same rows of
/// compute_gradients(). Lets band-oriented consumers (the HOG cell binning
/// tile sweep) stream gradients through an L1-resident scratch instead of
/// materializing whole planes.
void gradient_band(const Image& gray, int y0, int y1, float* mag, float* ori);

/// Bilinear resize to the exact target size.
[[nodiscard]] Image resize(const Image& img, int new_width, int new_height);

}  // namespace eecs::imaging
