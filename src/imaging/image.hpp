// Planar float image (1 or 3 channels, values nominally in [0, 1]). Planar
// storage keeps per-channel passes (gradients, channel pooling) cache-friendly.
#pragma once

#include <memory>
#include <span>

#include "common/contracts.hpp"

namespace eecs::imaging {

class Image {
 public:
  Image() = default;

  /// Black image of the given size. channels must be 1 or 3.
  Image(int width, int height, int channels);

  /// Same shape, but the pixel storage is left uninitialized. Only for
  /// producers that provably write every element before the image escapes
  /// (resize, to_gray, gradients, crop, ...): the zero-fill of the ordinary
  /// constructor is a full memory pass over buffers those kernels immediately
  /// overwrite, and on the pyramid-heavy detector paths that pass was pure
  /// overhead.
  [[nodiscard]] static Image uninitialized(int width, int height, int channels);

  Image(const Image& other);
  Image& operator=(const Image& other);
  Image(Image&&) noexcept = default;
  Image& operator=(Image&&) noexcept = default;
  ~Image() = default;

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] int channels() const { return channels_; }
  [[nodiscard]] bool empty() const { return width_ == 0 || height_ == 0; }
  [[nodiscard]] std::size_t pixel_count() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }

  [[nodiscard]] float& at(int x, int y, int c = 0) {
    EECS_EXPECTS(x >= 0 && x < width_ && y >= 0 && y < height_ && c >= 0 && c < channels_);
    return data_[index(x, y, c)];
  }
  [[nodiscard]] float at(int x, int y, int c = 0) const {
    EECS_EXPECTS(x >= 0 && x < width_ && y >= 0 && y < height_ && c >= 0 && c < channels_);
    return data_[index(x, y, c)];
  }

  /// Clamped access: coordinates outside the image read the nearest edge.
  /// Inline: this sits on per-pixel hot paths (resize, gradients, census).
  [[nodiscard]] float at_clamped(int x, int y, int c = 0) const {
    const int cx = x < 0 ? 0 : (x >= width_ ? width_ - 1 : x);
    const int cy = y < 0 ? 0 : (y >= height_ ? height_ - 1 : y);
    return data_[index(cx, cy, c)];
  }

  /// One full channel plane.
  [[nodiscard]] std::span<float> plane(int c);
  [[nodiscard]] std::span<const float> plane(int c) const;

  void fill(float value);
  void fill_channel(int c, float value);

  /// Crop to the integer rectangle [x0, x0+w) x [y0, y0+h), clamped to bounds.
  [[nodiscard]] Image crop(int x0, int y0, int w, int h) const;

  [[nodiscard]] std::span<const float> data() const { return {data_.get(), size_}; }
  [[nodiscard]] std::span<float> data() { return {data_.get(), size_}; }

 private:
  struct Uninit {};
  Image(int width, int height, int channels, Uninit);

  [[nodiscard]] std::size_t index(int x, int y, int c) const {
    return static_cast<std::size_t>(c) * pixel_count() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
  std::size_t size_ = 0;
  std::unique_ptr<float[]> data_;
};

/// Luma conversion (Rec. 601 weights); identity for single-channel input.
[[nodiscard]] Image to_gray(const Image& img);

/// The grey image of `img` without to_gray's copy of an image that is
/// already grey: `img` itself when single-channel, else to_gray(img) held in
/// `storage`.
[[nodiscard]] const Image& gray_view(const Image& img, Image& storage);

/// Mean of all pixels in a channel.
[[nodiscard]] float channel_mean(const Image& img, int c);

}  // namespace eecs::imaging
