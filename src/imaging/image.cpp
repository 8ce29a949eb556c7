#include "imaging/image.hpp"

#include <algorithm>

#include "common/simd.hpp"

namespace eecs::imaging {

Image::Image(int width, int height, int channels, Uninit)
    : width_(width),
      height_(height),
      channels_(channels),
      size_(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) *
            static_cast<std::size_t>(channels)),
      data_(std::make_unique_for_overwrite<float[]>(size_)) {
  EECS_EXPECTS(width >= 0 && height >= 0);
  EECS_EXPECTS(channels == 1 || channels == 3);
}

Image::Image(int width, int height, int channels) : Image(width, height, channels, Uninit{}) {
  std::fill(data_.get(), data_.get() + size_, 0.0f);
}

Image Image::uninitialized(int width, int height, int channels) {
  return Image(width, height, channels, Uninit{});
}

Image::Image(const Image& other)
    : width_(other.width_),
      height_(other.height_),
      channels_(other.channels_),
      size_(other.size_),
      data_(std::make_unique_for_overwrite<float[]>(other.size_)) {
  std::copy(other.data_.get(), other.data_.get() + size_, data_.get());
}

Image& Image::operator=(const Image& other) {
  if (this != &other) {
    if (size_ != other.size_) data_ = std::make_unique_for_overwrite<float[]>(other.size_);
    width_ = other.width_;
    height_ = other.height_;
    channels_ = other.channels_;
    size_ = other.size_;
    std::copy(other.data_.get(), other.data_.get() + size_, data_.get());
  }
  return *this;
}

std::span<float> Image::plane(int c) {
  EECS_EXPECTS(c >= 0 && c < channels_);
  return {data_.get() + static_cast<std::size_t>(c) * pixel_count(), pixel_count()};
}

std::span<const float> Image::plane(int c) const {
  EECS_EXPECTS(c >= 0 && c < channels_);
  return {data_.get() + static_cast<std::size_t>(c) * pixel_count(), pixel_count()};
}

void Image::fill(float value) { std::fill(data_.get(), data_.get() + size_, value); }

void Image::fill_channel(int c, float value) {
  auto p = plane(c);
  std::fill(p.begin(), p.end(), value);
}

Image Image::crop(int x0, int y0, int w, int h) const {
  const int cx0 = std::clamp(x0, 0, width_);
  const int cy0 = std::clamp(y0, 0, height_);
  const int cx1 = std::clamp(x0 + w, cx0, width_);
  const int cy1 = std::clamp(y0 + h, cy0, height_);
  Image out = Image::uninitialized(cx1 - cx0, cy1 - cy0, channels_);
  const int ow = cx1 - cx0;
  for (int c = 0; c < channels_; ++c) {
    const float* src = plane(c).data();
    float* dst = out.plane(c).data();
    for (int y = cy0; y < cy1; ++y) {
      const float* row = src + static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                         static_cast<std::size_t>(cx0);
      std::copy(row, row + ow, dst);
      dst += ow;
    }
  }
  return out;
}

Image to_gray(const Image& img) {
  if (img.channels() == 1) return img;
  Image out = Image::uninitialized(img.width(), img.height(), 1);
  const auto r = img.plane(0);
  const auto g = img.plane(1);
  const auto b = img.plane(2);
  auto o = out.plane(0);
  // Lane-blocked over pixels: each output is its own (0.299r + 0.587g) +
  // 0.114b chain, identical to the scalar tail's expression.
  simd::dispatch([&](auto isa) {
    using F4 = typename decltype(isa)::F32;
    const F4 cr = F4::broadcast(0.299f);
    const F4 cg = F4::broadcast(0.587f);
    const F4 cb = F4::broadcast(0.114f);
    std::size_t i = 0;
    for (; i + F4::kLanes <= o.size(); i += F4::kLanes) {
      const F4 v = cr * F4::load(r.data() + i) + cg * F4::load(g.data() + i) +
                   cb * F4::load(b.data() + i);
      v.store(o.data() + i);
    }
    for (; i < o.size(); ++i) {
      o[i] = 0.299f * r[i] + 0.587f * g[i] + 0.114f * b[i];
    }
  });
  return out;
}

const Image& gray_view(const Image& img, Image& storage) {
  if (img.channels() == 1) return img;
  storage = to_gray(img);
  return storage;
}

float channel_mean(const Image& img, int c) {
  EECS_EXPECTS(!img.empty());
  const auto p = img.plane(c);
  double s = 0.0;
  for (float v : p) s += v;
  return static_cast<float>(s / static_cast<double>(p.size()));
}

}  // namespace eecs::imaging
