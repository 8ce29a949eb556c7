#include <gtest/gtest.h>

#include <cmath>

#include "imaging/draw.hpp"
#include "imaging/filter.hpp"
#include "imaging/image.hpp"
#include "imaging/integral.hpp"
#include "imaging/jpeg_model.hpp"
#include "imaging/rect.hpp"

namespace eecs::imaging {
namespace {

TEST(Rect, BasicGeometry) {
  const Rect r{10, 20, 30, 40};
  EXPECT_EQ(r.right(), 40.0);
  EXPECT_EQ(r.bottom(), 60.0);
  EXPECT_EQ(r.area(), 1200.0);
  EXPECT_EQ(r.center_x(), 25.0);
  EXPECT_EQ(r.foot_y(), 60.0);
  EXPECT_TRUE(r.contains(15, 25));
  EXPECT_FALSE(r.contains(45, 25));
}

TEST(Rect, EmptyRectHasZeroArea) {
  EXPECT_EQ(Rect{}.area(), 0.0);
  EXPECT_EQ((Rect{0, 0, -5, 10}).area(), 0.0);
}

TEST(Rect, IntersectionOfOverlapping) {
  const Rect a{0, 0, 10, 10};
  const Rect b{5, 5, 10, 10};
  const Rect i = intersect(a, b);
  EXPECT_EQ(i.x, 5.0);
  EXPECT_EQ(i.y, 5.0);
  EXPECT_EQ(i.w, 5.0);
  EXPECT_EQ(i.h, 5.0);
}

TEST(Rect, DisjointIntersectionIsEmpty) {
  EXPECT_EQ(intersect({0, 0, 5, 5}, {6, 6, 5, 5}).area(), 0.0);
}

TEST(Rect, IouProperties) {
  const Rect a{0, 0, 10, 10};
  EXPECT_NEAR(iou(a, a), 1.0, 1e-12);
  EXPECT_EQ(iou(a, {20, 20, 5, 5}), 0.0);
  // Half-overlap: inter=50, union=150.
  EXPECT_NEAR(iou(a, {5, 0, 10, 10}), 50.0 / 150.0, 1e-12);
}

TEST(Image, ConstructionAndFill) {
  Image img(4, 3, 3);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.channels(), 3);
  img.fill(0.5f);
  EXPECT_EQ(img.at(2, 1, 2), 0.5f);
  img.fill_channel(0, 1.0f);
  EXPECT_EQ(img.at(0, 0, 0), 1.0f);
  EXPECT_EQ(img.at(0, 0, 1), 0.5f);
}

TEST(Image, InvalidChannelCountViolatesContract) {
  EXPECT_THROW(Image(2, 2, 2), ContractViolation);
  EXPECT_THROW(Image(2, 2, 0), ContractViolation);
}

TEST(Image, ClampedAccessAtBorders) {
  Image img(2, 2, 1);
  img.at(0, 0) = 1.0f;
  img.at(1, 1) = 2.0f;
  EXPECT_EQ(img.at_clamped(-5, -5), 1.0f);
  EXPECT_EQ(img.at_clamped(10, 10), 2.0f);
}

TEST(Image, CropClampsToBounds) {
  Image img(10, 10, 1);
  img.at(9, 9) = 3.0f;
  const Image c = img.crop(8, 8, 5, 5);
  EXPECT_EQ(c.width(), 2);
  EXPECT_EQ(c.height(), 2);
  EXPECT_EQ(c.at(1, 1), 3.0f);
}

TEST(Image, ToGrayUsesLumaWeights) {
  Image img(1, 1, 3);
  img.at(0, 0, 0) = 1.0f;  // Pure red.
  const Image g = to_gray(img);
  EXPECT_EQ(g.channels(), 1);
  EXPECT_NEAR(g.at(0, 0), 0.299f, 1e-6);
}

TEST(Filter, GaussianBlurSmoothsImpulse) {
  Image img(9, 9, 1);
  img.at(4, 4) = 1.0f;
  const Image b = gaussian_blur(img, 1.0f);
  EXPECT_LT(b.at(4, 4), 1.0f);
  EXPECT_GT(b.at(4, 4), b.at(3, 4));
  EXPECT_GT(b.at(3, 4), 0.0f);
  // Symmetric response.
  EXPECT_NEAR(b.at(3, 4), b.at(5, 4), 1e-6);
  EXPECT_NEAR(b.at(4, 3), b.at(4, 5), 1e-6);
}

TEST(Filter, GradientOfVerticalEdge) {
  // Left half dark, right half bright: gradient is horizontal.
  Image img(10, 10, 1);
  for (int y = 0; y < 10; ++y) {
    for (int x = 5; x < 10; ++x) img.at(x, y) = 1.0f;
  }
  const Gradients g = compute_gradients(img);
  EXPECT_GT(g.magnitude.at(5, 5), 0.3f);
  EXPECT_NEAR(g.magnitude.at(2, 5), 0.0f, 1e-6);
  // Horizontal gradient direction => orientation ~0 (mod pi).
  const float theta = g.orientation.at(5, 5);
  EXPECT_TRUE(theta < 0.1f || theta > 3.0f) << theta;
}

TEST(Filter, ResizePreservesConstant) {
  Image img(6, 4, 3);
  img.fill(0.7f);
  const Image r = resize(img, 13, 9);
  EXPECT_EQ(r.width(), 13);
  EXPECT_EQ(r.height(), 9);
  EXPECT_NEAR(r.at(6, 4, 1), 0.7f, 1e-6);
}

TEST(Filter, ResizeDownPreservesMeanApproximately) {
  Image img(16, 16, 1);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) img.at(x, y) = static_cast<float>(x) / 15.0f;
  }
  const Image r = resize(img, 8, 8);
  EXPECT_NEAR(channel_mean(r, 0), channel_mean(img, 0), 0.02f);
}

TEST(Filter, ResizeOnePixelImageBroadcasts) {
  Image img(1, 1, 3);
  img.at(0, 0, 0) = 0.2f;
  img.at(0, 0, 1) = 0.4f;
  img.at(0, 0, 2) = 0.9f;
  const Image r = resize(img, 7, 5);
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < 5; ++y) {
      // All four bilinear corners are the same pixel; the weighted sum can
      // round in the last ulp, so near-equality is the contract here.
      for (int x = 0; x < 7; ++x) EXPECT_NEAR(r.at(x, y, c), img.at(0, 0, c), 1e-6f);
    }
  }
}

TEST(Filter, ResizeOddWidthsInterpolateWithinRange) {
  // Tail-lane geometries: output widths around the 4-lane boundary must stay
  // within the convex hull of the source values (bilinear property).
  Image img(9, 3, 1);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 9; ++x) img.at(x, y) = static_cast<float>(x) / 8.0f;
  }
  for (int nw : {1, 2, 3, 5, 6, 7}) {
    const Image r = resize(img, nw, 3);
    for (int y = 0; y < 3; ++y) {
      for (int x = 0; x < nw; ++x) {
        EXPECT_GE(r.at(x, y), 0.0f);
        EXPECT_LE(r.at(x, y), 1.0f);
      }
    }
    // Monotone source rows stay monotone under bilinear resampling.
    for (int x = 1; x < nw; ++x) EXPECT_LE(r.at(x - 1, 0), r.at(x, 0));
  }
}

TEST(Filter, GradientsOfOnePixelImageAreZero) {
  Image img(1, 1, 1);
  img.at(0, 0) = 0.6f;
  const Gradients g = compute_gradients(img);
  EXPECT_EQ(g.magnitude.at(0, 0), 0.0f);
}

TEST(Integral, RectSumMatchesBruteForce) {
  Image img(7, 5, 1);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 7; ++x) img.at(x, y) = static_cast<float>(x + 10 * y);
  }
  const IntegralImage ii(img);
  double brute = 0.0;
  for (int y = 1; y < 4; ++y) {
    for (int x = 2; x < 6; ++x) brute += img.at(x, y);
  }
  EXPECT_NEAR(ii.rect_sum(2, 1, 6, 4), brute, 1e-9);
}

TEST(Integral, FullImageSum) {
  Image img(3, 3, 1);
  img.fill(2.0f);
  const IntegralImage ii(img);
  EXPECT_NEAR(ii.rect_sum(0, 0, 3, 3), 18.0, 1e-9);
}

TEST(Integral, OutOfBoundsClampsAndEmptyIsZero) {
  Image img(3, 3, 1);
  img.fill(1.0f);
  const IntegralImage ii(img);
  EXPECT_NEAR(ii.rect_sum(-5, -5, 10, 10), 9.0, 1e-9);
  EXPECT_EQ(ii.rect_sum(2, 2, 2, 2), 0.0);
}

TEST(Integral, OddAndDegenerateGeometries) {
  // Widths/heights around the 2-row lane blocking, including 1-pixel images.
  for (int w : {1, 2, 3, 5, 17}) {
    for (int h : {1, 2, 3, 5, 17}) {
      Image img(w, h, 1);
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) img.at(x, y) = static_cast<float>(1 + x + y * w);
      }
      const IntegralImage ii(img);
      double brute = 0.0;
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) brute += img.at(x, y);
      }
      EXPECT_NEAR(ii.rect_sum(0, 0, w, h), brute, 1e-9) << w << "x" << h;
      EXPECT_NEAR(ii.rect_sum(0, 0, 1, 1), img.at(0, 0), 1e-12);
    }
  }
}

TEST(Draw, FillRectCoversExactPixels) {
  Image img(10, 10, 3);
  fill_rect(img, {2, 3, 4, 2}, Color{1.0f, 0.0f, 0.0f});
  EXPECT_EQ(img.at(2, 3, 0), 1.0f);
  EXPECT_EQ(img.at(5, 4, 0), 1.0f);
  EXPECT_EQ(img.at(6, 4, 0), 0.0f);
  EXPECT_EQ(img.at(2, 2, 0), 0.0f);
}

TEST(Draw, AlphaBlending) {
  Image img(2, 2, 1);
  img.fill(0.0f);
  fill_rect(img, {0, 0, 2, 2}, Color{1.0f, 1.0f, 1.0f}, 0.5f);
  EXPECT_NEAR(img.at(0, 0), 0.5f, 1e-6);
}

TEST(Draw, EllipseStaysWithinBoundingBox) {
  Image img(20, 20, 1);
  fill_ellipse(img, {5, 5, 10, 10}, Color{1, 1, 1});
  EXPECT_GT(img.at(10, 10), 0.9f);   // Center.
  EXPECT_EQ(img.at(5, 5), 0.0f);     // Box corner is outside the ellipse.
  EXPECT_EQ(img.at(4, 10), 0.0f);    // Outside the box entirely.
}

TEST(Draw, ClipsToImageBounds) {
  Image img(4, 4, 1);
  EXPECT_NO_THROW(fill_rect(img, {-10, -10, 100, 100}, Color{1, 1, 1}));
  EXPECT_EQ(img.at(3, 3), 1.0f);
}

TEST(Draw, HashNoiseDeterministicAndBounded) {
  for (int i = 0; i < 100; ++i) {
    const float v = hash_noise(i, 2 * i, 7u);
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
    EXPECT_EQ(v, hash_noise(i, 2 * i, 7u));
  }
  EXPECT_NE(hash_noise(1, 1, 1u), hash_noise(1, 1, 2u));
}

TEST(Draw, FractalNoiseBounded) {
  for (int i = 0; i < 50; ++i) {
    const float v = fractal_noise(static_cast<float>(i) * 0.37f, static_cast<float>(i) * 0.11f, 3u);
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Draw, TextureModulatesRegionOnly) {
  Image img(10, 10, 1);
  img.fill(0.5f);
  apply_texture(img, {0, 0, 5, 10}, 1u, 0.8f, 3.0f);
  // Right half untouched.
  for (int y = 0; y < 10; ++y) EXPECT_EQ(img.at(7, y), 0.5f);
  // Left half modified somewhere.
  bool changed = false;
  for (int y = 0; y < 10 && !changed; ++y) {
    for (int x = 0; x < 5 && !changed; ++x) changed = std::abs(img.at(x, y) - 0.5f) > 1e-4f;
  }
  EXPECT_TRUE(changed);
}

TEST(JpegModel, FlatImageSmallerThanTexturedImage) {
  const JpegModel model;
  Image flat(64, 64, 1);
  flat.fill(0.5f);
  Image textured = flat;
  apply_texture(textured, {0, 0, 64, 64}, 5u, 1.5f, 2.0f);
  EXPECT_LT(model.frame_bytes(flat), model.frame_bytes(textured));
}

TEST(JpegModel, BytesScaleWithResolution) {
  const JpegModel model;
  Image small(32, 32, 1);
  Image large(128, 128, 1);
  small.fill(0.5f);
  large.fill(0.5f);
  apply_texture(small, {0, 0, 32, 32}, 5u, 1.0f, 2.0f);
  apply_texture(large, {0, 0, 128, 128}, 5u, 1.0f, 2.0f);
  EXPECT_GT(model.frame_bytes(large), 4 * (model.frame_bytes(small) - model.header_bytes));
}

TEST(JpegModel, RegionBytesSmallerThanFrame) {
  const JpegModel model;
  Image img(100, 100, 3);
  img.fill(0.3f);
  apply_texture(img, {0, 0, 100, 100}, 9u, 1.0f, 4.0f);
  EXPECT_LT(model.region_bytes(img, {10, 10, 20, 20}), model.frame_bytes(img));
}

}  // namespace
}  // namespace eecs::imaging
