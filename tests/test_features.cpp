#include <gtest/gtest.h>

#include <cmath>

#include "features/bow.hpp"
#include "features/census.hpp"
#include "features/color_feature.hpp"
#include "features/frame_feature.hpp"
#include "features/hog.hpp"
#include "features/keypoints.hpp"
#include "imaging/draw.hpp"
#include "imaging/filter.hpp"

namespace eecs::features {
namespace {

using imaging::Color;
using imaging::Image;

double l2(std::span<const float> v) {
  double s = 0;
  for (float x : v) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

Image edge_image(int w = 64, int h = 64) {
  Image img(w, h, 1);
  for (int y = 0; y < h; ++y) {
    for (int x = w / 2; x < w; ++x) img.at(x, y) = 1.0f;
  }
  return img;
}

TEST(Hog, GridDimensionsFollowCellSize) {
  const HogGrid grid = compute_hog_grid(Image(64, 48, 1));
  EXPECT_EQ(grid.cells_x(), 8);
  EXPECT_EQ(grid.cells_y(), 6);
  EXPECT_EQ(grid.bins(), 9);
}

TEST(Hog, FlatImageHasEmptyHistograms) {
  Image img(32, 32, 1);
  img.fill(0.5f);
  const HogGrid grid = compute_hog_grid(img);
  for (float v : grid.cell(1, 1)) EXPECT_EQ(v, 0.0f);
}

TEST(Hog, VerticalEdgeActivatesHorizontalGradientBin) {
  const HogGrid grid = compute_hog_grid(edge_image());
  // The edge at x=32 falls into cells at cx=3/4; gradient is horizontal,
  // orientation ~0 -> first/last bins.
  const auto hist = grid.cell(3, 3);
  float edge_mass = hist[0] + hist[8];
  float mid_mass = hist[4];
  EXPECT_GT(edge_mass, mid_mass);
  EXPECT_GT(edge_mass, 0.0f);
}

TEST(Hog, WindowDescriptorSizeFormula) {
  EXPECT_EQ(window_descriptor_size(6, 12), 5 * 11 * 4 * 9);
  EXPECT_EQ(window_descriptor_size(2, 2), 1 * 1 * 4 * 9);
}

TEST(Hog, WindowDescriptorBlocksAreL2HysNormalized) {
  const HogGrid grid = compute_hog_grid(edge_image());
  const auto desc = window_descriptor(grid, 0, 0, 4, 4);
  ASSERT_EQ(static_cast<int>(desc.size()), window_descriptor_size(4, 4));
  // Each 36-float block has norm <= 1 (plus epsilon); after the clip-and-
  // renormalize of L2-hys individual entries stay within [0, 1].
  for (std::size_t b = 0; b < desc.size() / 36; ++b) {
    const std::span<const float> block(desc.data() + b * 36, 36);
    EXPECT_LE(l2(block), 1.0 + 1e-4);
    for (float v : block) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(Hog, WindowOutsideGridViolatesContract) {
  const HogGrid grid = compute_hog_grid(Image(64, 64, 1));
  EXPECT_THROW((void)window_descriptor(grid, 5, 5, 6, 6), ContractViolation);
}

TEST(Hog, GlobalDescriptorIsUnitNorm) {
  const auto desc = global_descriptor(edge_image(), 4, 4);
  EXPECT_EQ(desc.size(), 4u * 4u * 9u);
  EXPECT_NEAR(l2(desc), 1.0, 1e-4);
}

TEST(Hog, CostCounterCharged) {
  energy::CostCounter cost;
  (void)compute_hog_grid(Image(64, 64, 1), {}, &cost);
  EXPECT_GT(cost.pixel_ops, 0u);
  EXPECT_GT(cost.feature_ops, 0u);
}

TEST(Keypoints, BlobIsDetected) {
  Image img(64, 64, 1);
  img.fill(0.2f);
  imaging::fill_ellipse(img, {28, 28, 10, 10}, Color{1, 1, 1});
  const auto kps = detect_keypoints(img);
  ASSERT_FALSE(kps.empty());
  // Strongest keypoint near the blob.
  EXPECT_NEAR(kps.front().x, 33.0, 8.0);
  EXPECT_NEAR(kps.front().y, 33.0, 8.0);
}

TEST(Keypoints, FlatImageHasNone) {
  Image img(64, 64, 1);
  img.fill(0.5f);
  EXPECT_TRUE(detect_keypoints(img).empty());
}

TEST(Keypoints, DescriptorIsUnitNormAnd64d) {
  Image img(64, 64, 1);
  img.fill(0.2f);
  imaging::fill_rect(img, {20, 20, 12, 20}, Color{0.9f, 0.9f, 0.9f});
  const auto desc = describe_keypoint(img, {26, 30, 2, 1});
  ASSERT_EQ(desc.size(), static_cast<std::size_t>(kDescriptorDim));
  EXPECT_NEAR(l2(desc), 1.0, 1e-4);
}

TEST(Keypoints, MaxKeypointsCapRespected) {
  Image img(128, 128, 1);
  for (int y = 0; y < 128; ++y) {
    for (int x = 0; x < 128; ++x) img.at(x, y) = imaging::hash_noise(x / 4, y / 4, 1u);
  }
  KeypointParams params;
  params.max_keypoints = 10;
  EXPECT_LE(detect_keypoints(img, params).size(), 10u);
}

TEST(Bow, EncodeIsL1NormalizedHistogram) {
  Rng rng(1);
  std::vector<std::vector<float>> descriptors;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> d(8, 0.0f);
    d[static_cast<std::size_t>(i % 4)] = 1.0f;
    d[4] = 0.01f * static_cast<float>(i);
    descriptors.push_back(d);
  }
  const BowVocabulary vocab(descriptors, 4, rng);
  EXPECT_EQ(vocab.words(), 4);
  const auto hist = vocab.encode(descriptors);
  float sum = 0;
  for (float v : hist) sum += v;
  EXPECT_NEAR(sum, 1.0f, 1e-5);
}

TEST(Bow, EmptyDescriptorsGiveZeroHistogram) {
  Rng rng(1);
  std::vector<std::vector<float>> descriptors(10, std::vector<float>(8, 1.0f));
  descriptors[3][2] = -1.0f;
  const BowVocabulary vocab(descriptors, 2, rng);
  const auto hist = vocab.encode({});
  for (float v : hist) EXPECT_EQ(v, 0.0f);
}

TEST(Census, FlatRegionsCollapseToZeroCode) {
  Image img(16, 16, 1);
  img.fill(0.5f);
  const auto codes = census_transform(img);
  for (auto c : codes) EXPECT_EQ(c, 0);
}

TEST(Census, EdgeProducesStructuredCodes) {
  const auto codes = census_transform(edge_image(16, 16));
  bool any_nonzero = false;
  for (auto c : codes) any_nonzero |= (c != 0);
  EXPECT_TRUE(any_nonzero);
}

TEST(Census, OnePixelAndOddWidthImages) {
  // Edge clamping must hold for widths that leave 0..3 tail columns after the
  // 4-lane interior, including the degenerate 1x1 image (all neighbors clamp
  // to the center pixel, so every comparison fails and the code is 0).
  for (int w : {1, 2, 3, 5, 6, 7, 9}) {
    Image img(w, 3, 1);
    img.fill(0.25f);
    const auto flat = census_transform(img);
    ASSERT_EQ(flat.size(), static_cast<std::size_t>(w) * 3);
    for (auto c : flat) EXPECT_EQ(c, 0);

    // A bright last column: its left neighbors see a brighter pixel to the
    // right, so the (1,0) bit (value 16) must be set in column w-2.
    if (w >= 2) {
      Image edge(w, 3, 1);
      edge.fill(0.25f);
      for (int y = 0; y < 3; ++y) edge.at(w - 1, y) = 1.0f;
      const auto codes = census_transform(edge);
      EXPECT_NE(codes[static_cast<std::size_t>(w) + static_cast<std::size_t>(w - 2)] & 16u, 0u);
    }
  }
}

TEST(Hog, OddCellSizeBinsAllPixels) {
  // cell_size 5 exercises the 1-pixel lane tail in the cell-row binning; the
  // histogram mass of each cell equals the sum of its pixel magnitudes.
  HogParams params;
  params.cell_size = 5;
  const Image img = edge_image(15, 10);
  const auto grads = imaging::compute_gradients(img);
  const HogGrid grid = compute_hog_grid(img, params);
  ASSERT_EQ(grid.cells_x(), 3);
  ASSERT_EQ(grid.cells_y(), 2);
  for (int cy = 0; cy < grid.cells_y(); ++cy) {
    for (int cx = 0; cx < grid.cells_x(); ++cx) {
      double mass = 0.0;
      for (float v : grid.cell(cx, cy)) mass += v;
      double mag = 0.0;
      for (int dy = 0; dy < 5; ++dy) {
        for (int dx = 0; dx < 5; ++dx) {
          const float m = grads.magnitude.at(cx * 5 + dx, cy * 5 + dy);
          if (m > 0.0f) mag += m;
        }
      }
      EXPECT_NEAR(mass, mag, 1e-4) << cx << "," << cy;
    }
  }
}

TEST(ColorFeature, DimensionAndRange) {
  Image img(40, 80, 3);
  img.fill_channel(0, 0.8f);
  img.fill_channel(1, 0.2f);
  const auto feat = color_feature(img, {0, 0, 40, 80});
  ASSERT_EQ(feat.size(), static_cast<std::size_t>(kColorFeatureDim));
  // First band mean R should be ~0.8, mean G ~0.2, stddevs ~0.
  EXPECT_NEAR(feat[0], 0.8f, 1e-4);
  EXPECT_NEAR(feat[1], 0.2f, 1e-4);
  EXPECT_NEAR(feat[3], 0.0f, 1e-4);
}

TEST(ColorFeature, HistogramSumsToOne) {
  Image img(20, 20, 3);
  img.fill(0.5f);
  const auto feat = color_feature(img, {0, 0, 20, 20});
  float sum = 0;
  for (int b = 30; b < 40; ++b) sum += feat[static_cast<std::size_t>(b)];
  EXPECT_NEAR(sum, 1.0f, 1e-5);
}

TEST(ColorFeature, EmptyRegionIsZero) {
  Image img(20, 20, 3);
  img.fill(0.5f);
  const auto feat = color_feature(img, {30, 30, 5, 5});
  for (float v : feat) EXPECT_EQ(v, 0.0f);
}

TEST(ColorFeature, DistinguishesShirtColors) {
  Image red(20, 40, 3), blue(20, 40, 3);
  red.fill_channel(0, 0.9f);
  blue.fill_channel(2, 0.9f);
  const auto fr = color_feature(red, {0, 0, 20, 40});
  const auto fb = color_feature(blue, {0, 0, 20, 40});
  double diff = 0;
  for (std::size_t i = 0; i < fr.size(); ++i) diff += std::abs(fr[i] - fb[i]);
  EXPECT_GT(diff, 1.0);
}

TEST(FrameFeature, DimensionMatchesConfiguration) {
  Rng rng(3);
  std::vector<Image> vocab_frames;
  for (int i = 0; i < 2; ++i) {
    Image img(96, 96, 3);
    for (int y = 0; y < 96; ++y) {
      for (int x = 0; x < 96; ++x) {
        const float v = imaging::hash_noise(x / 3, y / 3, static_cast<unsigned>(i));
        for (int c = 0; c < 3; ++c) img.at(x, y, c) = v;
      }
    }
    vocab_frames.push_back(img);
  }
  FrameFeatureParams params;
  params.bow_words = 8;
  const FrameFeatureExtractor extractor(vocab_frames, params, rng);
  EXPECT_EQ(extractor.dimension(), 4 * 4 * 9 + 8 + 16);
  const auto feat = extractor.extract(vocab_frames[0]);
  EXPECT_EQ(static_cast<int>(feat.size()), extractor.dimension());
}

}  // namespace
}  // namespace eecs::features
