#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "features/bow.hpp"
#include "features/census.hpp"
#include "features/color_feature.hpp"
#include "features/frame_feature.hpp"
#include "features/hog.hpp"
#include "features/keypoints.hpp"
#include "imaging/draw.hpp"
#include "imaging/filter.hpp"
#include "imaging/integral.hpp"
#include "video/scene.hpp"

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

// ---------------------------------------------------------------------------
// Oracle for the keypoint response maps: the detector as it was before the
// row kernel, ten clamped rect_sum calls per interior lattice point, then the
// same non-maximum suppression, sort and truncation.
// ---------------------------------------------------------------------------

std::vector<float> oracle_response_map(const imaging::IntegralImage& ii, int s) {
  const int gw = ii.width() / 2;
  const int gh = ii.height() / 2;
  std::vector<float> map(static_cast<std::size_t>(gw) * static_cast<std::size_t>(gh), 0.0f);
  for (int gy = 0; gy < gh; ++gy) {
    for (int gx = 0; gx < gw; ++gx) {
      const int x = gx * 2;
      const int y = gy * 2;
      if (x < 2 * s || y < 2 * s || x >= ii.width() - 2 * s || y >= ii.height() - 2 * s) continue;
      const double left = ii.rect_sum(x - 3 * s / 2, y - s, x - s / 2, y + s);
      const double mid = ii.rect_sum(x - s / 2, y - s, x + s / 2, y + s);
      const double right = ii.rect_sum(x + s / 2, y - s, x + 3 * s / 2, y + s);
      const double dxx = mid * 2.0 - left - right;
      const double top = ii.rect_sum(x - s, y - 3 * s / 2, x + s, y - s / 2);
      const double vmid = ii.rect_sum(x - s, y - s / 2, x + s, y + s / 2);
      const double bottom = ii.rect_sum(x - s, y + s / 2, x + s, y + 3 * s / 2);
      const double dyy = vmid * 2.0 - top - bottom;
      const double q1 = ii.rect_sum(x - s, y - s, x, y);
      const double q2 = ii.rect_sum(x, y - s, x + s, y);
      const double q3 = ii.rect_sum(x - s, y, x, y + s);
      const double q4 = ii.rect_sum(x, y, x + s, y + s);
      const double dxy = (q1 + q4) - (q2 + q3);
      const double area = static_cast<double>(s) * static_cast<double>(s);
      const double hxx = dxx / area;
      const double hyy = dyy / area;
      const double hxy = dxy / area;
      const double det = hxx * hyy - 0.81 * hxy * hxy;
      map[static_cast<std::size_t>(gy) * static_cast<std::size_t>(gw) +
          static_cast<std::size_t>(gx)] = static_cast<float>(det);
    }
  }
  return map;
}

std::vector<Keypoint> oracle_keypoints(const imaging::IntegralImage& ii,
                                       const KeypointParams& params) {
  const int gw = ii.width() / 2;
  const int gh = ii.height() / 2;
  std::vector<Keypoint> keypoints;
  for (int s : params.scales) {
    const std::vector<float> map = oracle_response_map(ii, s);
    const auto at = [&](int gx, int gy) {
      return map[static_cast<std::size_t>(gy) * static_cast<std::size_t>(gw) +
                 static_cast<std::size_t>(gx)];
    };
    for (int gy = 1; gy < gh - 1; ++gy) {
      for (int gx = 1; gx < gw - 1; ++gx) {
        const float v = at(gx, gy);
        if (v < params.response_threshold) continue;
        bool is_max = true;
        for (int dy = -1; dy <= 1 && is_max; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            if (dx == 0 && dy == 0) continue;
            if (at(gx + dx, gy + dy) > v) {
              is_max = false;
              break;
            }
          }
        }
        if (is_max) {
          keypoints.push_back({static_cast<float>(gx * 2), static_cast<float>(gy * 2),
                               static_cast<float>(s), v});
        }
      }
    }
  }
  std::sort(keypoints.begin(), keypoints.end(),
            [](const Keypoint& a, const Keypoint& b) { return a.response > b.response; });
  if (static_cast<int>(keypoints.size()) > params.max_keypoints) {
    keypoints.resize(static_cast<std::size_t>(params.max_keypoints));
  }
  return keypoints;
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// hessian_response_map and detect_keypoints on `gray` equal the oracle bit
/// for bit in every SIMD mode, at widths 1 and 4.
void expect_matches_oracle(const Image& gray, const KeypointParams& params) {
  const imaging::IntegralImage ii(gray);
  std::vector<std::vector<float>> want_maps;
  for (int s : params.scales) want_maps.push_back(oracle_response_map(ii, s));
  const std::vector<Keypoint> want = oracle_keypoints(ii, params);
  for (int width : {1, 4}) {
    const common::ScopedThreads threads(width);
    for (int mode : {0, 1, 128, 256, 512, -128, -256, -512}) {
      SCOPED_TRACE(testing::Message() << gray.width() << "x" << gray.height() << " width "
                                      << width << " simd " << mode);
      const simd::ScopedSimd scoped(mode);
      const imaging::IntegralImage got_ii(gray);
      for (std::size_t si = 0; si < params.scales.size(); ++si) {
        ASSERT_TRUE(same_bits(hessian_response_map(got_ii, params.scales[si]), want_maps[si]))
            << "scale " << params.scales[si];
      }
      ASSERT_TRUE(same_bits(detect_keypoints(gray, params), want));
    }
  }
}

TEST(KeypointOracle, OddGeometriesAndScalesMatchRectSumLoop) {
  Rng rng(29);
  KeypointParams odd_scales;
  odd_scales.scales = {1, 3, 5, 7};
  for (const auto& [w, h] : {std::pair{64, 48}, std::pair{67, 45}, std::pair{93, 71},
                             std::pair{30, 31}, std::pair{17, 90}}) {
    Image img(w, h, 1);
    // Blobs of every size over noise: responses of both signs at each scale.
    for (float& v : img.data()) v = static_cast<float>(rng.uniform(0.0, 0.3));
    for (int b = 0; b < 6; ++b) {
      const double d = rng.uniform(2.0, 12.0);
      imaging::fill_ellipse(img, {rng.uniform(0.0, w), rng.uniform(0.0, h), d, d},
                            Color{0.9f, 0.9f, 0.9f});
    }
    KeypointParams low = {};
    low.response_threshold = 0.0f;  // Keep every local maximum: a longer list.
    expect_matches_oracle(img, KeypointParams{});
    expect_matches_oracle(img, odd_scales);
    expect_matches_oracle(img, low);
  }
}

TEST(KeypointOracle, EmptyInteriorHasAZeroMapAndNoKeypoints) {
  // The interior 2s <= x < w - 2s is empty for every default scale at w = 8,
  // and for s = 6 but not s = 2 at w = 24.
  Rng rng(31);
  for (const auto& [w, h] : {std::pair{8, 8}, std::pair{24, 9}, std::pair{3, 40},
                             std::pair{1, 1}}) {
    Image img(w, h, 1);
    for (float& v : img.data()) v = static_cast<float>(rng.uniform());
    expect_matches_oracle(img, KeypointParams{});
    if (w == 8) {
      const imaging::IntegralImage ii(img);
      for (int s : {2, 4, 6}) {
        for (float v : hessian_response_map(ii, s)) EXPECT_EQ(v, 0.0f);
      }
      EXPECT_TRUE(detect_keypoints(img).empty());
    }
  }
}

TEST(KeypointOracle, Dataset2ViewMatchesRectSumLoop) {
  video::SceneSimulator sim(video::dataset2_chap(), 5);
  const Image gray = imaging::to_gray(sim.view(0));
  ASSERT_EQ(gray.width(), 1024);
  ASSERT_EQ(gray.height(), 768);
  expect_matches_oracle(gray, KeypointParams{});
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
