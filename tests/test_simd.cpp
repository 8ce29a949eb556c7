#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "common/atan2.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "detect/acf_detector.hpp"
#include "detect/block_grid.hpp"
#include "detect/c4_detector.hpp"
#include "detect/linear_svm.hpp"
#include "features/census.hpp"
#include "features/hog.hpp"
#include "features/keypoints.hpp"
#include "imaging/filter.hpp"
#include "imaging/image.hpp"
#include "imaging/integral.hpp"
#include "linalg/matrix.hpp"

namespace eecs {
namespace {

// Values chosen to stress rounding edges: negatives, non-representable
// fractions, exact powers of two, halfway cases for floor, and zeros.
const float kTrickyF[] = {0.0f,  -0.0f, 1.0f,      -1.0f,   0.1f,     -0.1f,  2.5f,
                          -2.5f, 3.0f,  -3.0f,     1e-8f,   -1e-8f,   1e8f,   -1e8f,
                          0.3f,  7.25f, -1048576.0f, 1048575.5f, 0.5f, -0.5f, 1.5f};

template <class T>
void expect_bits_eq(std::span<const T> a, std::span<const T> b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0);
}

/// Runs `f` under the given SIMD mode and returns its result.
template <class F>
auto with_simd(int mode, F&& f) {
  const simd::ScopedSimd scoped(mode);
  return f();
}

imaging::Image random_image(int w, int h, int channels, Rng& rng) {
  imaging::Image img(w, h, channels);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform());
  return img;
}

// ---------------------------------------------------------------------------
// Pack-level exactness: the native packs must reproduce the scalar emulation
// (the reference semantics) bit for bit on every lane.
// ---------------------------------------------------------------------------

TEST(SimdPacks, F32ArithmeticMatchesEmulationBitwise) {
  for (float a : kTrickyF) {
    for (float b : kTrickyF) {
      const simd::F32x4 na = simd::F32x4::set(a, b, a + b, a - b);
      const simd::F32x4 nb = simd::F32x4::set(b, a, b * 2.0f, 1.0f);
      const simd::F32x4Emul ea = simd::F32x4Emul::set(a, b, a + b, a - b);
      const simd::F32x4Emul eb = simd::F32x4Emul::set(b, a, b * 2.0f, 1.0f);
      float n[4];
      float e[4];
      const auto check = [&](simd::F32x4 nv, simd::F32x4Emul ev) {
        nv.store(n);
        ev.store(e);
        expect_bits_eq<float>(n, e);
      };
      check(na + nb, ea + eb);
      check(na - nb, ea - eb);
      check(na * nb, ea * eb);
      check(na / nb, ea / eb);
      check(simd::F32x4::min(na, nb), simd::F32x4Emul::min(ea, eb));
      check(simd::F32x4::max(na, nb), simd::F32x4Emul::max(ea, eb));
      check(simd::F32x4::floor(na), simd::F32x4Emul::floor(ea));
      for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(simd::F32x4::gt(na, nb).extract(j), simd::F32x4Emul::gt(ea, eb).extract(j));
      }
    }
  }
}

TEST(SimdPacks, F32SqrtIsCorrectlyRounded) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float a = static_cast<float>(rng.uniform() * 1e6);
    const float b = static_cast<float>(rng.uniform());
    const simd::F32x4 s = simd::F32x4::sqrt(simd::F32x4::set(a, b, a * b, a + b));
    EXPECT_EQ(s.extract(0), std::sqrt(a));
    EXPECT_EQ(s.extract(1), std::sqrt(b));
    EXPECT_EQ(s.extract(2), std::sqrt(a * b));
    EXPECT_EQ(s.extract(3), std::sqrt(a + b));
  }
}

TEST(SimdPacks, F32FloorMatchesStdFloorIncludingNegatives) {
  for (float v : {-2.5f, -2.0f, -1.0000001f, -0.5f, -0.0f, 0.0f, 0.5f, 2.0f, 2.5f, 1e7f, -1e7f}) {
    const simd::F32x4 f = simd::F32x4::floor(simd::F32x4::broadcast(v));
    for (int j = 0; j < 4; ++j) EXPECT_EQ(f.extract(j), std::floor(v)) << "v=" << v;
  }
}

TEST(SimdPacks, Transpose4MatchesEmulation) {
  float rows[4][4];
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) rows[r][c] = static_cast<float>(r * 10 + c);
  }
  simd::F32x4 na = simd::F32x4::load(rows[0]);
  simd::F32x4 nb = simd::F32x4::load(rows[1]);
  simd::F32x4 nc = simd::F32x4::load(rows[2]);
  simd::F32x4 nd = simd::F32x4::load(rows[3]);
  transpose4(na, nb, nc, nd);
  const simd::F32x4* cols[4] = {&na, &nb, &nc, &nd};
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) EXPECT_EQ(cols[c]->extract(r), rows[r][c]);
  }
}

TEST(SimdPacks, F64ArithmeticAndGatherMatchEmulation) {
  const float strided[8] = {0.25f, 1.5f, -3.0f, 7.125f, 0.1f, -0.1f, 42.0f, 1e-8f};
  for (std::size_t stride : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    const simd::F64x2 ng = simd::F64x2::gather2f(strided, stride);
    const simd::F64x2Emul eg = simd::F64x2Emul::gather2f(strided, stride);
    EXPECT_EQ(ng.extract(0), eg.extract(0));
    EXPECT_EQ(ng.extract(1), eg.extract(1));
  }
  const double vals[] = {0.0, -0.0, 0.1, -0.1, 1e300, -1e-300, 3.5, -2.25};
  for (double a : vals) {
    for (double b : vals) {
      const simd::F64x2 na = simd::F64x2::set(a, b);
      const simd::F64x2 nb = simd::F64x2::set(b, a);
      const simd::F64x2Emul ea = simd::F64x2Emul::set(a, b);
      const simd::F64x2Emul eb = simd::F64x2Emul::set(b, a);
      double n[2];
      double e[2];
      const auto check = [&](simd::F64x2 nv, simd::F64x2Emul ev) {
        nv.store(n);
        ev.store(e);
        expect_bits_eq<double>(n, e);
      };
      check(na + nb, ea + eb);
      check(na - nb, ea - eb);
      check(na * nb, ea * eb);
    }
  }
}

TEST(SimdPacks, U32MaskOps) {
  const simd::U32x4 a = simd::U32x4::broadcast(0xF0F0F0F0u);
  const simd::U32x4 b = simd::U32x4::broadcast(0x0FF000FFu);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ((a & b).extract(j), 0xF0F0F0F0u & 0x0FF000FFu);
    EXPECT_EQ((a | b).extract(j), 0xF0F0F0F0u | 0x0FF000FFu);
  }
}

// ---------------------------------------------------------------------------
// Runtime switch semantics.
// ---------------------------------------------------------------------------

TEST(SimdSwitch, ScopedOverrideRestoresPreviousState) {
  const bool before = simd::enabled();
  {
    const simd::ScopedSimd off(0);
    EXPECT_FALSE(simd::enabled());
    EXPECT_STREQ(simd::dispatch_name(), "scalar");
    {
      const simd::ScopedSimd on(1);
      EXPECT_EQ(simd::enabled(), simd::kNativeBackend);
      if (simd::kNativeBackend) {
        EXPECT_STREQ(simd::dispatch_name(), simd::isa_name());
      }
    }
    EXPECT_FALSE(simd::enabled());
  }
  EXPECT_EQ(simd::enabled(), before);
}

TEST(SimdSwitch, NegativeModeLeavesSwitchUntouched) {
  const simd::ScopedSimd off(0);
  const simd::ScopedSimd noop(-1);
  EXPECT_FALSE(simd::enabled());
}

#if defined(EECS_SIMD_AVX512)
// Where simd.hpp compiles the 8- and 16-lane runtime tiers, an explicit width
// runs natively exactly where the CPU has the ISA.
TEST(SimdSwitch, WideTiersRunNativeWhereTheCpuHasThem) {
  const struct {
    int mode;
    bool cpu;
    const char* name;
  } tiers[] = {{256, __builtin_cpu_supports("avx2") != 0, "avx2"},
               {512, __builtin_cpu_supports("avx512f") != 0, "avx512"}};
  for (const auto& tier : tiers) {
    SCOPED_TRACE(testing::Message() << "mode=" << tier.mode);
    const simd::ScopedSimd scoped(tier.mode);
    EXPECT_EQ(simd::enabled(), tier.cpu);
    EXPECT_EQ(std::strcmp(simd::dispatch_name(), tier.name) == 0, tier.cpu);
  }
}
#endif

// ---------------------------------------------------------------------------
// Kernel A/B: every ported kernel must produce bit-identical output with
// native packs and scalar emulation, across geometries that exercise the
// vector body, the scalar tails, and degenerate 1-pixel shapes.
// ---------------------------------------------------------------------------

const int kWidths[] = {1, 2, 3, 5, 7, 8, 9, 13, 16, 17};
const int kHeights[] = {1, 3, 8, 17};

TEST(SimdKernels, ResizeBitIdenticalAcrossOddGeometries) {
  Rng rng(11);
  for (int w : kWidths) {
    for (int h : kHeights) {
      const imaging::Image src = random_image(w, h, 3, rng);
      for (auto [nw, nh] : {std::pair{1, 1}, {w, h}, {2 * w + 1, h + 2}, {5, 9}}) {
        const auto on = with_simd(1, [&] { return imaging::resize(src, nw, nh); });
        const auto off = with_simd(0, [&] { return imaging::resize(src, nw, nh); });
        expect_bits_eq<float>(on.data(), off.data());
      }
    }
  }
}

TEST(SimdKernels, BlurAndGradientsBitIdenticalAcrossOddGeometries) {
  Rng rng(13);
  for (int w : kWidths) {
    for (int h : kHeights) {
      const imaging::Image src = random_image(w, h, 1, rng);
      const auto blur_on = with_simd(1, [&] { return imaging::gaussian_blur(src, 1.3f); });
      const auto blur_off = with_simd(0, [&] { return imaging::gaussian_blur(src, 1.3f); });
      expect_bits_eq<float>(blur_on.data(), blur_off.data());

      const auto grads_on = with_simd(1, [&] { return imaging::compute_gradients(src); });
      const auto grads_off = with_simd(0, [&] { return imaging::compute_gradients(src); });
      expect_bits_eq<float>(grads_on.magnitude.data(), grads_off.magnitude.data());
      expect_bits_eq<float>(grads_on.orientation.data(), grads_off.orientation.data());
    }
  }
}

TEST(SimdKernels, IntegralImageBitIdenticalAcrossOddGeometries) {
  Rng rng(17);
  for (int w : kWidths) {
    for (int h : kHeights) {
      const imaging::Image src = random_image(w, h, 1, rng);
      const imaging::IntegralImage on =
          with_simd(1, [&] { return imaging::IntegralImage(src); });
      const imaging::IntegralImage off =
          with_simd(0, [&] { return imaging::IntegralImage(src); });
      for (int y1 = 0; y1 <= h; ++y1) {
        for (int x1 = 0; x1 <= w; ++x1) {
          const double a = on.rect_sum(0, 0, x1, y1);
          const double b = off.rect_sum(0, 0, x1, y1);
          ASSERT_EQ(a, b) << "rect (0,0)-(" << x1 << "," << y1 << ")";
        }
      }
    }
  }
}

TEST(SimdKernels, CensusTransformBitIdenticalAcrossOddGeometries) {
  Rng rng(19);
  for (int w : kWidths) {
    for (int h : kHeights) {
      const imaging::Image src = random_image(w, h, 1, rng);
      const auto on = with_simd(1, [&] { return features::census_transform(src); });
      const auto off = with_simd(0, [&] { return features::census_transform(src); });
      expect_bits_eq<std::uint8_t>(on, off);
    }
  }
}

TEST(SimdKernels, HogGridBitIdenticalIncludingOddCellSizes) {
  Rng rng(23);
  // cell_size 5 leaves a 1-pixel lane tail per cell row; 8 divides evenly.
  for (int cell : {5, 8}) {
    features::HogParams params;
    params.cell_size = cell;
    const imaging::Image src = random_image(4 * cell + 3, 3 * cell + 1, 1, rng);
    const auto on = with_simd(1, [&] { return features::compute_hog_grid(src, params); });
    const auto off = with_simd(0, [&] { return features::compute_hog_grid(src, params); });
    ASSERT_EQ(on.cells_x(), off.cells_x());
    ASSERT_EQ(on.cells_y(), off.cells_y());
    for (int cy = 0; cy < on.cells_y(); ++cy) {
      for (int cx = 0; cx < on.cells_x(); ++cx) {
        expect_bits_eq<float>(on.cell(cx, cy), off.cell(cx, cy));
      }
    }
  }
}

TEST(SimdKernels, AcfChannelsBitIdenticalAcrossOddGeometries) {
  Rng rng(29);
  // Widths straddling multiples of 4 aggregated cells (aw = w/4): tails of
  // 0..3 output blocks plus sub-block leftover source columns.
  for (int w : {4, 7, 16, 17, 23, 36}) {
    for (int h : {4, 9, 24}) {
      const imaging::Image src = random_image(w, h, 3, rng);
      const auto on = with_simd(1, [&] { return detect::compute_acf_channels(src); });
      const auto off = with_simd(0, [&] { return detect::compute_acf_channels(src); });
      ASSERT_EQ(on.width, off.width);
      ASSERT_EQ(on.height, off.height);
      expect_bits_eq<float>(on.data, off.data);
    }
  }
}

TEST(SimdKernels, BlockGridScoreMapBitIdenticalAndMatchesWindowScore) {
  Rng rng(31);
  const imaging::Image src = random_image(96, 80, 1, rng);
  const features::HogParams params;
  const int wcx = 6;
  const int wcy = 6;
  detect::LinearModel model;
  const int wbx = wcx - params.block_size + 1;
  const int wby = wcy - params.block_size + 1;
  model.weights.resize(static_cast<std::size_t>(wbx * wby * params.block_size *
                                                params.block_size * params.bins));
  for (float& w : model.weights) w = static_cast<float>(rng.uniform(-1.0, 1.0));
  model.bias = 0.125f;

  const detect::BlockGrid grid = with_simd(1, [&] { return detect::BlockGrid(src, params); });
  const detect::ScoreMap on = with_simd(1, [&] { return grid.score_map(model, wcx, wcy); });
  const detect::ScoreMap off = with_simd(0, [&] { return grid.score_map(model, wcx, wcy); });
  ASSERT_EQ(on.width, off.width);
  ASSERT_EQ(on.height, off.height);
  ASSERT_GT(on.width % 4, 0) << "geometry must exercise the anchor tail";
  expect_bits_eq<float>(on.scores, off.scores);
  for (int ay = 0; ay < on.height; ++ay) {
    for (int ax = 0; ax < on.width; ++ax) {
      ASSERT_EQ(on.at(ax, ay), grid.window_score(model, ax, ay, wcx, wcy)) << ax << "," << ay;
    }
  }
}

TEST(SimdKernels, CensusWindowScoresRowBitIdenticalAndMatchesWindowScore) {
  Rng rng(37);
  // 12x13 cells -> a 7-window row: one 4-wide vector group plus a 3-tail.
  const imaging::Image src = random_image(12 * detect::kCensusCell, 13 * detect::kCensusCell, 1, rng);
  detect::LinearModel model;
  model.weights.resize(static_cast<std::size_t>(detect::kCensusCellsX * detect::kCensusCellsY *
                                                detect::kCensusBins));
  for (float& w : model.weights) w = static_cast<float>(rng.uniform(-1.0, 1.0));
  model.bias = -0.25f;

  const detect::CensusCellGrid grid =
      with_simd(1, [&] { return detect::CensusCellGrid(src); });
  const int count = grid.cells_x() - detect::kCensusCellsX + 1;
  ASSERT_EQ(count, 7);
  std::vector<float> on(static_cast<std::size_t>(count));
  std::vector<float> off(static_cast<std::size_t>(count));
  with_simd(1, [&] {
    grid.window_scores_row(model, 0, 0, count, on.data(), nullptr);
    return 0;
  });
  with_simd(0, [&] {
    grid.window_scores_row(model, 0, 0, count, off.data(), nullptr);
    return 0;
  });
  expect_bits_eq<float>(on, off);
  for (int j = 0; j < count; ++j) {
    ASSERT_EQ(on[static_cast<std::size_t>(j)], grid.window_score(model, j, 0, nullptr)) << j;
  }
}

TEST(SimdKernels, MatrixProductsBitIdenticalAcrossOddDims) {
  Rng rng(41);
  for (auto [m, k, n] : {std::tuple{1, 1, 1}, {3, 5, 7}, {7, 13, 5}, {16, 17, 9}}) {
    linalg::Matrix a(m, k);
    linalg::Matrix b(k, n);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < k; ++j) a(i, j) = rng.uniform() < 0.3 ? 0.0 : rng.uniform(-2.0, 2.0);
    }
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < n; ++j) b(i, j) = rng.uniform(-2.0, 2.0);
    }
    const linalg::Matrix on = with_simd(1, [&] { return a * b; });
    const linalg::Matrix off = with_simd(0, [&] { return a * b; });
    for (int i = 0; i < m; ++i) expect_bits_eq<double>(on.row(i), off.row(i));

    linalg::Matrix at(k, m);
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < m; ++j) at(i, j) = a(j, i);
    }
    const linalg::Matrix ton = with_simd(1, [&] { return linalg::transpose_times(at, b); });
    const linalg::Matrix toff = with_simd(0, [&] { return linalg::transpose_times(at, b); });
    for (int i = 0; i < m; ++i) {
      expect_bits_eq<double>(ton.row(i), toff.row(i));
      // transpose_times(at, b) == a * b entry-wise by construction.
      expect_bits_eq<double>(ton.row(i), on.row(i));
    }
  }
}

TEST(SimdKernels, LinearSvmTrainingBitIdentical) {
  Rng data_rng(43);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 24; ++i) {
    std::vector<float> f(11);  // Odd dim: 2 vector groups + 3-lane tail.
    const int label = i % 2 == 0 ? 1 : -1;
    for (float& v : f) {
      v = static_cast<float>(data_rng.uniform() + (label == 1 ? 0.5 : -0.5));
    }
    x.push_back(std::move(f));
    y.push_back(label);
  }
  const auto train = [&] {
    Rng rng(4242);
    return detect::train_linear_svm(x, y, rng);
  };
  const detect::LinearModel on = with_simd(1, train);
  const detect::LinearModel off = with_simd(0, train);
  EXPECT_EQ(on.bias, off.bias);
  expect_bits_eq<float>(on.weights, off.weights);
}

// Operand bit patterns that exercise every atan2f path: signed zeros,
// denormals, infinities, quiet/signalling NaNs, each atanf reduction
// boundary with its neighbors, and the exponent-gap guard thresholds.
constexpr std::uint32_t kAtanSpecialBits[] = {
    0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u, 0x007FFFFFu, 0x807FFFFFu,
    0x00800000u, 0x3F800000u, 0xBF800000u, 0x7F7FFFFFu, 0xFF7FFFFFu, 0x7F800000u,
    0xFF800000u, 0x7FC00000u, 0xFFC00001u, 0x7F800001u, 0x7FFFFFFFu, 0x30FFFFFFu,
    0x31000000u, 0x3EDFFFFFu, 0x3EE00000u, 0x3F300000u, 0x3F980000u, 0x401C0000u,
    0x4BFFFFFFu, 0x4C000000u, 0x4C800000u, 0x5DFFFFFFu, 0x5E000000u, 0x0DA24260u,
    0x40490FDBu, 0xC0490FDBu, 0x3FC90FDBu, 0x61800000u, 0xE1800000u,
};

// Anchor values computed by glibc 2.36's fdlibm atan2f (the libm the
// committed goldens were recorded against). These hold on EVERY host — they
// pin the vendored replica itself, independent of the host libm.
TEST(Atan2Portable, MatchesRecordedFdlibmAnchors) {
  const struct {
    std::uint32_t y, x, want;
  } kAnchors[] = {
      {0x3F800000u, 0x3F800000u, 0x3F490FDBu},  // atan2(1, 1) = pi/4
      {0xBF800000u, 0x3F800000u, 0xBF490FDBu},  // atan2(-1, 1) = -pi/4
      {0x3F800000u, 0xBF800000u, 0x4016CBE4u},  // atan2(1, -1) = 3pi/4
      {0xBF800000u, 0xBF800000u, 0xC016CBE4u},  // atan2(-1, -1) = -3pi/4
      {0x3F800000u, 0x40000000u, 0x3EED6338u},  // atan2(1, 2)
      {0x40490FDBu, 0x402DF854u, 0x3F5B85E5u},  // atan2(pi, e)
      {0x3DCCCCCDu, 0x3F800000u, 0x3DCC1F14u},  // atan2(0.1, 1)
      {0x42C80000u, 0x3F800000u, 0x3FC7C82Fu},  // atan2(100, 1)
      {0x7F800000u, 0x7F800000u, 0x3F490FDBu},  // atan2(inf, inf) = pi/4
      {0x00000000u, 0xBF800000u, 0x40490FDBu},  // atan2(+0, -1) = pi
      {0x80000001u, 0x7F7FFFFFu, 0x80000000u},  // quotient underflows to -0
  };
  for (const auto& a : kAnchors) {
    const float got = simd::atan2f_portable(std::bit_cast<float>(a.y), std::bit_cast<float>(a.x));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got), a.want)
        << "y=" << std::hex << a.y << " x=" << a.x;
  }
}

// On hosts whose libm IS classic fdlibm, the replica must agree bit-for-bit
// on a broad sample. Skipped elsewhere (glibc >= 2.39 rounds correctly,
// which fdlibm does not) — there the anchors above carry the contract;
// tools/atan2_exhaustive has the full 2^32 sweep.
TEST(Atan2Portable, MatchesHostLibmWhenHostIsFdlibm) {
  for (std::uint32_t by : kAtanSpecialBits) {
    for (std::uint32_t bx : kAtanSpecialBits) {
      const float y = std::bit_cast<float>(by);
      const float x = std::bit_cast<float>(bx);
      if (std::bit_cast<std::uint32_t>(simd::atan2f_portable(y, x)) !=
          std::bit_cast<std::uint32_t>(std::atan2(y, x))) {
        GTEST_SKIP() << "host libm is not fdlibm; vendored values pinned by anchors instead";
      }
    }
  }
  Rng rng(77);
  for (int i = 0; i < 200000; ++i) {
    const auto y = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64() >> 32));
    const auto x = std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64() >> 32));
    ASSERT_EQ(std::bit_cast<std::uint32_t>(simd::atan2f_portable(y, x)),
              std::bit_cast<std::uint32_t>(std::atan2(y, x)))
        << "y=" << std::hexfloat << y << " x=" << x;
  }
}

// The pack kernel must reproduce the scalar replica in every lane, in both
// the native and emulated backends, including the special-operand fallback.
template <class F4>
void expect_pack_matches_scalar(int random_iters = 100000) {
  constexpr int W = F4::kLanes;
  const auto check = [](const float* ys, const float* xs) {
    float out[W];
    simd::atan2f_pack<F4>(F4::load(ys), F4::load(xs)).store(out);
    for (int i = 0; i < W; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
                std::bit_cast<std::uint32_t>(simd::atan2f_portable(ys[i], xs[i])))
          << "lane " << i << " y=" << std::hexfloat << ys[i] << " x=" << xs[i];
    }
  };
  Rng rng(78);
  const auto rand_bits = [&] {
    return std::bit_cast<float>(static_cast<std::uint32_t>(rng.next_u64() >> 32));
  };
  for (std::uint32_t by : kAtanSpecialBits) {
    for (std::uint32_t bx : kAtanSpecialBits) {
      // Specials mixed with random lanes: the fallback must patch exactly
      // the special lanes and leave the vector lanes untouched.
      float ys[W];
      float xs[W];
      for (int j = 0; j < W; ++j) {
        const bool special = j == 0 || j == W - 1;
        ys[j] = special ? std::bit_cast<float>(by) : rand_bits();
        xs[j] = special ? std::bit_cast<float>(bx) : rand_bits();
      }
      check(ys, xs);
    }
  }
  for (int i = 0; i < random_iters; ++i) {
    float ys[W];
    float xs[W];
    for (int j = 0; j < W; ++j) {
      ys[j] = rand_bits();
      xs[j] = rand_bits();
    }
    check(ys, xs);
  }
  // Gradient-realistic small magnitudes (the hot kernel's actual operands).
  for (int i = 0; i < random_iters; ++i) {
    float ys[W];
    float xs[W];
    for (int j = 0; j < W; ++j) {
      ys[j] = static_cast<float>(rng.uniform() * 4.0 - 2.0);
      xs[j] = static_cast<float>(rng.uniform() * 4.0 - 2.0);
    }
    check(ys, xs);
  }
}

TEST(Atan2Pack, NativeMatchesScalarReplica) { expect_pack_matches_scalar<simd::F32x4>(); }

TEST(Atan2Pack, EmulationMatchesScalarReplica) { expect_pack_matches_scalar<simd::F32x4Emul>(); }

// Every wider backend (native when compiled in + CPU-supported, and the
// always-present emulation twins) must agree with the scalar replica on
// every lane; the 128-bit pair is pinned by the two tests above.
TEST(Atan2Pack, WidePacksMatchScalarReplica) {
  simd::for_each_isa([](auto isa) {
    using F = typename decltype(isa)::F32;
    if constexpr (F::kLanes > 4) {
      SCOPED_TRACE(testing::Message() << "lanes=" << F::kLanes
                                      << " native=" << decltype(isa)::kIsNative);
      expect_pack_matches_scalar<F>(25000);
    }
  });
}


// ---------------------------------------------------------------------------
// Virtual-width sweep: every mode the EECS_SIMD knob accepts must reproduce
// the scalar baseline bit for bit — native tiers and their forced-emulation
// twins alike — on geometries whose tails are odd for 4, 8, AND 16 lanes.
// ---------------------------------------------------------------------------

TEST(SimdWidths, ModesResolveToDocumentedDispatch) {
  {
    const simd::ScopedSimd m(0);
    EXPECT_STREQ(simd::dispatch_name(), "scalar");
    EXPECT_EQ(simd::dispatch_width(), 128);
    EXPECT_FALSE(simd::enabled());
  }
  {
    const simd::ScopedSimd m(-256);
    EXPECT_STREQ(simd::dispatch_name(), "emul256");
    EXPECT_EQ(simd::dispatch_width(), 256);
    EXPECT_FALSE(simd::enabled());
  }
  {
    const simd::ScopedSimd m(-512);
    EXPECT_STREQ(simd::dispatch_name(), "emul512");
    EXPECT_EQ(simd::dispatch_width(), 512);
    EXPECT_FALSE(simd::enabled());
  }
  {
    // Width requests always honour the width; whether the backend is native
    // depends on what this build + CPU offer.
    const simd::ScopedSimd m(256);
    EXPECT_EQ(simd::dispatch_width(), 256);
  }
  {
    const simd::ScopedSimd m(512);
    EXPECT_EQ(simd::dispatch_width(), 512);
  }
}

/// One pass of every lane-blocked kernel on fixed inputs; byte streams are
/// concatenated so a single bitwise compare covers the whole battery. The
/// geometries leave non-multiple-of-lane tails at every width (69 = 16*4+5
/// source columns, aw = 17 aggregated blocks, 7-window census rows).
struct KernelBattery {
  std::vector<float> f32;
  std::vector<double> f64;
  std::vector<std::uint8_t> u8;
};

KernelBattery run_kernel_battery() {
  KernelBattery out;
  Rng rng(97);
  const imaging::Image rgb = random_image(69, 43, 3, rng);
  const imaging::Image gray = random_image(69, 43, 1, rng);
  const auto take_f32 = [&](std::span<const float> v) {
    out.f32.insert(out.f32.end(), v.begin(), v.end());
  };

  const imaging::Image resized = imaging::resize(rgb, 37, 21);
  take_f32(resized.data());
  take_f32(imaging::gaussian_blur(gray, 1.3f).data());
  const imaging::Gradients grads = imaging::compute_gradients(gray);
  take_f32(grads.magnitude.data());
  take_f32(grads.orientation.data());

  const std::vector<std::uint8_t> codes = features::census_transform(gray);
  out.u8.insert(out.u8.end(), codes.begin(), codes.end());

  const detect::ChannelMap acf = detect::compute_acf_channels(rgb);
  take_f32(acf.data);

  features::HogParams hog_params;
  hog_params.cell_size = 5;  // 1-pixel lane tail per cell row.
  const features::HogGrid hog = features::compute_hog_grid(gray, hog_params);
  for (int cy = 0; cy < hog.cells_y(); ++cy) {
    for (int cx = 0; cx < hog.cells_x(); ++cx) take_f32(hog.cell(cx, cy));
  }

  {
    const features::HogParams params;
    detect::LinearModel model;
    const int wbx = 6 - params.block_size + 1;
    model.weights.resize(static_cast<std::size_t>(wbx * wbx * params.block_size *
                                                  params.block_size * params.bins));
    for (float& w : model.weights) w = static_cast<float>(rng.uniform(-1.0, 1.0));
    model.bias = 0.125f;
    const detect::BlockGrid grid(gray, params);
    const detect::ScoreMap map = grid.score_map(model, 6, 6);
    take_f32(map.scores);
  }
  {
    detect::LinearModel model;
    model.weights.resize(static_cast<std::size_t>(detect::kCensusCellsX *
                                                  detect::kCensusCellsY * detect::kCensusBins));
    for (float& w : model.weights) w = static_cast<float>(rng.uniform(-1.0, 1.0));
    model.bias = -0.25f;
    // 30x13 cells: a 25-window row — full blocks plus a tail at every width.
    const detect::CensusCellGrid grid(random_image(245, 107, 1, rng));
    const int count = grid.cells_x() - detect::kCensusCellsX + 1;
    std::vector<float> row(static_cast<std::size_t>(count));
    grid.window_scores_row(model, 0, 0, count, row.data(), nullptr);
    take_f32(row);
  }

  const imaging::IntegralImage integral(gray);
  for (int x1 : {1, 17, 43, 69}) out.f64.push_back(integral.rect_sum(0, 0, x1, 43));

  {
    // 34-point lattice rows: interiors of 31, 29 and 27 points leave a tail
    // at every width. A zero threshold keeps every local maximum.
    features::KeypointParams params;
    params.scales = {1, 2, 3};
    params.response_threshold = 0.0f;
    for (const features::Keypoint& kp : features::detect_keypoints(gray, params)) {
      out.f32.insert(out.f32.end(), {kp.x, kp.y, kp.scale, kp.response});
    }
  }

  linalg::Matrix a(7, 13);
  linalg::Matrix b(13, 5);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 13; ++j) a(i, j) = rng.uniform(-2.0, 2.0);
  }
  for (int i = 0; i < 13; ++i) {
    for (int j = 0; j < 5; ++j) b(i, j) = rng.uniform(-2.0, 2.0);
  }
  const linalg::Matrix prod = a * b;
  for (int i = 0; i < 7; ++i) {
    out.f64.insert(out.f64.end(), prod.row(i).begin(), prod.row(i).end());
  }
  return out;
}

TEST(SimdWidths, KernelBatteryBitIdenticalAcrossAllModes) {
  const KernelBattery ref = with_simd(0, run_kernel_battery);
  ASSERT_FALSE(ref.f32.empty());
  for (int mode : {1, 128, 256, 512, -128, -256, -512}) {
    SCOPED_TRACE(testing::Message() << "mode=" << mode);
    const KernelBattery got = with_simd(mode, run_kernel_battery);
    expect_bits_eq<float>(ref.f32, got.f32);
    expect_bits_eq<double>(ref.f64, got.f64);
    expect_bits_eq<std::uint8_t>(ref.u8, got.u8);
  }
}

// Pack-level A/B at every width: each available native backend against its
// same-width emulation twin, on the rounding-edge value grid.
TEST(SimdPacks, AllIsaF32OpsMatchSameWidthEmulation) {
  simd::for_each_isa([](auto isa) {
    using F = typename decltype(isa)::F32;
    using E = simd::F32xEmul<F::kLanes>;
    constexpr int W = F::kLanes;
    SCOPED_TRACE(testing::Message() << "lanes=" << W << " native=" << decltype(isa)::kIsNative);
    constexpr int N = static_cast<int>(std::size(kTrickyF));
    for (int base = 0; base < N; ++base) {
      float va[W];
      float vb[W];
      for (int j = 0; j < W; ++j) {
        va[j] = kTrickyF[(base + j) % N];
        vb[j] = kTrickyF[(base + 2 * j + 1) % N];
      }
      const F na = F::load(va);
      const F nb = F::load(vb);
      const E ea = E::load(va);
      const E eb = E::load(vb);
      float n[W];
      float e[W];
      const auto check = [&](F nv, E ev) {
        nv.store(n);
        ev.store(e);
        expect_bits_eq<float>(n, e);
      };
      check(na + nb, ea + eb);
      check(na - nb, ea - eb);
      check(na * nb, ea * eb);
      check(na / nb, ea / eb);
      check(F::min(na, nb), E::min(ea, eb));
      check(F::max(na, nb), E::max(ea, eb));
      check(F::floor(na), E::floor(ea));
      check(F::abs(na), E::abs(ea));
      check(F::select(F::gt(na, nb), na, nb), E::select(E::gt(ea, eb), ea, eb));
      for (int j = 0; j < W; ++j) {
        EXPECT_EQ(F::gt(na, nb).extract(j), E::gt(ea, eb).extract(j));
        EXPECT_EQ(F::lt(na, nb).extract(j), E::lt(ea, eb).extract(j));
        EXPECT_EQ(F::ge(na, nb).extract(j), E::ge(ea, eb).extract(j));
      }
    }
    // Gathers: indexed, strided, and the float->double strided form.
    float src[4 * W + 3];
    for (int i = 0; i < 4 * W + 3; ++i) src[i] = kTrickyF[i % N];
    int idx[W];
    for (int j = 0; j < W; ++j) idx[j] = (j * 3 + 1) % (4 * W);
    float n[W];
    float e[W];
    F::gather(src, idx).store(n);
    E::gather(src, idx).store(e);
    expect_bits_eq<float>(n, e);
    F::gather_stride(src, 3).store(n);
    E::gather_stride(src, 3).store(e);
    expect_bits_eq<float>(n, e);
    using D = typename decltype(isa)::F64;
    using ED = simd::F64xEmul<D::kLanes>;
    double dn[D::kLanes];
    double de[D::kLanes];
    D::gather2f(src, 3).store(dn);
    ED::gather2f(src, 3).store(de);
    expect_bits_eq<double>(dn, de);
  });
}

// F64 division and the even-lane load at every width, against the same-width
// emulation twin on a double rounding-edge grid (zeros, subnormals, huge and
// non-representable values).
TEST(SimdPacks, AllIsaF64DivideAndEvenLoadMatchSameWidthEmulation) {
  const double grid[] = {0.0,   -0.0,    1.0,    -1.0,   0.1,     -0.1,     0.81,
                         3.0,   -3.0,    36.0,   1e300,  -1e300,  1e-300,   -4.9e-324,
                         2.5,   1e16,    -7.25,  1.0 / 3.0, 786432.0, 1048575.5, 0.5};
  constexpr int N = static_cast<int>(std::size(grid));
  simd::for_each_isa([&](auto isa) {
    using D = typename decltype(isa)::F64;
    using E = simd::F64xEmul<D::kLanes>;
    constexpr int W = D::kLanes;
    SCOPED_TRACE(testing::Message() << "lanes=" << W << " native=" << decltype(isa)::kIsNative);
    double n[W];
    double e[W];
    for (int base = 0; base < N; ++base) {
      double va[W];
      double vb[W];
      for (int j = 0; j < W; ++j) {
        va[j] = grid[(base + j) % N];
        vb[j] = grid[(base + 2 * j + 1) % N];
      }
      (D::load(va) / D::load(vb)).store(n);
      (E::load(va) / E::load(vb)).store(e);
      expect_bits_eq<double>(n, e);
    }
    // The native load reads 2W doubles from p; the last is outside every lane.
    double src[2 * W + N];
    for (int i = 0; i < 2 * W + N; ++i) src[i] = grid[i % N];
    for (int offset = 0; offset < N; ++offset) {
      D::load_even(src + offset).store(n);
      E::load_even(src + offset).store(e);
      expect_bits_eq<double>(n, e);
      for (int j = 0; j < W; ++j) EXPECT_EQ(std::memcmp(&n[j], &src[offset + 2 * j], 8), 0);
    }
  });
}

}  // namespace
}  // namespace eecs
