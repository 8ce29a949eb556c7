#include "detect/c4_detector.hpp"

#include <algorithm>
#include <cmath>

#include "common/simd.hpp"
#include "detect/frame_cache.hpp"
#include "detect/nms.hpp"
#include "features/census.hpp"

namespace eecs::detect {

CensusCellGrid::CensusCellGrid(const imaging::Image& img, energy::CostCounter* cost) {
  const std::vector<std::uint8_t> codes = features::census_transform(img, cost);
  build(codes.data(), img.width(), img.height(), cost);
}

CensusCellGrid::CensusCellGrid(const std::vector<std::uint8_t>& codes, int width, int height,
                               energy::CostCounter* cost) {
  EECS_EXPECTS(static_cast<std::size_t>(width) * static_cast<std::size_t>(height) == codes.size());
  build(codes.data(), width, height, cost);
}

void CensusCellGrid::build(const std::uint8_t* codes, int width, int height,
                           energy::CostCounter* cost) {
  cells_x_ = width / kCensusCell;
  cells_y_ = height / kCensusCell;
  hist_.assign(static_cast<std::size_t>(cells_x_) * static_cast<std::size_t>(cells_y_) *
                   static_cast<std::size_t>(kCensusBins),
               0.0f);
  sq_norm_.assign(static_cast<std::size_t>(cells_x_) * static_cast<std::size_t>(cells_y_), 0.0f);

  for (int cy = 0; cy < cells_y_; ++cy) {
    for (int cx = 0; cx < cells_x_; ++cx) {
      float* hist = hist_.data() + (static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_x_) +
                                    static_cast<std::size_t>(cx)) *
                                       static_cast<std::size_t>(kCensusBins);
      for (int dy = 0; dy < kCensusCell; ++dy) {
        const std::uint8_t* row = codes + static_cast<std::size_t>(cy * kCensusCell + dy) *
                                              static_cast<std::size_t>(width) +
                                  static_cast<std::size_t>(cx * kCensusCell);
        for (int dx = 0; dx < kCensusCell; ++dx) {
          hist[row[dx] >> 4] += 1.0f;
        }
      }
      float sq = 0.0f;
      for (int b = 0; b < kCensusBins; ++b) sq += hist[b] * hist[b];
      sq_norm_[static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_x_) +
               static_cast<std::size_t>(cx)] = sq;
    }
  }
  if (cost != nullptr) {
    cost->add_features(static_cast<std::size_t>(width) * static_cast<std::size_t>(height));
  }
}

std::span<const float> CensusCellGrid::cell(int cx, int cy) const {
  EECS_EXPECTS(cx >= 0 && cx < cells_x_ && cy >= 0 && cy < cells_y_);
  return {hist_.data() + (static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_x_) +
                          static_cast<std::size_t>(cx)) *
                             static_cast<std::size_t>(kCensusBins),
          static_cast<std::size_t>(kCensusBins)};
}

float CensusCellGrid::cell_sq_norm(int cx, int cy) const {
  EECS_EXPECTS(cx >= 0 && cx < cells_x_ && cy >= 0 && cy < cells_y_);
  return sq_norm_[static_cast<std::size_t>(cy) * static_cast<std::size_t>(cells_x_) +
                  static_cast<std::size_t>(cx)];
}

std::vector<float> CensusCellGrid::window_descriptor(int cell_x0, int cell_y0) const {
  EECS_EXPECTS(cell_x0 + kCensusCellsX <= cells_x_ && cell_y0 + kCensusCellsY <= cells_y_);
  std::vector<float> desc;
  desc.reserve(static_cast<std::size_t>(kCensusCellsX * kCensusCellsY * kCensusBins));
  double sq = 0.0;
  for (int cy = 0; cy < kCensusCellsY; ++cy) {
    for (int cx = 0; cx < kCensusCellsX; ++cx) {
      const auto h = cell(cell_x0 + cx, cell_y0 + cy);
      desc.insert(desc.end(), h.begin(), h.end());
      sq += cell_sq_norm(cell_x0 + cx, cell_y0 + cy);
    }
  }
  const float norm = static_cast<float>(std::sqrt(sq) + 1e-9);
  for (auto& v : desc) v /= norm;
  return desc;
}

float CensusCellGrid::window_score(const LinearModel& model, int cell_x0, int cell_y0,
                                   energy::CostCounter* cost) const {
  EECS_EXPECTS(cell_x0 >= 0 && cell_y0 >= 0);
  EECS_EXPECTS(cell_x0 + kCensusCellsX <= cells_x_ && cell_y0 + kCensusCellsY <= cells_y_);
  EECS_EXPECTS(static_cast<int>(model.weights.size()) ==
               kCensusCellsX * kCensusCellsY * kCensusBins);

  double raw = 0.0;
  double sq = 0.0;
  const float* w = model.weights.data();
  // Cells along a row are contiguous in hist_ (and sq_norm_), so each grid
  // row is one flat dot product / sum. `raw` and `sq` are independent
  // accumulator chains and each keeps its original term order, so the result
  // matches the per-cell form bit for bit.
  constexpr std::size_t kRowLen =
      static_cast<std::size_t>(kCensusCellsX) * static_cast<std::size_t>(kCensusBins);
  for (int cy = 0; cy < kCensusCellsY; ++cy) {
    const std::size_t cell0 = static_cast<std::size_t>(cell_y0 + cy) *
                                  static_cast<std::size_t>(cells_x_) +
                              static_cast<std::size_t>(cell_x0);
    const float* h = hist_.data() + cell0 * static_cast<std::size_t>(kCensusBins);
    for (std::size_t i = 0; i < kRowLen; ++i) {
      raw += static_cast<double>(w[i]) * static_cast<double>(h[i]);
    }
    const float* sn = sq_norm_.data() + cell0;
    for (int cx = 0; cx < kCensusCellsX; ++cx) sq += sn[cx];
    w += kRowLen;
  }
  if (cost != nullptr) {
    cost->add_classifier(static_cast<std::uint64_t>(kCensusCellsX * kCensusCellsY * kCensusBins));
  }
  const double norm = std::sqrt(sq) + 1e-9;
  return static_cast<float>(raw / norm + model.bias);
}

void CensusCellGrid::window_scores_row(const LinearModel& model, int cell_x0, int cell_y0,
                                       int count, float* out, energy::CostCounter* cost) const {
  EECS_EXPECTS(cell_x0 >= 0 && cell_y0 >= 0 && count >= 0);
  EECS_EXPECTS(cell_x0 + count - 1 + kCensusCellsX <= cells_x_);
  EECS_EXPECTS(cell_y0 + kCensusCellsY <= cells_y_);
  EECS_EXPECTS(static_cast<int>(model.weights.size()) ==
               kCensusCellsX * kCensusCellsY * kCensusBins);

  constexpr std::size_t kRowLen =
      static_cast<std::size_t>(kCensusCellsX) * static_cast<std::size_t>(kCensusBins);
  // Lanes run across adjacent windows (independent accumulator chains).
  // Window j+1's histogram row is window j's shifted by one cell (kCensusBins
  // floats), so the same weight stream feeds every window in the block; each
  // window's raw/sq chain keeps the exact per-window term order of
  // window_score, so results are bit-identical at every lane width.
  simd::dispatch([&](auto isa) {
    using D2 = typename decltype(isa)::F64;
    constexpr int K = D2::kLanes;
    const auto scores_block = [&](int j) {
      D2 r01 = D2::broadcast(0.0);
      D2 r23 = D2::broadcast(0.0);
      D2 q01 = D2::broadcast(0.0);
      D2 q23 = D2::broadcast(0.0);
      const float* w = model.weights.data();
      for (int cy = 0; cy < kCensusCellsY; ++cy) {
        const std::size_t cell0 = static_cast<std::size_t>(cell_y0 + cy) *
                                      static_cast<std::size_t>(cells_x_) +
                                  static_cast<std::size_t>(cell_x0 + j);
        const float* h = hist_.data() + cell0 * static_cast<std::size_t>(kCensusBins);
        constexpr std::size_t kBins = static_cast<std::size_t>(kCensusBins);
        for (std::size_t i = 0; i < kRowLen; ++i) {
          const D2 wi = D2::broadcast(static_cast<double>(w[i]));
          r01 = r01 + wi * D2::gather2f(h + i, kBins);
          r23 = r23 + wi * D2::gather2f(h + i + static_cast<std::size_t>(K) * kBins, kBins);
        }
        const float* sn = sq_norm_.data() + cell0;
        for (int cx = 0; cx < kCensusCellsX; ++cx) {
          q01 = q01 + D2::gather2f(sn + cx, 1);
          q23 = q23 + D2::gather2f(sn + cx + K, 1);
        }
        w += kRowLen;
      }
      const double bias = model.bias;
      for (int l = 0; l < K; ++l) {
        out[j + l] =
            static_cast<float>(r01.extract(l) / (std::sqrt(q01.extract(l)) + 1e-9) + bias);
        out[j + K + l] =
            static_cast<float>(r23.extract(l) / (std::sqrt(q23.extract(l)) + 1e-9) + bias);
      }
    };
    int j = 0;
    for (; j + 2 * K <= count; j += 2 * K) scores_block(j);
    for (; j < count; ++j) out[j] = window_score(model, cell_x0 + j, cell_y0, nullptr);
  });
  if (cost != nullptr && count > 0) {
    cost->add_classifier(static_cast<std::uint64_t>(count) *
                         static_cast<std::uint64_t>(kCensusCellsX * kCensusCellsY * kCensusBins));
  }
}

void C4Detector::train(const TrainingSet& training_set, Rng& rng) {
  const auto x = training_set.map<std::vector<float>>(
      [](const imaging::Image& patch) { return CensusCellGrid(patch).window_descriptor(0, 0); });
  const std::vector<int> y = training_set.labels();
  model_ = train_linear_svm(x, y, rng);

  std::vector<double> scores;
  for (const auto& row : x) scores.push_back(model_.score(row));
  fit_score_calibration(scores, y);
}

std::vector<Detection> C4Detector::run(FramePrecompute& pre, energy::CostCounter* cost) const {
  EECS_EXPECTS(trained());
  std::vector<Detection> candidates;

  for (const Rung& rung : rungs(pre.frame().width(), pre.frame().height())) {
    const int sw = rung.width;
    const int sh = rung.height;
    // C4 scans densely: the 8-pixel cell grid is evaluated at 4 anchor
    // offsets, giving an effective 4-pixel window stride (the original C4
    // slides its contour windows far more densely than HOG does). This is
    // the dominant share of its compute cost.
    constexpr int kOffsets[4][2] = {{0, 0}, {4, 0}, {0, 4}, {4, 4}};
    // Per-offset anchor geometry from the dims alone (census cells over the
    // offset crop), so pruned offsets — and fully pruned levels — are
    // accounted before any resize or census work happens. An offset whose
    // crop holds no window keeps empty rows and is skipped.
    int max_cx[4] = {};
    RowInterval anchors[4];
    bool any_rows = false;
    for (int i = 0; i < 4; ++i) {
      const int ox = kOffsets[i][0];
      const int oy = kOffsets[i][1];
      if (sw - ox < kWindowWidth || sh - oy < kWindowHeight) continue;
      max_cx[i] = (sw - ox) / kCensusCell - kCensusCellsX;
      const int max_cy = (sh - oy) / kCensusCell - kCensusCellsY;
      anchors[i] = sweep_rows(pre, rung, kCensusCell, oy, max_cx[i], max_cy, cost);
      any_rows = any_rows || !anchors[i].empty();
    }
    if (!any_rows) continue;  // Pruned by the gate: no work at all.
    const imaging::Image& scaled = level(pre, rung, cost);

    for (int i = 0; i < 4; ++i) {
      const RowInterval rows = anchors[i];
      if (rows.empty()) continue;  // Offset doesn't fit, or its band is pruned.
      const int ox = kOffsets[i][0];
      const int oy = kOffsets[i][1];
      if ((ox != 0 || oy != 0) && cost != nullptr) {
        cost->add_pixels(static_cast<std::size_t>(scaled.width() - ox) *
                         static_cast<std::size_t>(scaled.height() - oy));
      }

      const CensusCellGrid& grid = pre.census_grid(sw, sh, ox, oy, cost);
      const int row_windows = max_cx[i] + 1;
      EECS_EXPECTS(grid.cells_x() - kCensusCellsX == max_cx[i]);
      std::vector<float> row(static_cast<std::size_t>(row_windows));
      for (int cy = rows.lo; cy <= rows.hi; ++cy) {
        if (pre.force_naive()) {
          // Legacy path: one strictly-ordered dot product per window.
          for (int cx = 0; cx < row_windows; ++cx) {
            row[static_cast<std::size_t>(cx)] = grid.window_score(model_, cx, cy, cost);
          }
        } else {
          grid.window_scores_row(model_, 0, cy, row_windows, row.data(), cost);
        }
        for (int cx = 0; cx < row_windows; ++cx) {
          emit(candidates, rung, cx * kCensusCell + ox, cy * kCensusCell + oy,
               row[static_cast<std::size_t>(cx)]);
        }
      }
    }
  }
  return non_max_suppression(std::move(candidates), params_.nms_iou);
}

}  // namespace eecs::detect
