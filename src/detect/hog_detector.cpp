#include "detect/hog_detector.hpp"

#include <algorithm>
#include <cmath>

#include "detect/frame_cache.hpp"
#include "detect/nms.hpp"
#include "detect/sweep_scheduler.hpp"

namespace eecs::detect {

std::vector<float> patch_hog_descriptor(const imaging::Image& patch) {
  EECS_EXPECTS(patch.width() == kWindowWidth && patch.height() == kWindowHeight);
  const BlockGrid grid(patch);
  return grid.window_descriptor(0, 0, kWindowCellsX, kWindowCellsY);
}

void HogDetector::train(const TrainingSet& training_set, Rng& rng) {
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  x.reserve(training_set.positives.size() + training_set.negatives.size());
  for (const auto& p : training_set.positives) {
    x.push_back(patch_hog_descriptor(p));
    y.push_back(1);
  }
  for (const auto& n : training_set.negatives) {
    x.push_back(patch_hog_descriptor(n));
    y.push_back(-1);
  }
  model_ = train_linear_svm(x, y, rng);

  std::vector<double> pos_scores, neg_scores;
  for (std::size_t i = 0; i < x.size(); ++i) {
    (y[i] == 1 ? pos_scores : neg_scores).push_back(model_.score(x[i]));
  }
  fit_score_calibration(pos_scores, neg_scores);
}

std::vector<Detection> HogDetector::run(FramePrecompute& pre, energy::CostCounter* cost) const {
  EECS_EXPECTS(trained());
  std::vector<Detection> candidates;
  const imaging::Image& frame = pre.frame();
  const int cell = hog_params_.cell_size;
  const int bs = hog_params_.block_size;
  const SweepGate* gate = pre.gate();

  for (double scale : scales_) {
    const int sw = static_cast<int>(std::lround(frame.width() * scale));
    const int sh = static_cast<int>(std::lround(frame.height() * scale));
    if (sw < kWindowWidth || sh < kWindowHeight) continue;
    // Anchor geometry from the dims alone (same arithmetic as BlockGrid's
    // construction), so a fully pruned scale is accounted before any resize
    // or channel work happens.
    const int blocks_x = std::max(0, sw / cell - bs + 1);
    const int blocks_y = std::max(0, sh / cell - bs + 1);
    const int max_cx = blocks_x - (kWindowCellsX - bs + 1);
    const int max_cy = blocks_y - (kWindowCellsY - bs + 1);
    const auto row_windows = max_cx >= 0 ? static_cast<std::uint64_t>(max_cx) + 1 : 0;
    const auto full_rows = max_cy >= 0 ? static_cast<std::uint64_t>(max_cy) + 1 : 0;
    const RowInterval anchors = gated_anchor_rows(gate, sw, sh, cell, 0, max_cy);
    const auto kept_rows =
        anchors.empty() ? 0 : static_cast<std::uint64_t>(anchors.hi - anchors.lo) + 1;
    if (cost != nullptr) {
      cost->add_windows(row_windows * kept_rows, row_windows * (full_rows - kept_rows));
    }
    if (gate != nullptr && anchors.empty()) continue;  // Scale infeasible: no work at all.
    const imaging::Image& scaled = pre.scaled(sw, sh);
    if (cost != nullptr) cost->add_pixels(scaled.pixel_count());

    const BlockGrid& grid = pre.block_grid(sw, sh, hog_params_, cost);
    EECS_EXPECTS(grid.blocks_x() == blocks_x && grid.blocks_y() == blocks_y);

    auto emit = [&](int cx, int cy, float s) {
      if (s <= params_.score_floor) return;
      Detection d;
      d.box = window_to_person_box({cx * cell / scale, cy * cell / scale, kWindowWidth / scale, kWindowHeight / scale});
      d.score = s;
      d.probability = calibrated_probability(s);
      candidates.push_back(d);
    };

    if (pre.force_naive()) {
      for (int cy = anchors.lo; cy <= anchors.hi; ++cy) {
        for (int cx = 0; cx <= max_cx; ++cx) {
          emit(cx, cy, grid.window_score(model_, cx, cy, kWindowCellsX, kWindowCellsY, cost));
        }
      }
    } else {
      const ScoreMap map =
          grid.score_map(model_, kWindowCellsX, kWindowCellsY, anchors.lo, anchors.hi);
      // Same per-window classifier charge as the naive scan (the map itself
      // charges nothing); its anchor range equals the window-scan range.
      const auto per_window = static_cast<std::uint64_t>(
          (kWindowCellsX - hog_params_.block_size + 1) *
          (kWindowCellsY - hog_params_.block_size + 1) * grid.block_dim());
      if (cost != nullptr && !map.empty()) {
        cost->add_classifier(per_window * static_cast<std::uint64_t>(map.width) *
                             static_cast<std::uint64_t>(map.height));
      }
      for (int cy = 0; cy < map.height; ++cy) {
        for (int cx = 0; cx < map.width; ++cx) emit(cx, map.y0 + cy, map.at(cx, cy));
      }
    }
  }
  return non_max_suppression(std::move(candidates), params_.nms_iou);
}

}  // namespace eecs::detect
