#include "detect/hog_detector.hpp"

#include <algorithm>

#include "detect/frame_cache.hpp"
#include "detect/nms.hpp"

namespace eecs::detect {

std::vector<float> patch_hog_descriptor(const imaging::Image& patch) {
  EECS_EXPECTS(patch.width() == kWindowWidth && patch.height() == kWindowHeight);
  const BlockGrid grid(patch);
  return grid.window_descriptor(0, 0, kWindowCellsX, kWindowCellsY);
}

void HogDetector::train(const TrainingSet& training_set, Rng& rng) {
  const auto x = training_set.map<std::vector<float>>(patch_hog_descriptor);
  const std::vector<int> y = training_set.labels();
  model_ = train_linear_svm(x, y, rng);

  std::vector<double> scores;
  for (const auto& row : x) scores.push_back(model_.score(row));
  fit_score_calibration(scores, y);
}

BlockGridLevel BlockGridLevel::scan(const Detector& detector, FramePrecompute& pre,
                                    const Rung& rung, const features::HogParams& hog,
                                    energy::CostCounter* cost) {
  const int cell = hog.cell_size;
  const int bs = hog.block_size;
  const int blocks_x = std::max(0, rung.width / cell - bs + 1);
  const int blocks_y = std::max(0, rung.height / cell - bs + 1);
  BlockGridLevel out;
  out.max_cx = blocks_x - (kWindowCellsX - bs + 1);
  const int max_cy = blocks_y - (kWindowCellsY - bs + 1);
  out.anchors = detector.sweep_rows(pre, rung, cell, 0, out.max_cx, max_cy, cost);
  if (out.anchors.empty()) return out;  // Pruned by the gate: no work at all.
  detector.level(pre, rung, cost);      // The resize the grid reads, charged here.
  out.grid = &pre.block_grid(rung.width, rung.height, hog, cost);
  EECS_EXPECTS(out.grid->blocks_x() == blocks_x && out.grid->blocks_y() == blocks_y);
  return out;
}

std::vector<Detection> HogDetector::run(FramePrecompute& pre, energy::CostCounter* cost) const {
  EECS_EXPECTS(trained());
  std::vector<Detection> candidates;
  const int cell = hog_params_.cell_size;

  for (const Rung& rung : rungs(pre.frame().width(), pre.frame().height())) {
    const auto [anchors, max_cx, level_grid] =
        BlockGridLevel::scan(*this, pre, rung, hog_params_, cost);
    if (level_grid == nullptr) continue;
    const BlockGrid& grid = *level_grid;

    if (pre.force_naive()) {
      for (int cy = anchors.lo; cy <= anchors.hi; ++cy) {
        for (int cx = 0; cx <= max_cx; ++cx) {
          emit(candidates, rung, cx * cell, cy * cell,
               grid.window_score(model_, cx, cy, kWindowCellsX, kWindowCellsY, cost));
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
        for (int cx = 0; cx < map.width; ++cx) {
          emit(candidates, rung, cx * cell, (map.y0 + cy) * cell, map.at(cx, cy));
        }
      }
    }
  }
  return non_max_suppression(std::move(candidates), params_.nms_iou);
}

}  // namespace eecs::detect
