#include "detect/lsvm_detector.hpp"

#include <algorithm>

#include "detect/frame_cache.hpp"
#include "detect/hog_detector.hpp"
#include "detect/nms.hpp"

namespace eecs::detect {

const std::array<PartSpec, kNumParts>& part_layout() {
  // Anchors chosen so that the part plus +/-1 cell of movement stays inside
  // the 6x12 window: x anchor in [1, 2], y anchor in [1, 8].
  static const std::array<PartSpec, kNumParts> kLayout{{
      {"head", 1, 1},
      {"torso", 2, 4},
      {"leg-left", 1, 8},
      {"leg-right", 2, 8},
  }};
  return kLayout;
}

void LsvmDetector::train(const TrainingSet& training_set, Rng& rng) {
  // One block grid per patch, in index slots: the root and every part read it.
  const auto grids =
      training_set.map<BlockGrid>([](const imaging::Image& patch) { return BlockGrid(patch); });
  const std::vector<int> y = training_set.labels();
  // Every patch's window at cell offset (cx, cy), in training order.
  const auto descriptors = [&](int cx, int cy, int cells_x, int cells_y) {
    std::vector<std::vector<float>> x;
    x.reserve(grids.size());
    for (const BlockGrid& g : grids) x.push_back(g.window_descriptor(cx, cy, cells_x, cells_y));
    return x;
  };

  // Root filter: identical pipeline to the HOG detector.
  root_ = train_linear_svm(descriptors(0, 0, kWindowCellsX, kWindowCellsY), y, rng);

  // Part filters: positives at their anchors, negatives at the same offsets.
  for (int p = 0; p < kNumParts; ++p) {
    const PartSpec& spec = part_layout()[static_cast<std::size_t>(p)];
    parts_[static_cast<std::size_t>(p)] = train_linear_svm(
        descriptors(spec.anchor_x, spec.anchor_y, kPartCells, kPartCells), y, rng);
  }

  // Calibrate on combined scores over the training patches.
  std::vector<double> scores;
  for (const BlockGrid& g : grids) scores.push_back(window_score(g, 0, 0, nullptr));
  fit_score_calibration(scores, y);
}

float LsvmDetector::window_score(const BlockGrid& grid, int cx, int cy,
                                 energy::CostCounter* cost) const {
  double s = grid.window_score(root_, cx, cy, kWindowCellsX, kWindowCellsY, cost);
  const int d = params_.displacement;
  for (int p = 0; p < kNumParts; ++p) {
    const PartSpec& spec = part_layout()[static_cast<std::size_t>(p)];
    const LinearModel& part = parts_[static_cast<std::size_t>(p)];
    double best = -1e30;
    for (int dy = -d; dy <= d; ++dy) {
      for (int dx = -d; dx <= d; ++dx) {
        const int px = cx + spec.anchor_x + dx;
        const int py = cy + spec.anchor_y + dy;
        const int pbx = kPartCells - 1;  // Part spans pbx x pbx blocks (block_size 2).
        if (px < 0 || py < 0 || px + pbx > grid.blocks_x() || py + pbx > grid.blocks_y()) continue;
        const double score =
            grid.window_score(part, px, py, kPartCells, kPartCells, cost) -
            params_.deformation_cost * static_cast<double>(dx * dx + dy * dy);
        best = std::max(best, score);
      }
    }
    if (best > -1e29) s += params_.part_weight * best;
  }
  return static_cast<float>(s);
}

std::vector<Detection> LsvmDetector::run(FramePrecompute& pre, energy::CostCounter* cost) const {
  EECS_EXPECTS(trained());
  std::vector<Detection> candidates;
  const int cell = hog_params_.cell_size;
  const int bs = hog_params_.block_size;

  for (const Rung& rung : rungs(pre.frame().width(), pre.frame().height())) {
    // The root shares HOG's window geometry.
    const auto [anchors, max_cx, level_grid] =
        BlockGridLevel::scan(*this, pre, rung, hog_params_, cost);
    if (level_grid == nullptr) continue;
    const BlockGrid& grid = *level_grid;

    if (pre.force_naive()) {
      for (int cy = anchors.lo; cy <= anchors.hi; ++cy) {
        for (int cx = 0; cx <= max_cx; ++cx) {
          emit(candidates, rung, cx * cell, cy * cell, window_score(grid, cx, cy, cost));
        }
      }
      continue;
    }

    // Score maps: the root filter once per anchor, and each part filter once
    // per absolute part position — the +/-displacement search means up to
    // (2d+1)^2 root windows share every part evaluation, which is where the
    // bulk of the naive cost went. Maps are ranged to the retained anchor
    // band; each part map covers every position its retained roots can reach
    // (anchor +/- displacement), so lookups below stay in range.
    const ScoreMap root_map =
        grid.score_map(root_, kWindowCellsX, kWindowCellsY, anchors.lo, anchors.hi);
    std::array<ScoreMap, kNumParts> part_maps;
    for (int p = 0; p < kNumParts; ++p) {
      const PartSpec& spec = part_layout()[static_cast<std::size_t>(p)];
      const int p_lo = std::max(0, anchors.lo + spec.anchor_y - params_.displacement);
      const int p_hi = anchors.hi + spec.anchor_y + params_.displacement;
      part_maps[static_cast<std::size_t>(p)] =
          grid.score_map(parts_[static_cast<std::size_t>(p)], kPartCells, kPartCells, p_lo, p_hi);
    }
    const auto root_ops = static_cast<std::uint64_t>(
        (kWindowCellsX - bs + 1) * (kWindowCellsY - bs + 1) * grid.block_dim());
    const auto part_ops = static_cast<std::uint64_t>(
        (kPartCells - bs + 1) * (kPartCells - bs + 1) * grid.block_dim());

    const int d = params_.displacement;
    for (int cy = anchors.lo; cy <= anchors.hi; ++cy) {
      for (int cx = 0; cx <= max_cx; ++cx) {
        // Mirrors window_score exactly: float root score widened to double,
        // per-part best over in-bounds placements, same comparison order.
        double s = root_map.at(cx, cy - root_map.y0);
        std::uint64_t ops = root_ops;
        for (int p = 0; p < kNumParts; ++p) {
          const PartSpec& spec = part_layout()[static_cast<std::size_t>(p)];
          const ScoreMap& pm = part_maps[static_cast<std::size_t>(p)];
          double best = -1e30;
          for (int dy = -d; dy <= d; ++dy) {
            for (int dx = -d; dx <= d; ++dx) {
              const int px = cx + spec.anchor_x + dx;
              const int py = cy + spec.anchor_y + dy;
              const int pbx = kPartCells - 1;  // Part spans pbx x pbx blocks (block_size 2).
              if (px < 0 || py < 0 || px + pbx > grid.blocks_x() || py + pbx > grid.blocks_y()) continue;
              const double score = pm.at(px, py - pm.y0) -
                                   params_.deformation_cost * static_cast<double>(dx * dx + dy * dy);
              best = std::max(best, score);
              ops += part_ops;
            }
          }
          if (best > -1e29) s += params_.part_weight * best;
        }
        if (cost != nullptr) cost->add_classifier(ops);
        emit(candidates, rung, cx * cell, cy * cell, static_cast<float>(s));
      }
    }
  }
  return non_max_suppression(std::move(candidates), params_.nms_iou);
}

}  // namespace eecs::detect
