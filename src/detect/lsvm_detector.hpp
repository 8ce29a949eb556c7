// Deformable part model detector (Felzenszwalb et al. — the paper's [5],
// "LSVM"): a HOG root filter plus four part filters (head, torso, legs) that
// may shift around their anchors, paying a quadratic deformation cost. Parts
// plus a fine scale ladder give it the best accuracy of the four detectors —
// and by far the highest compute cost, matching the paper's tables.
#pragma once

#include <array>

#include "detect/block_grid.hpp"
#include "detect/detector.hpp"

namespace eecs::detect {

inline constexpr int kPartCells = 3;   ///< Parts are 3x3 cells.
inline constexpr int kNumParts = 4;

struct PartSpec {
  const char* name;
  int anchor_x;  ///< Cell offset of the part inside the 6x12 window.
  int anchor_y;
};

/// Part layout over the canonical window: head, torso, and the two legs.
[[nodiscard]] const std::array<PartSpec, kNumParts>& part_layout();

struct LsvmDetectorParams {
  double min_scale = 0.11;
  double max_scale = 1.55;
  double scale_factor = 1.12;   ///< Finer ladder than HOG.
  int displacement = 1;         ///< Parts move within +/- this many cells.
  double deformation_cost = 0.10;  ///< Per squared-cell displacement.
  double part_weight = 0.9;     ///< Part scores relative to the root.
  float score_floor = -0.8f;
  double nms_iou = 0.30;
};

class LsvmDetector final : public Detector {
 public:
  explicit LsvmDetector(const LsvmDetectorParams& params = {})
      : Detector(params.min_scale, params.max_scale, params.scale_factor, params.score_floor),
        params_(params) {}

  using Detector::detect;

  [[nodiscard]] AlgorithmId id() const override { return AlgorithmId::Lsvm; }
  void train(const TrainingSet& training_set, Rng& rng) override;
  [[nodiscard]] bool trained() const override { return root_.trained(); }

 protected:
  [[nodiscard]] std::vector<Detection> run(FramePrecompute& pre,
                                           energy::CostCounter* cost) const override;

 private:
  /// Combined root + best-placement part score at a window position.
  [[nodiscard]] float window_score(const BlockGrid& grid, int cx, int cy,
                                   energy::CostCounter* cost) const;

  LsvmDetectorParams params_;
  features::HogParams hog_params_;  ///< Hoisted: identical for every call.
  LinearModel root_;
  std::array<LinearModel, kNumParts> parts_;
};

}  // namespace eecs::detect
