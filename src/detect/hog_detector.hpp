// HOG + linear SVM pedestrian detector (Dalal & Triggs — the paper's [3]).
// Dense multi-scale scan including upsampled octaves, so it can find people
// smaller than the canonical window (unlike ACF).
#pragma once

#include "detect/block_grid.hpp"
#include "detect/detector.hpp"

namespace eecs::detect {

struct HogDetectorParams {
  double min_scale = 0.11;
  double max_scale = 1.55;     ///< > 1 upsamples; finds people down to ~55 px.
  double scale_factor = 1.26;
  float score_floor = -0.8f;   ///< Candidates below this are discarded pre-NMS.
  double nms_iou = 0.30;
};

class HogDetector final : public Detector {
 public:
  explicit HogDetector(const HogDetectorParams& params = {})
      : Detector(params.min_scale, params.max_scale, params.scale_factor, params.score_floor),
        params_(params) {}

  using Detector::detect;

  [[nodiscard]] AlgorithmId id() const override { return AlgorithmId::Hog; }
  void train(const TrainingSet& training_set, Rng& rng) override;
  [[nodiscard]] bool trained() const override { return model_.trained(); }

 protected:
  [[nodiscard]] std::vector<Detection> run(FramePrecompute& pre,
                                           energy::CostCounter* cost) const override;

  [[nodiscard]] const LinearModel& model() const { return model_; }

 private:
  HogDetectorParams params_;
  features::HogParams hog_params_;        ///< Hoisted: identical for every call.
  LinearModel model_;
};

/// Window geometry shared with LSVM: cells per window at the canonical size.
inline constexpr int kWindowCellsX = kWindowWidth / 8;    // 6
inline constexpr int kWindowCellsY = kWindowHeight / 8;   // 12

/// One pyramid level of a canonical-window scan over a BlockGrid (HOG, and
/// LSVM's root filter). scan() states the anchor geometry once, from the
/// rung's dims alone (the arithmetic of BlockGrid's construction), so a level
/// the context gate prunes whole is accounted before any resize or grid
/// work; otherwise it charges the resize and fetches the level's grid.
struct BlockGridLevel {
  RowInterval anchors;              ///< Anchor rows to score; empty when pruned.
  int max_cx = -1;                  ///< Last anchor column.
  const BlockGrid* grid = nullptr;  ///< The level's grid; null when pruned.

  [[nodiscard]] static BlockGridLevel scan(const Detector& detector, FramePrecompute& pre,
                                           const Rung& rung, const features::HogParams& hog,
                                           energy::CostCounter* cost);
};

/// Descriptor of a canonical training patch (48x96), via BlockGrid.
[[nodiscard]] std::vector<float> patch_hog_descriptor(const imaging::Image& patch);

}  // namespace eecs::detect
