// C4-style contour-cue detector (Wu et al. — the paper's [6]): census
// transform (CENTRIST) cell histograms classified by a linear SVM. Scans a
// dense scale pyramid (finer than HOG's), and the per-pixel census transform
// makes it the most compute-hungry of the gradient-family detectors, mirroring
// its high measured energy in the paper's tables.
#pragma once

#include "detect/detector.hpp"
#include "detect/linear_svm.hpp"

namespace eecs::detect {

inline constexpr int kCensusCell = 8;
inline constexpr int kCensusBins = 16;  ///< High-nibble histogram bins.
inline constexpr int kCensusCellsX = kWindowWidth / kCensusCell;    // 6
inline constexpr int kCensusCellsY = kWindowHeight / kCensusCell;   // 12

struct C4DetectorParams {
  double min_scale = 0.11;
  double max_scale = 1.55;
  double scale_factor = 1.13;  ///< Dense ladder: ~2x the scales of HOG.
  float score_floor = -0.8f;
  double nms_iou = 0.30;
};

/// Grid of per-cell census-code histograms plus per-cell squared norms.
class CensusCellGrid {
 public:
  explicit CensusCellGrid(const imaging::Image& img, energy::CostCounter* cost = nullptr);

  /// Build from precomputed census codes of a width x height image. Charges
  /// only the histogram pass; the caller accounts for the transform itself.
  CensusCellGrid(const std::vector<std::uint8_t>& codes, int width, int height,
                 energy::CostCounter* cost = nullptr);

  [[nodiscard]] int cells_x() const { return cells_x_; }
  [[nodiscard]] int cells_y() const { return cells_y_; }
  [[nodiscard]] std::span<const float> cell(int cx, int cy) const;
  [[nodiscard]] float cell_sq_norm(int cx, int cy) const;

  /// L2-normalized window descriptor (kCensusCellsX x kCensusCellsY cells).
  [[nodiscard]] std::vector<float> window_descriptor(int cell_x0, int cell_y0) const;

  /// w . (x/||x||) computed without materializing the descriptor.
  [[nodiscard]] float window_score(const LinearModel& model, int cell_x0, int cell_y0,
                                   energy::CostCounter* cost = nullptr) const;

  /// Scores `count` horizontally consecutive windows anchored at
  /// (cell_x0 + j, cell_y0) into out[j]. One pass over the model weights
  /// serves four windows at a time on independent accumulator chains, so each
  /// window's sum keeps window_score's exact term order (bit-identical
  /// results) while the strictly-ordered double adds pipeline across windows.
  /// Charges `cost` exactly `count` times what window_score would.
  void window_scores_row(const LinearModel& model, int cell_x0, int cell_y0, int count,
                         float* out, energy::CostCounter* cost = nullptr) const;

 private:
  void build(const std::uint8_t* codes, int width, int height, energy::CostCounter* cost);

  int cells_x_ = 0;
  int cells_y_ = 0;
  std::vector<float> hist_;
  std::vector<float> sq_norm_;
};

class C4Detector final : public Detector {
 public:
  explicit C4Detector(const C4DetectorParams& params = {})
      : Detector(params.min_scale, params.max_scale, params.scale_factor, params.score_floor),
        params_(params) {}

  using Detector::detect;

  [[nodiscard]] AlgorithmId id() const override { return AlgorithmId::C4; }
  void train(const TrainingSet& training_set, Rng& rng) override;
  [[nodiscard]] bool trained() const override { return model_.trained(); }

 protected:
  [[nodiscard]] std::vector<Detection> run(FramePrecompute& pre,
                                           energy::CostCounter* cost) const override;

 private:
  C4DetectorParams params_;
  LinearModel model_;
};

}  // namespace eecs::detect
