// Aggregated-channel-features detector (Dollar et al. — the paper's [4]):
// 10 channels (RGB + gradient magnitude + 6 orientation channels) aggregated
// into 4x4 pixel blocks, classified by boosted decision stumps. Very cheap —
// but it scans only downscaled octaves (no upsampling), so people smaller
// than the canonical window are invisible to it. That is what costs it
// recall on the low-resolution dataset #1 and not on the high-resolution
// dataset #2, reproducing the paper's accuracy flip.
#pragma once

#include "detect/boosting.hpp"
#include "detect/detector.hpp"

namespace eecs::detect {

inline constexpr int kAcfShrink = 4;
inline constexpr int kAcfChannels = 10;
/// Window size in aggregated cells.
inline constexpr int kAcfWindowX = kWindowWidth / kAcfShrink;   // 12
inline constexpr int kAcfWindowY = kWindowHeight / kAcfShrink;  // 24

struct AcfDetectorParams {
  double min_scale = 0.11;
  double max_scale = 1.0;      ///< No upsampled octaves.
  double scale_factor = 1.26;
  float score_floor = -8.0f;   ///< Boosted scores live on a wider range.
  double nms_iou = 0.30;
  /// Soft cascade: a window is rejected as soon as its partial boosted sum
  /// drops below this fraction of the remaining attainable score. This early
  /// exit is why ACF is an order of magnitude cheaper than the dense
  /// detectors (Dollar et al.'s constant-soft-cascade).
  float cascade_margin = -0.05f;
  int cascade_check_every = 8;  ///< Stumps between cascade tests.
  BoostOptions boost;
};

/// Aggregated channel planes of an image.
struct ChannelMap {
  int width = 0;   ///< Aggregated cells.
  int height = 0;
  std::vector<float> data;  ///< Channel-major planes.

  [[nodiscard]] float at(int x, int y, int c) const {
    return data[static_cast<std::size_t>(c) * static_cast<std::size_t>(width) *
                    static_cast<std::size_t>(height) +
                static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
                static_cast<std::size_t>(x)];
  }
};

/// Compute the 10 aggregated channels of an RGB image.
[[nodiscard]] ChannelMap compute_acf_channels(const imaging::Image& img,
                                              energy::CostCounter* cost = nullptr);

/// Flattened feature vector of the window anchored at aggregated cell
/// (x0, y0): layout [channel][cell_y][cell_x].
[[nodiscard]] std::vector<float> acf_window_features(const ChannelMap& channels, int x0, int y0);

class AcfDetector final : public Detector {
 public:
  explicit AcfDetector(const AcfDetectorParams& params = {})
      : Detector(params.min_scale, params.max_scale, params.scale_factor, params.score_floor),
        params_(params) {}

  using Detector::detect;

  [[nodiscard]] AlgorithmId id() const override { return AlgorithmId::Acf; }
  void train(const TrainingSet& training_set, Rng& rng) override;
  [[nodiscard]] bool trained() const override { return model_.trained(); }

 protected:
  [[nodiscard]] std::vector<Detection> run(FramePrecompute& pre,
                                           energy::CostCounter* cost) const override;

  [[nodiscard]] const BoostedModel& model() const { return model_; }

 private:
  AcfDetectorParams params_;
  double total_alpha_ = 0.0;    ///< Hoisted from the scale loop; fixed at train time.
  BoostedModel model_;
};

}  // namespace eecs::detect
