// Detector interface. Each detector is trained once on synthetic patches and
// then scans frames with a sliding window over a scale pyramid, returning all
// candidates above a permissive floor — the operating threshold d_t (paper
// §VI-A) is applied by the caller, which also sweeps it to maximize f-score.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "detect/calibration.hpp"
#include "detect/detection.hpp"
#include "detect/training.hpp"
#include "energy/cost.hpp"
#include "imaging/image.hpp"

namespace eecs::detect {

class FramePrecompute;

class Detector {
 public:
  virtual ~Detector() = default;

  [[nodiscard]] virtual AlgorithmId id() const = 0;

  /// Train the underlying classifier(s); also fits Platt score calibration.
  virtual void train(const TrainingSet& training_set, Rng& rng) = 0;

  [[nodiscard]] virtual bool trained() const = 0;

  /// Detect objects in a frame. Charges compute costs to `cost` if provided.
  /// Detections carry raw scores and calibrated probabilities and are already
  /// NMS-filtered. Requires trained(). Convenience wrapper: builds a local
  /// per-frame cache and delegates to the FramePrecompute overload below.
  [[nodiscard]] std::vector<Detection> detect(const imaging::Image& frame,
                                              energy::CostCounter* cost = nullptr) const;

  /// Detect through a shared per-frame cache: substrates common to several
  /// detectors (resized pyramid levels, HOG block grids, ACF channels, census
  /// grids) are computed once per frame and reused bit-exactly. `cost` is
  /// charged exactly what a standalone detect() on a cold cache would charge —
  /// the paper's per-algorithm op model is preserved regardless of hits.
  ///
  /// Non-virtual telemetry shell: records the per-algorithm invocation count
  /// and detections-returned histogram into the current obs session (compiled
  /// out under EECS_OBS_OFF), then dispatches to the subclass's run().
  [[nodiscard]] std::vector<Detection> detect(FramePrecompute& pre,
                                              energy::CostCounter* cost = nullptr) const;

  /// The scaled-frame dimensions run() will request from a FramePrecompute
  /// for a frame of the given size — the detector's pyramid geometry with the
  /// same lround/minimum-window guards as the scan loop, identity dims
  /// omitted (scaled() returns the frame itself there). SweepScheduler
  /// enumerates these scales into its (scale, row band) tiles, which the
  /// context gate prunes and the work-list accounting counts. Default: empty.
  [[nodiscard]] virtual std::vector<std::pair<int, int>> precompute_plan(
      int /*frame_width*/, int /*frame_height*/) const {
    return {};
  }

 protected:
  /// The actual sliding-window scan; see detect(FramePrecompute&) above.
  [[nodiscard]] virtual std::vector<Detection> run(FramePrecompute& pre,
                                                   energy::CostCounter* cost) const = 0;

  /// Fit Platt calibration from training-window scores.
  void fit_score_calibration(const std::vector<double>& positive_scores,
                             const std::vector<double>& negative_scores) {
    platt_ = fit_platt(positive_scores, negative_scores);
  }

  [[nodiscard]] double calibrated_probability(double score) const {
    return platt_.probability(score);
  }

 private:
  PlattScaling platt_;
};

/// Construct an (untrained) detector for the given algorithm.
[[nodiscard]] std::unique_ptr<Detector> make_detector(AlgorithmId id);

/// Construct and train all four detectors with a shared training set;
/// deterministic for a given seed. The standard way to set up a camera node.
[[nodiscard]] std::vector<std::unique_ptr<Detector>> make_trained_detectors(std::uint64_t seed);

/// Geometric scale ladder [max_scale, ..., >= min_scale], dividing by
/// `factor` each step. Scales > 1 mean upsampling the frame.
[[nodiscard]] std::vector<double> pyramid_scales(double min_scale, double max_scale, double factor);

/// Shared precompute_plan implementation: the (lround(w*s), lround(h*s)) dims
/// of every ladder scale that passes the detectors' common minimum-window
/// guard, identity dims omitted. All four detectors scan with this exact
/// geometry, so their precompute_plan overrides delegate here.
[[nodiscard]] std::vector<std::pair<int, int>> plan_scaled_dims(const std::vector<double>& scales,
                                                                int frame_width, int frame_height);

/// Convert a raw sliding-window rectangle into the person-extent box it
/// implies: training patches place the person at ~88% of the window height
/// and ~58% of its width, centered, so the reported detection must be shrunk
/// accordingly or IoU against ground-truth person boxes is systematically low.
[[nodiscard]] imaging::Rect window_to_person_box(const imaging::Rect& window);

}  // namespace eecs::detect
