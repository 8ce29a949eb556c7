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

/// One level of a detector's scale pyramid on a given frame: the ladder
/// scale and the scaled dims it rounds to.
struct Rung {
  double scale = 1.0;
  int width = 0;
  int height = 0;
};

/// Inclusive row interval (pixels or anchor rows); empty when hi < lo.
struct RowInterval {
  int lo = 0;
  int hi = -1;
  [[nodiscard]] bool empty() const { return hi < lo; }
};

/// Base of the four sliding-window detectors. It owns what their scans
/// share: the scale ladder, the gate check and window accounting of each
/// anchor grid, the resized level and its pixel charge, and the mapping of
/// a scored window to a calibrated person detection. Subclasses keep only
/// their substrates and scoring.
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

  /// The pyramid levels run() scans on a frame of the given size, largest
  /// first: every ladder scale whose (lround(w*s), lround(h*s)) dims still
  /// hold one kWindowWidth x kWindowHeight window. The scans, precompute_plan
  /// and SweepScheduler's tile count all walk this one list.
  [[nodiscard]] std::vector<Rung> rungs(int frame_width, int frame_height) const;

  /// The scaled-frame dims run() requests from a FramePrecompute: rungs()
  /// minus the frame's own dims (scaled() returns the frame itself there).
  [[nodiscard]] std::vector<std::pair<int, int>> precompute_plan(int frame_width,
                                                                 int frame_height) const;

 protected:
  /// Geometric ladder [max_scale, ..., >= min_scale], see pyramid_scales();
  /// `score_floor` discards candidates at or below it before NMS.
  Detector(double min_scale, double max_scale, double scale_factor, float score_floor);

  /// The actual sliding-window scan; see detect(FramePrecompute&) above.
  [[nodiscard]] virtual std::vector<Detection> run(FramePrecompute& pre,
                                                   energy::CostCounter* cost) const = 0;

  /// Anchor rows to scan of one anchor grid over `rung`, whose anchor (x, y)
  /// places its window top-left at (x * stride, y * stride + offset) scaled
  /// pixels, x in [0, max_x] and y in [0, max_y] (both >= 0: the grid holds
  /// a window). The pre's context gate, if attached, narrows the rows; every
  /// anchor is charged to `cost` as evaluated or pruned, so the two always
  /// sum to the full sweep. Only a gate can empty the interval.
  [[nodiscard]] RowInterval sweep_rows(const FramePrecompute& pre, const Rung& rung, int stride,
                                       int offset, int max_x, int max_y,
                                       energy::CostCounter* cost) const;

  /// The frame resized to `rung`, charged as one pixel pass unless it is the
  /// frame itself.
  const imaging::Image& level(FramePrecompute& pre, const Rung& rung,
                              energy::CostCounter* cost) const;

  /// Append the window whose top-left sits at scaled pixel (x, y) of `rung`
  /// to `out` as a person box in frame coordinates with its calibrated
  /// probability, unless `score` is at or below the score floor.
  void emit(std::vector<Detection>& out, const Rung& rung, int x, int y, double score) const;

  /// Fit Platt calibration from training-window scores and their +-1
  /// labels (TrainingSet::labels()).
  void fit_score_calibration(const std::vector<double>& scores, const std::vector<int>& labels);

 private:
  /// HOG's and LSVM's shared level scan (hog_detector.hpp) calls sweep_rows
  /// and level.
  friend struct BlockGridLevel;

  std::vector<double> scales_;  ///< Pyramid ladder: a pure function of the params.
  float score_floor_;
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

/// Convert a raw sliding-window rectangle into the person-extent box it
/// implies: training patches place the person at ~88% of the window height
/// and ~58% of its width, centered, so the reported detection must be shrunk
/// accordingly or IoU against ground-truth person boxes is systematically low.
[[nodiscard]] imaging::Rect window_to_person_box(const imaging::Rect& window);

}  // namespace eecs::detect
