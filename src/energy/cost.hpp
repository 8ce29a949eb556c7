// Operation counting. Detectors and feature extractors never time
// themselves; they report *what they computed* (pixels touched, feature
// multiply-accumulates, classifier evaluations) and the energy model
// converts counts to Joules. This is the repository's substitute for the
// paper's PowerTutor measurements: the ratios between algorithms and
// resolutions come out of real computation counts.
#pragma once

#include <cstdint>

namespace eecs::energy {

struct CostCounter {
  std::uint64_t pixel_ops = 0;       ///< Per-pixel image passes (blur, resize, channels).
  std::uint64_t feature_ops = 0;     ///< Feature multiply-accumulates (HOG bins, census bits...).
  std::uint64_t classifier_ops = 0;  ///< Classifier MACs (SVM dots, tree node visits).
  /// Sliding-window accounting (not energy-bearing: the joules of a window
  /// are already in the op counts above; compute_ops() excludes these).
  /// `windows_evaluated` counts anchors actually scored; `windows_pruned`
  /// counts anchors the context gate ruled out before any work. Their sum is
  /// the full-sweep anchor count, so gate-off runs report pruned == 0 and the
  /// exact same evaluated count a pre-gate build did.
  std::uint64_t windows_evaluated = 0;
  std::uint64_t windows_pruned = 0;

  void add_pixels(std::uint64_t n) { pixel_ops += n; }
  void add_features(std::uint64_t n) { feature_ops += n; }
  void add_classifier(std::uint64_t n) { classifier_ops += n; }
  void add_windows(std::uint64_t evaluated, std::uint64_t pruned) {
    windows_evaluated += evaluated;
    windows_pruned += pruned;
  }

  CostCounter& operator+=(const CostCounter& rhs) {
    pixel_ops += rhs.pixel_ops;
    feature_ops += rhs.feature_ops;
    classifier_ops += rhs.classifier_ops;
    windows_evaluated += rhs.windows_evaluated;
    windows_pruned += rhs.windows_pruned;
    return *this;
  }

  [[nodiscard]] std::uint64_t compute_ops() const {
    return pixel_ops + feature_ops + classifier_ops;
  }

  friend CostCounter operator+(CostCounter lhs, const CostCounter& rhs) { return lhs += rhs; }
  friend bool operator==(const CostCounter&, const CostCounter&) = default;
};

}  // namespace eecs::energy
