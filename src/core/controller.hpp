// The EECS central controller (§IV-B, §IV-C): matches each camera's scene to
// a training item via the GFK comparator, estimates the achievable global
// accuracy (N*, P*) from assessment-phase detection metadata, greedily picks
// a camera subset meeting the desired accuracy D = [gamma_n N*, gamma_p P*],
// and then walks the subset in reverse accuracy order downgrading cameras to
// cheaper algorithms while the estimate still meets D.
#pragma once

#include <map>
#include <set>

#include "core/offline.hpp"
#include "reid/reid.hpp"
#include "runtime/loop_state.hpp"

namespace eecs::core {

enum class SelectionMode {
  AllBest,          ///< Baseline (i): every camera runs its best algorithm.
  SubsetOnly,       ///< (ii): greedy camera subset, best algorithms.
  SubsetDowngrade,  ///< (iii): subset + per-camera algorithm downgrade.
};

struct ControllerParams {
  double gamma_n = 0.85;  ///< Required fraction of N* (§VI-E).
  double gamma_p = 0.80;  ///< Required fraction of P*.
  std::vector<detect::AlgorithmId> algorithms{detect::AlgorithmId::Hog, detect::AlgorithmId::Acf,
                                              detect::AlgorithmId::C4};
};

/// What a camera is told to run until the next recalibration.
struct CameraAssignment {
  int camera = 0;
  bool active = false;
  detect::AlgorithmId algorithm = detect::AlgorithmId::Hog;
  double threshold = 0.0;
  double estimated_f = 0.0;          ///< f-score of the matched profile entry.
  double energy_per_frame = 0.0;     ///< c(A) + C_j of the chosen profile entry.
};

/// Detections of one camera running one algorithm over the assessment frames.
struct AssessmentSample {
  /// Per assessment frame, the thresholded detections with color features.
  std::vector<std::vector<reid::ViewDetection>> frames;
};

/// camera -> algorithm -> sample.
using AssessmentData = std::map<int, std::map<detect::AlgorithmId, AssessmentSample>>;

using runtime::SelectionStats;

class EecsController {
 public:
  EecsController(const OfflineKnowledge& knowledge, reid::ReIdentifier reidentifier,
                 const ControllerParams& params);

  /// §IV-B.1/2: register a camera from its uploaded feature matrix and
  /// per-frame energy budget; matches it to T_i* and stores the rank-ordered
  /// affordable algorithm list.
  void register_camera(int camera, const linalg::Matrix& features, double budget_joules);

  using Registration = runtime::Registration;

  /// Checkpoint restore: re-admit a camera from its saved registration
  /// without re-running the GFK match. The affordable list is a pure
  /// function of (knowledge, matched_item, budget, params), so this
  /// reproduces register_camera()'s state bit-exactly.
  void restore_camera(const Registration& registration);

  /// Checkpoint view of the registration state: one registration per
  /// registered camera, in camera order.
  [[nodiscard]] std::vector<Registration> registrations() const;

  /// Matched training item index for a camera (-1 if not registered).
  [[nodiscard]] int matched_item(int camera) const;

  /// The most accurate affordable algorithm entry for a camera; nullptr if
  /// nothing fits its budget.
  [[nodiscard]] const AlgorithmProfile* best_entry(int camera) const;

  /// Affordable profile entry for a specific algorithm (nullptr otherwise).
  [[nodiscard]] const AlgorithmProfile* entry(int camera, detect::AlgorithmId id) const;

  /// §IV-B.3/4 + §IV-C: full selection from assessment-phase metadata.
  /// `eligible`, when non-null, restricts the selection to that camera subset
  /// (the liveness tracker's surviving cameras); nullptr considers every
  /// registered camera.
  struct Selection {
    std::vector<CameraAssignment> assignments;
    SelectionStats stats;
  };
  [[nodiscard]] Selection select(const AssessmentData& assessment, SelectionMode mode,
                                 const std::set<int>* eligible = nullptr) const;

  [[nodiscard]] const ControllerParams& params() const { return params_; }
  [[nodiscard]] const reid::ReIdentifier& reidentifier() const { return reid_; }

 private:
  struct CameraState {
    int matched_item = -1;
    double budget = 0.0;
    std::vector<AlgorithmProfile> affordable;  ///< Rank-ordered by f-score.
  };

  /// Mean (over assessment frames) object count and fused probability for a
  /// candidate configuration camera->algorithm.
  struct Estimate {
    double objects = 0.0;
    double mean_probability = 0.0;
  };
  [[nodiscard]] Estimate estimate_config(
      const AssessmentData& assessment,
      const std::map<int, detect::AlgorithmId>& config) const;

  const OfflineKnowledge& knowledge_;
  reid::ReIdentifier reid_;
  ControllerParams params_;
  std::map<int, CameraState> cameras_;
};

}  // namespace eecs::core
