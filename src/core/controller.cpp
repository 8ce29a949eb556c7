#include "core/controller.hpp"

#include <algorithm>
#include <sstream>

#include "obs/telemetry.hpp"

namespace eecs::core {

EecsController::EecsController(const OfflineKnowledge& knowledge, reid::ReIdentifier reidentifier,
                               const ControllerParams& params)
    : knowledge_(knowledge), reid_(std::move(reidentifier)), params_(params) {}

void EecsController::register_camera(int camera, const linalg::Matrix& features,
                                     double budget_joules) {
  const auto match = knowledge_.match(features);
  restore_camera({camera, match.best_index, budget_joules});
}

void EecsController::restore_camera(const Registration& registration) {
  CameraState state;
  state.matched_item = registration.matched_item;
  state.budget = registration.budget;
  // Rank-ordered algorithms of the matched item, filtered to the configured
  // set and the camera's budget constraint c(A) + C_j <= B_j.
  for (const auto& profile : knowledge_.profile(registration.matched_item).algorithms) {
    const bool allowed = std::find(params_.algorithms.begin(), params_.algorithms.end(),
                                   profile.id) != params_.algorithms.end();
    if (allowed && profile.total_joules_per_frame() <= registration.budget) {
      state.affordable.push_back(profile);
    }
  }
  cameras_[registration.camera] = std::move(state);
}

std::vector<EecsController::Registration> EecsController::registrations() const {
  std::vector<Registration> out;
  out.reserve(cameras_.size());
  for (const auto& [camera, state] : cameras_) {
    out.push_back({camera, state.matched_item, state.budget});
  }
  return out;
}

int EecsController::matched_item(int camera) const {
  const auto it = cameras_.find(camera);
  return it == cameras_.end() ? -1 : it->second.matched_item;
}

const AlgorithmProfile* EecsController::best_entry(int camera) const {
  const auto it = cameras_.find(camera);
  if (it == cameras_.end() || it->second.affordable.empty()) return nullptr;
  return &it->second.affordable.front();
}

const AlgorithmProfile* EecsController::entry(int camera, detect::AlgorithmId id) const {
  const auto it = cameras_.find(camera);
  if (it == cameras_.end()) return nullptr;
  for (const auto& p : it->second.affordable) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

EecsController::Estimate EecsController::estimate_config(
    const AssessmentData& assessment, const std::map<int, detect::AlgorithmId>& config) const {
  // Number of assessment frames: take from any present sample.
  std::size_t num_frames = 0;
  for (const auto& [cam, algs] : assessment) {
    for (const auto& [alg, sample] : algs) num_frames = std::max(num_frames, sample.frames.size());
  }
  if (num_frames == 0) return {};

  double total_objects = 0.0;
  double total_prob = 0.0;
  long prob_count = 0;
  for (std::size_t f = 0; f < num_frames; ++f) {
    std::vector<reid::ViewDetection> detections;
    for (const auto& [camera, algorithm] : config) {
      const auto cam_it = assessment.find(camera);
      if (cam_it == assessment.end()) continue;
      const auto alg_it = cam_it->second.find(algorithm);
      if (alg_it == cam_it->second.end()) continue;
      if (f >= alg_it->second.frames.size()) continue;
      const auto& frame_dets = alg_it->second.frames[f];
      detections.insert(detections.end(), frame_dets.begin(), frame_dets.end());
    }
    const auto groups = reid_.group(detections);
    total_objects += static_cast<double>(groups.size());
    for (const auto& g : groups) {
      total_prob += g.fused_probability;
      ++prob_count;
    }
  }
  Estimate est;
  est.objects = total_objects / static_cast<double>(num_frames);
  est.mean_probability = prob_count > 0 ? total_prob / static_cast<double>(prob_count) : 0.0;
  return est;
}

EecsController::Selection EecsController::select(const AssessmentData& assessment,
                                                 SelectionMode mode,
                                                 const std::set<int>* eligible) const {
  Selection selection;
  const auto is_eligible = [&](int camera) {
    return eligible == nullptr || eligible->count(camera) > 0;
  };

  // Baseline configuration: every eligible registered camera with its best
  // affordable algorithm (cameras with no affordable algorithm stay off).
  std::map<int, detect::AlgorithmId> best_config;
  for (const auto& [camera, state] : cameras_) {
    if (is_eligible(camera) && !state.affordable.empty()) {
      best_config[camera] = state.affordable.front().id;
    }
  }
  const Estimate star = estimate_config(assessment, best_config);
  selection.stats.n_star = star.objects;
  selection.stats.p_star = star.mean_probability;

  const double need_n = params_.gamma_n * star.objects;
  const double need_p = params_.gamma_p * star.mean_probability;

  // Rank cameras by the estimated accuracy of their best algorithm
  // (S_o in §IV-B.3).
  std::vector<int> order;
  for (const auto& [camera, state] : cameras_) {
    if (is_eligible(camera) && !state.affordable.empty()) order.push_back(camera);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return best_entry(a)->accuracy.f_score > best_entry(b)->accuracy.f_score;
  });

  // Greedy subset: activate cameras in rank order until D is met.
  std::map<int, detect::AlgorithmId> config;
  Estimate est;
  std::size_t used = 0;
  if (mode == SelectionMode::AllBest) {
    config = best_config;
    used = order.size();
    est = star;
  } else {
    for (int camera : order) {
      config[camera] = best_config[camera];
      ++used;
      est = estimate_config(assessment, config);
      if (est.objects >= need_n && est.mean_probability >= need_p) break;
    }
  }

  // Downgrade pass (§IV-B.4): walk the selected cameras from least to most
  // accurate; replace the algorithm with a cheaper one of higher
  // f_score/energy, keeping the estimate above D. Stop at the first camera
  // where no such algorithm works.
  if (mode == SelectionMode::SubsetDowngrade) {
    for (std::size_t i = used; i-- > 0;) {
      const int camera = order[i];
      const AlgorithmProfile* current = entry(camera, config[camera]);
      EECS_EXPECTS(current != nullptr);
      const AlgorithmProfile* chosen = nullptr;
      for (const auto& candidate : cameras_.at(camera).affordable) {
        if (candidate.id == current->id) continue;
        if (candidate.total_joules_per_frame() >= current->total_joules_per_frame()) continue;
        if (candidate.f_per_joule() <= current->f_per_joule()) continue;
        std::map<int, detect::AlgorithmId> trial = config;
        trial[camera] = candidate.id;
        const Estimate trial_est = estimate_config(assessment, trial);
        if (trial_est.objects >= need_n && trial_est.mean_probability >= need_p) {
          chosen = &candidate;
          config = std::move(trial);
          est = trial_est;
          break;
        }
      }
      if (chosen == nullptr) break;
      if constexpr (obs::kEnabled) {
        obs::current().metrics().counter("controller.downgrades").inc();
        obs::TraceEvent event;
        event.cat = "round";
        event.name = "controller.downgrade";
        event.num_args = {{"camera", static_cast<double>(camera)},
                          {"from", static_cast<double>(current->id)},
                          {"to", static_cast<double>(chosen->id)}};
        obs::current().tracer().record(std::move(event));
      }
    }
  }

  selection.stats.n_est = est.objects;
  selection.stats.p_est = est.mean_probability;
  selection.stats.cameras_active = static_cast<int>(config.size());

  std::ostringstream summary;
  for (const auto& [camera, state] : cameras_) {
    if (!is_eligible(camera)) continue;
    CameraAssignment assignment;
    assignment.camera = camera;
    const auto it = config.find(camera);
    if (it != config.end()) {
      const AlgorithmProfile* profile = entry(camera, it->second);
      EECS_EXPECTS(profile != nullptr);
      assignment.active = true;
      assignment.algorithm = profile->id;
      assignment.threshold = profile->threshold;
      assignment.estimated_f = profile->accuracy.f_score;
      assignment.energy_per_frame = profile->total_joules_per_frame();
      summary << "cam" << camera << ":" << detect::to_string(profile->id) << " ";
    }
    selection.assignments.push_back(assignment);
  }
  selection.stats.summary = summary.str();
  return selection;
}

}  // namespace eecs::core
