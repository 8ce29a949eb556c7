#include "core/offline.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace eecs::core {

const AlgorithmProfile* TrainingItemProfile::best_affordable(double budget_joules) const {
  for (const auto& p : algorithms) {
    if (p.total_joules_per_frame() <= budget_joules) return &p;
  }
  return nullptr;
}

const AlgorithmProfile* TrainingItemProfile::find(detect::AlgorithmId id) const {
  for (const auto& p : algorithms) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

const TrainingItemProfile& OfflineKnowledge::profile(int index) const {
  EECS_EXPECTS(index >= 0 && index < static_cast<int>(profiles_.size()));
  return profiles_[static_cast<std::size_t>(index)];
}

namespace {

/// One algorithm measured over a run of frames, fed a frame at a time so
/// each frame can be dropped as soon as it has been measured.
struct AlgorithmRun {
  const detect::Detector* detector = nullptr;
  energy::CostCounter cpu_cost;
  std::vector<FrameEvaluation> evals;
  /// Per frame, per candidate (aligned with evals[i].detections): what
  /// uploading it costs — metadata plus its JPEG crop, priced while the
  /// frame was still in memory.
  std::vector<std::vector<std::size_t>> upload_bytes;
};

/// One empty run per algorithm of `options.algorithms`, in that order.
std::vector<AlgorithmRun> start_runs(const DetectorBank& detectors,
                                     const OfflineOptions& options) {
  std::vector<AlgorithmRun> runs(options.algorithms.size());
  for (std::size_t a = 0; a < runs.size(); ++a) {
    const detect::AlgorithmId id = options.algorithms[a];
    const auto it = std::find_if(detectors.begin(), detectors.end(),
                                 [&](const auto& d) { return d->id() == id; });
    EECS_EXPECTS(it != detectors.end());
    runs[a].detector = it->get();
  }
  return runs;
}

/// Run every algorithm on one frame.
void measure_frame(std::vector<AlgorithmRun>& runs, const imaging::Image& frame,
                   const std::vector<video::GroundTruthBox>& truth, const OfflineOptions& options) {
  for (AlgorithmRun& run : runs) {
    FrameEvaluation fe;
    fe.detections = run.detector->detect(frame, &run.cpu_cost);
    fe.truth = truth;
    std::vector<std::size_t> bytes;
    bytes.reserve(fe.detections.size());
    for (const auto& det : fe.detections) {
      // §V-A metadata per object, plus the object's JPEG crop.
      bytes.push_back(172 + options.jpeg_model.region_bytes(frame, det.box));
    }
    run.evals.push_back(std::move(fe));
    run.upload_bytes.push_back(std::move(bytes));
  }
}

/// The one way to turn a measured run into a profile: threshold swept to
/// maximise f-score (or fixed), then per-frame CPU and upload energy.
AlgorithmProfile make_profile(const AlgorithmRun& run, const OfflineOptions& options,
                              const double* fixed_threshold) {
  EECS_EXPECTS(!run.evals.empty());
  AlgorithmProfile profile;
  profile.id = run.detector->id();
  if (fixed_threshold != nullptr) {
    profile.threshold = *fixed_threshold;
    profile.accuracy = compute_pr(counts_at_threshold(run.evals, profile.threshold));
  } else {
    const ThresholdSweepResult sweep = sweep_threshold(run.evals);
    profile.threshold = sweep.best_threshold;
    profile.accuracy = sweep.best;
  }

  // Communication cost per frame: every detection at or above threshold.
  std::size_t comm_bytes = 0;
  for (std::size_t i = 0; i < run.evals.size(); ++i) {
    const auto& detections = run.evals[i].detections;
    for (std::size_t j = 0; j < detections.size(); ++j) {
      if (detections[j].score >= profile.threshold) comm_bytes += run.upload_bytes[i][j];
    }
  }

  const std::size_t frames = run.evals.size();
  const double n = static_cast<double>(frames);
  profile.cpu_joules_per_frame = options.cpu_model.joules(run.cpu_cost) / n;
  profile.comm_joules_per_frame = options.radio_model.tx_joules(comm_bytes / frames);
  profile.seconds_per_frame = options.cpu_model.seconds(run.cpu_cost) / n;
  return profile;
}

/// Profiles of every run, sorted by descending f-score.
std::vector<AlgorithmProfile> make_profiles(const std::vector<AlgorithmRun>& runs,
                                            const OfflineOptions& options,
                                            const std::vector<double>* fixed_thresholds) {
  std::vector<AlgorithmProfile> profiles;
  for (std::size_t a = 0; a < runs.size(); ++a) {
    const double* fixed = fixed_thresholds != nullptr ? &(*fixed_thresholds)[a] : nullptr;
    profiles.push_back(make_profile(runs[a], options, fixed));
  }
  std::sort(profiles.begin(), profiles.end(), [](const auto& x, const auto& y) {
    return x.accuracy.f_score > y.accuracy.f_score;
  });
  return profiles;
}

std::vector<AlgorithmProfile> profile_frames(
    const DetectorBank& detectors, const std::vector<imaging::Image>& frames,
    const std::vector<std::vector<video::GroundTruthBox>>& truths, const OfflineOptions& options,
    const std::vector<double>* fixed_thresholds) {
  EECS_EXPECTS(frames.size() == truths.size());
  std::vector<AlgorithmRun> runs = start_runs(detectors, options);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    measure_frame(runs, frames[i], truths[i], options);
  }
  return make_profiles(runs, options, fixed_thresholds);
}

}  // namespace

std::vector<AlgorithmProfile> profile_segment(
    const DetectorBank& detectors, const std::vector<imaging::Image>& frames,
    const std::vector<std::vector<video::GroundTruthBox>>& truths, const OfflineOptions& options) {
  return profile_frames(detectors, frames, truths, options, nullptr);
}

std::vector<AlgorithmProfile> profile_segment_fixed_thresholds(
    const DetectorBank& detectors, const std::vector<imaging::Image>& frames,
    const std::vector<std::vector<video::GroundTruthBox>>& truths,
    const std::vector<double>& thresholds, const OfflineOptions& options) {
  EECS_EXPECTS(thresholds.size() == options.algorithms.size());
  return profile_frames(detectors, frames, truths, options, &thresholds);
}

OfflineKnowledge run_offline_training(const DetectorBank& detectors,
                                      const std::vector<int>& dataset_ids, std::uint64_t seed,
                                      const OfflineOptions& options) {
  EECS_EXPECTS(!dataset_ids.empty());
  EECS_EXPECTS(options.frames_per_item >= 1 && options.feature_frames_per_item >= 1);
  const std::vector<AlgorithmRun> empty_runs = start_runs(detectors, options);
  Rng rng(seed);

  // One training item per (dataset, camera). Each owns a simulator of its
  // feed's 1000-frame training segment and streams it one frame at a time.
  struct Item {
    int dataset = 0, camera = 0;
    std::unique_ptr<video::SceneSimulator> sim;
    std::vector<video::GroundTruthBox> first_truth;
  };
  std::vector<Item> items;
  for (int ds : dataset_ids) {
    for (int cam = 0; cam < video::kNumCamerasPerDataset; ++cam) items.push_back({ds, cam, {}, {}});
  }

  // Every item's first frame is rendered up front: the BoW vocabulary is
  // built from them (one frame per feed, as the paper builds its vocabulary
  // from the 12 training feeds) and draws from `rng` before anything else.
  std::vector<imaging::Image> first_frames(items.size());
  common::parallel_for_each(items.size(), [&](std::size_t i) {
    Item& item = items[i];
    item.sim = std::make_unique<video::SceneSimulator>(
        video::dataset_by_id(item.dataset), seed * 131 + static_cast<std::uint64_t>(item.dataset));
    first_frames[i] = item.sim->next_frame_single(item.camera, &item.first_truth);
  });
  auto extractor = std::make_shared<const features::FrameFeatureExtractor>(
      first_frames, features::FrameFeatureParams{}, rng);

  // Stream each item: GT frames (for accuracy) and feature frames are
  // interleaved across the training segment, and each frame is measured by
  // every algorithm and featurised, then freed.
  struct ItemMeasurements {
    std::vector<AlgorithmRun> runs;
    linalg::Matrix features;
  };
  std::vector<ItemMeasurements> measured(items.size());
  common::parallel_for_each(items.size(), [&](std::size_t i) {
    Item& item = items[i];
    video::SceneSimulator& sim = *item.sim;
    const int stride = sim.environment().ground_truth_stride;
    const int total = std::max(options.frames_per_item, options.feature_frames_per_item);
    const int hop = std::max(1, (video::kTrainFrames / stride) / total) * stride;
    ItemMeasurements& out = measured[i];
    out.runs = empty_runs;
    out.features = linalg::Matrix(options.feature_frames_per_item, extractor->dimension());
    imaging::Image frame = std::move(first_frames[i]);
    std::vector<video::GroundTruthBox> truth = std::move(item.first_truth);
    for (int f = 0; f < total; ++f) {
      if (f > 0) frame = sim.next_frame_single(item.camera, &truth);
      if (f < options.frames_per_item) measure_frame(out.runs, frame, truth, options);
      if (f < options.feature_frames_per_item) {
        const auto feature = extractor->extract(frame);
        for (int c = 0; c < out.features.cols(); ++c) {
          out.features(f, c) = feature[static_cast<std::size_t>(c)];
        }
      }
      sim.skip(hop - 1);
    }
    item.sim.reset();
  });

  // Fold in item order: profiles, then the comparator's training items.
  domain::VideoComparator comparator(options.comparator);
  std::vector<TrainingItemProfile> profiles;
  for (std::size_t i = 0; i < items.size(); ++i) {
    TrainingItemProfile profile;
    profile.dataset = items[i].dataset;
    profile.camera = items[i].camera;
    profile.label = "T";
    profile.label += std::to_string(profile.dataset);
    profile.label += '.';
    profile.label += std::to_string(profile.camera + 1);
    profile.algorithms = make_profiles(measured[i].runs, options, nullptr);
    comparator.add_training_item(measured[i].features, profile.label);
    profiles.push_back(std::move(profile));
  }

  // The stream freed its frames on pool threads.
  common::trim_heap();
  return OfflineKnowledge(std::move(profiles), std::move(comparator), std::move(extractor));
}

}  // namespace eecs::core
