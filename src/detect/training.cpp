#include "detect/training.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "imaging/filter.hpp"
#include "video/scene.hpp"

namespace eecs::detect {

namespace {

/// A generic training environment: parameters randomized around the space of
/// plausible deployments, deliberately distinct from the three evaluation
/// presets. Detectors train on crops of these scenes — the equivalent of the
/// paper's detectors coming pre-trained on generic pedestrian footage.
video::Environment random_training_environment(Rng& rng, int index) {
  video::Environment env;
  env.name = "training";
  env.image_width = 480;
  env.image_height = 360;
  env.focal_px = rng.uniform(320.0, 520.0);
  env.room_w = rng.uniform(6.5, 10.0);
  env.room_h = rng.uniform(6.5, 10.0);
  env.num_people = rng.uniform_int(4, 7);
  env.num_clutter = (index % 2 == 0) ? rng.uniform_int(2, 5) : 0;
  env.background_brightness = static_cast<float>(rng.uniform(0.40, 0.72));
  env.background_texture_amplitude = static_cast<float>(rng.uniform(0.08, 0.32));
  env.background_texture_scale = static_cast<float>(rng.uniform(6.0, 20.0));
  env.illumination_gain = static_cast<float>(rng.uniform(0.88, 1.15));
  env.illumination_offset = static_cast<float>(rng.uniform(-0.03, 0.05));
  env.sensor_noise_sigma = static_cast<float>(rng.uniform(0.008, 0.018));
  env.outdoor = (index % 3 == 2);
  env.texture_seed = static_cast<unsigned>(rng.next_u64());
  return env;
}

/// Expand a ground-truth person box into the detection-window framing (the
/// inverse of window_to_person_box) and resize to the canonical size.
imaging::Image window_crop(const imaging::Image& frame, const imaging::Rect& person_box) {
  const double window_h = person_box.h / 0.88;
  const double window_w = window_h * static_cast<double>(kWindowWidth) / kWindowHeight;
  const int x0 = static_cast<int>(std::lround(person_box.center_x() - window_w / 2.0));
  const int y0 = static_cast<int>(std::lround(person_box.y - 0.06 * window_h));
  const imaging::Image crop =
      frame.crop(x0, y0, static_cast<int>(std::lround(window_w)), static_cast<int>(std::lround(window_h)));
  return imaging::resize(crop, kWindowWidth, kWindowHeight);
}

bool overlaps_any(const imaging::Rect& box, const std::vector<video::GroundTruthBox>& truth,
                  double max_iou) {
  for (const auto& gt : truth) {
    if (imaging::iou(box, gt.box) > max_iou) return true;
  }
  return false;
}

}  // namespace

std::vector<int> TrainingSet::labels() const {
  std::vector<int> out(positives.size(), 1);
  out.resize(size(), -1);
  return out;
}

TrainingSet generate_training_set(Rng& rng, const TrainingSetOptions& options) {
  EECS_EXPECTS(options.num_positives > 0 && options.num_negatives > 0);
  TrainingSet set;

  /// One sampled frame, planned without rendering: the simulator as it
  /// stood at the frame's step, and the crops to cut from its view.
  struct PlannedFrame {
    video::SceneSimulator sim;
    int camera = 0;
    std::vector<imaging::Rect> person_boxes;  ///< Positives, via window_crop.
    std::vector<imaging::Rect> windows;       ///< Negatives, cropped as is.
  };
  struct FramePatches {
    std::vector<imaging::Image> positives, negatives;
  };

  constexpr int kScenes = 4;
  int positives = 0, negatives = 0;
  int scene_index = 0;
  while (positives < options.num_positives || negatives < options.num_negatives) {
    video::SceneSimulator sim(random_training_environment(rng, scene_index), rng.next_u64());
    ++scene_index;
    const double width = sim.environment().image_width;
    const double height = sim.environment().image_height;
    const int frames_per_scene = 24;
    // Serial pass: every draw from `rng` and every count, from ground truth.
    std::vector<PlannedFrame> plan;
    plan.reserve(frames_per_scene);
    for (int f = 0; f < frames_per_scene; ++f) {
      const int camera = rng.uniform_int(0, video::kNumCamerasPerDataset - 1);
      PlannedFrame& frame = plan.emplace_back(PlannedFrame{sim, camera, {}, {}});
      const std::vector<video::GroundTruthBox> truth = sim.ground_truth(camera);
      sim.skip(1 + 12);  // The frame's own step, then decorrelate samples.

      // Positives: well-visible people fully inside the frame.
      for (const auto& gt : truth) {
        if (positives >= options.num_positives) break;
        if (gt.visibility < 0.75 || gt.in_image_fraction < 0.98) continue;
        if (gt.box.h < 30.0) continue;
        frame.person_boxes.push_back(gt.box);
        ++positives;
      }

      // Negatives: random window-shaped crops that avoid people.
      int attempts = 0;
      const int wanted = options.num_negatives / (kScenes * frames_per_scene) + 2;
      int taken = 0;
      while (taken < wanted && attempts < 60 && negatives < options.num_negatives) {
        ++attempts;
        const double h = rng.uniform(45.0, 0.9 * height);
        const double w = h * static_cast<double>(kWindowWidth) / kWindowHeight;
        const double x = rng.uniform(0.0, width - w);
        const double y = rng.uniform(0.0, height - h);
        const imaging::Rect candidate{x, y, w, h};
        if (overlaps_any(candidate, truth, 0.15)) continue;
        frame.windows.push_back(candidate);
        ++negatives;
        ++taken;
      }
    }

    // Parallel pass: each frame renders and cuts its crops into its own
    // slot; the slots append in frame order. The scene is done before the
    // next one steps, so one scene's frames are in flight at a time.
    auto patches = common::parallel_map<FramePatches>(plan.size(), [&](std::size_t i) {
      const PlannedFrame& planned = plan[i];
      const imaging::Image frame = planned.sim.view(planned.camera);
      FramePatches out;
      for (const imaging::Rect& box : planned.person_boxes) {
        out.positives.push_back(window_crop(frame, box));
      }
      for (const imaging::Rect& r : planned.windows) {
        const imaging::Image crop =
            frame.crop(static_cast<int>(r.x), static_cast<int>(r.y), static_cast<int>(r.w),
                       static_cast<int>(r.h));
        out.negatives.push_back(imaging::resize(crop, kWindowWidth, kWindowHeight));
      }
      return out;
    });
    for (FramePatches& p : patches) {
      std::move(p.positives.begin(), p.positives.end(), std::back_inserter(set.positives));
      std::move(p.negatives.begin(), p.negatives.end(), std::back_inserter(set.negatives));
    }
    if (scene_index > 16) break;  // Safety valve; never triggers in practice.
  }
  return set;
}

}  // namespace eecs::detect
