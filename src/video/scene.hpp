// Multi-camera scene simulator standing in for the paper's evaluation
// datasets. Four overlapping pinhole cameras observe a ground plane on which
// person sprites random-walk among optional furniture distractors. Renders
// per-camera frames and emits per-frame ground truth (world positions and
// per-view bounding boxes with visibility), playing the role of the datasets'
// annotations + calibration.
#pragma once

#include <memory>
#include <vector>

#include "geometry/camera.hpp"
#include "imaging/image.hpp"
#include "imaging/rect.hpp"
#include "video/environment.hpp"
#include "video/person.hpp"

namespace eecs::video {

/// A static furniture-like distractor (cabinet/locker silhouette): a vertical
/// structure with person-like gradient statistics but non-clothing color.
struct ClutterItem {
  geometry::Vec2 position;  ///< Ground position.
  double height_m = 1.5;
  double width_m = 0.7;
  imaging::Color color{0.45f, 0.36f, 0.27f};
  int shelves = 3;  ///< Internal horizontal edges.
};

/// Ground-truth annotation of one person in one camera view.
struct GroundTruthBox {
  int person_id = -1;
  imaging::Rect box;  ///< Clipped to the image bounds.
  double visibility = 1.0;        ///< Fraction not occluded by nearer objects.
  double in_image_fraction = 1.0; ///< Area fraction of the unclipped box inside the frame.
  bool fully_in_image = true;
};

/// Everything the harness needs about one time step.
struct MultiViewFrame {
  int index = 0;
  std::vector<imaging::Image> views;                    ///< One per camera.
  std::vector<std::vector<GroundTruthBox>> truth;       ///< Per camera.
  std::vector<geometry::Vec2> world_positions;          ///< Per person, ground plane.
};

/// Copyable: a copy shares the immutable pre-baked backgrounds, so it costs
/// the people and cameras, not four frames, and renders exactly what the
/// original renders at the same step.
class SceneSimulator {
 public:
  SceneSimulator(const Environment& env, std::uint64_t seed);

  [[nodiscard]] const Environment& environment() const { return env_; }
  [[nodiscard]] const std::vector<geometry::PinholeCamera>& cameras() const { return cameras_; }
  [[nodiscard]] int frame_index() const { return frame_index_; }

  /// Render all camera views for the current time step, then advance.
  [[nodiscard]] MultiViewFrame next_frame();

  /// Render only one camera's view for the current step, then advance.
  /// Cheaper when a bench needs a single feed.
  [[nodiscard]] imaging::Image next_frame_single(int camera_index,
                                                 std::vector<GroundTruthBox>* truth_out = nullptr);

  /// Render one camera's view of the current (un-advanced) time step. A pure
  /// function of the scene state: per-pixel hash noise, no shared RNG.
  [[nodiscard]] imaging::Image view(int camera_index) const;

  /// Advance n steps without rendering (motion only).
  void skip(int n);

  /// Ground truth for the current (un-advanced) time step.
  [[nodiscard]] std::vector<GroundTruthBox> ground_truth(int camera_index) const;

 private:
  void advance();
  void render_person(imaging::Image& img, const geometry::PinholeCamera& cam,
                     const Person& person) const;
  void render_clutter(imaging::Image& img, const geometry::PinholeCamera& cam,
                      const ClutterItem& item) const;
  [[nodiscard]] imaging::Image make_background(int camera_index) const;

  /// Projected body box of a vertical object (person or clutter) standing at
  /// `ground` with the given physical size; nullopt if behind the camera.
  [[nodiscard]] static std::optional<imaging::Rect> body_box(const geometry::PinholeCamera& cam,
                                                             const geometry::Vec2& ground,
                                                             double height_m, double width_m);

  Environment env_;
  Rng rng_;
  std::vector<geometry::PinholeCamera> cameras_;
  std::vector<Person> people_;
  std::vector<ClutterItem> clutter_;
  /// Pre-baked static content per camera, shared by copies.
  std::shared_ptr<const std::vector<imaging::Image>> backgrounds_;
  int frame_index_ = 0;
  double dt_ = 0.1;  ///< Seconds per frame (10 fps).
};

}  // namespace eecs::video
