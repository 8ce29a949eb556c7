#include "video/scene.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "imaging/draw.hpp"
#include "video/sprite.hpp"

namespace eecs::video {

using geometry::PinholeCamera;
using geometry::Vec2;
using geometry::Vec3;
using imaging::Color;
using imaging::Image;
using imaging::Rect;

namespace {

/// Fraction of `box` covered by the union of `occluders`, rasterized on a
/// coarse grid (exact union area is unnecessary for annotation purposes).
double coverage_fraction(const Rect& box, const std::vector<Rect>& occluders) {
  if (box.area() <= 0.0 || occluders.empty()) return 0.0;
  constexpr int kGrid = 12;
  int covered = 0;
  for (int gy = 0; gy < kGrid; ++gy) {
    for (int gx = 0; gx < kGrid; ++gx) {
      const double px = box.x + (gx + 0.5) * box.w / kGrid;
      const double py = box.y + (gy + 0.5) * box.h / kGrid;
      for (const Rect& occ : occluders) {
        if (occ.contains(px, py)) {
          ++covered;
          break;
        }
      }
    }
  }
  return static_cast<double>(covered) / (kGrid * kGrid);
}

double in_image_fraction(const Rect& box, int width, int height) {
  if (box.area() <= 0.0) return 0.0;
  return intersect(box, Rect{0, 0, static_cast<double>(width), static_cast<double>(height)}).area() /
         box.area();
}

/// The sensor's response, in place and in one pass: the illumination
/// gain/offset clamped to [0, 1], then uniform sensor noise with the
/// requested standard deviation, identical across channels (luminance
/// noise) and deterministic per (pixel, frame), clamped again.
void expose(Image& img, float gain, float offset, float sigma, unsigned frame_seed) {
  const bool noisy = sigma > 0.0f;
  const float amp = sigma * 3.4641016f;  // Uniform [-a/2, a/2] has sigma = a/sqrt(12).
  std::vector<float> noise(static_cast<std::size_t>(img.width()));
  for (int y = 0; y < img.height(); ++y) {
    if (noisy) {
      for (int x = 0; x < img.width(); ++x) {
        noise[static_cast<std::size_t>(x)] = (imaging::hash_noise(x, y, frame_seed) - 0.5f) * amp;
      }
    }
    for (int c = 0; c < img.channels(); ++c) {
      float* row = &img.at(0, y, c);
      for (int x = 0; x < img.width(); ++x) {
        row[x] = std::clamp(gain * row[x] + offset, 0.0f, 1.0f);
        if (noisy) row[x] = std::clamp(row[x] + noise[static_cast<std::size_t>(x)], 0.0f, 1.0f);
      }
    }
  }
}

Color scaled(const Color& c, float gain) {
  return {std::clamp(c[0] * gain, 0.0f, 1.0f), std::clamp(c[1] * gain, 0.0f, 1.0f),
          std::clamp(c[2] * gain, 0.0f, 1.0f)};
}

}  // namespace

SceneSimulator::SceneSimulator(const Environment& env, std::uint64_t seed)
    : env_(env), rng_(seed) {
  // Four cameras just outside the room corners, looking at the room center
  // slightly below head height — overlapping views as in the datasets.
  const double margin = 1.2;
  const Vec3 target{env_.room_w / 2.0, env_.room_h / 2.0, 0.9};
  const Vec3 corners[kNumCamerasPerDataset] = {
      {-margin, -margin, env_.camera_height},
      {env_.room_w + margin, -margin, env_.camera_height},
      {env_.room_w + margin, env_.room_h + margin, env_.camera_height},
      {-margin, env_.room_h + margin, env_.camera_height},
  };
  geometry::CameraIntrinsics intr;
  intr.focal_px = env_.focal_px;
  intr.width = env_.image_width;
  intr.height = env_.image_height;
  for (const Vec3& c : corners) cameras_.emplace_back(c, target, intr);

  for (int i = 0; i < env_.num_people; ++i) {
    const Vec2 pos{rng_.uniform(0.15 * env_.room_w, 0.85 * env_.room_w),
                   rng_.uniform(0.15 * env_.room_h, 0.85 * env_.room_h)};
    people_.emplace_back(i, random_appearance(rng_), pos, rng_, env_.room_w, env_.room_h,
                         env_.person_speed);
  }

  for (int i = 0; i < env_.num_clutter; ++i) {
    ClutterItem item;
    // Keep clutter out of the central walking area but inside all views.
    const double side = rng_.uniform();
    if (side < 0.5) {
      item.position = {rng_.uniform(0.18, 0.38) * env_.room_w, rng_.uniform(0.2, 0.8) * env_.room_h};
    } else {
      item.position = {rng_.uniform(0.62, 0.82) * env_.room_w, rng_.uniform(0.2, 0.8) * env_.room_h};
    }
    item.height_m = rng_.uniform(1.2, 1.8);
    item.width_m = rng_.uniform(0.55, 0.85);
    const float tone = static_cast<float>(rng_.uniform(0.3, 0.55));
    item.color = {tone, tone * 0.85f, tone * 0.62f};  // Wood/metal hues.
    item.shelves = rng_.uniform_int(2, 4);
    clutter_.push_back(item);
  }

  // Each background draws from its own feature_rng, so the four build as
  // independent tasks into index slots.
  auto backgrounds = std::make_shared<std::vector<Image>>(cameras_.size());
  common::parallel_for_each(cameras_.size(), [&](std::size_t i) {
    (*backgrounds)[i] = make_background(static_cast<int>(i));
  });
  backgrounds_ = std::move(backgrounds);
}

Image SceneSimulator::make_background(int camera_index) const {
  const PinholeCamera& cam = cameras_[static_cast<std::size_t>(camera_index)];
  Image img(env_.image_width, env_.image_height, 3);

  // Horizon: v coordinate of a very distant ground point straight ahead,
  // projected along the camera's forward ground direction so all four
  // corner cameras get a sane horizon.
  double horizon_v = env_.image_height * 0.35;
  const Vec3 probe = cam.position() + 500.0 * (Vec3{env_.room_w / 2.0, env_.room_h / 2.0, cam.position().z} - cam.position()).normalized();
  if (const auto px = cam.project({probe.x, probe.y, 0.0})) horizon_v = px->y;

  // Per-camera brightness tilt: each camera faces a different wall of the
  // room, so the background tone and features differ per view (as they do in
  // the real multi-camera datasets). This is also what lets the controller
  // tell the four feeds of one dataset apart (Table V diagonal).
  const float cam_gain = 0.90f + 0.07f * static_cast<float>(camera_index);
  const float base = env_.background_brightness * cam_gain;
  const Color wall = env_.outdoor ? Color{base * 1.05f, base * 1.08f, base * 1.15f}
                                  : Color{base, base * 0.98f, base * 0.92f};
  const Color floor = env_.outdoor ? Color{base * 0.85f, base * 0.83f, base * 0.78f}
                                   : Color{base * 0.78f, base * 0.74f, base * 0.70f};
  const int hv = std::clamp(static_cast<int>(horizon_v), 0, env_.image_height);
  imaging::fill_rect(img, {0, 0, static_cast<double>(env_.image_width), static_cast<double>(hv)}, wall);
  imaging::fill_rect(img, {0, static_cast<double>(hv), static_cast<double>(env_.image_width),
                           static_cast<double>(env_.image_height - hv)},
                     floor);

  // A few subtle vertical wall features (door frames / pillars): weak
  // gradient structure present in every environment.
  Rng feature_rng(env_.texture_seed * 97u + static_cast<unsigned>(camera_index));
  const int num_features = (env_.outdoor ? 5 : 3) + camera_index;
  for (int i = 0; i < num_features; ++i) {
    const double x = feature_rng.uniform(0.05, 0.95) * env_.image_width;
    const double w = feature_rng.uniform(0.004, 0.030) * env_.image_width + 1.0;
    imaging::fill_rect(img, {x, 0, w, static_cast<double>(hv)},
                       scaled(wall, static_cast<float>(feature_rng.uniform(0.55, 0.85))),
                       0.85f);
  }
  // A wall poster/window patch unique to this view.
  {
    const double pw = feature_rng.uniform(0.10, 0.22) * env_.image_width;
    const double ph = feature_rng.uniform(0.3, 0.6) * hv;
    const double px = feature_rng.uniform(0.05, 0.75) * env_.image_width;
    const double py = feature_rng.uniform(0.05, 0.35) * hv;
    imaging::fill_rect(img, {px, py, pw, ph},
                       Color{static_cast<float>(feature_rng.uniform(0.2, 0.9)),
                             static_cast<float>(feature_rng.uniform(0.2, 0.9)),
                             static_cast<float>(feature_rng.uniform(0.2, 0.9))},
                       0.7f);
  }

  imaging::apply_texture(img,
                         {0, 0, static_cast<double>(env_.image_width), static_cast<double>(env_.image_height)},
                         env_.texture_seed + static_cast<unsigned>(camera_index) * 131u,
                         env_.background_texture_amplitude, env_.background_texture_scale);
  return img;
}

std::optional<Rect> SceneSimulator::body_box(const PinholeCamera& cam, const Vec2& ground,
                                             double height_m, double width_m) {
  const Vec3 foot3{ground.x, ground.y, 0.0};
  const Vec3 head3{ground.x, ground.y, height_m};
  const auto foot = cam.project(foot3);
  const auto head = cam.project(head3);
  if (!foot || !head) return std::nullopt;
  const double depth = cam.depth(foot3);
  if (depth <= 0.5) return std::nullopt;  // Too close / behind.
  const double width_px = cam.intrinsics().focal_px * width_m / depth;
  const double h = foot->y - head->y;
  if (h < 3.0) return std::nullopt;
  return Rect{foot->x - width_px / 2.0, head->y, width_px, h};
}

void SceneSimulator::render_person(Image& img, const PinholeCamera& cam,
                                   const Person& person) const {
  const auto maybe_box = body_box(cam, person.position(), person.appearance().height_m,
                                  person.appearance().width_m);
  if (!maybe_box) return;
  const Rect b = *maybe_box;
  if (b.right() < 0 || b.x >= img.width() || b.bottom() < 0 || b.y >= img.height()) return;

  SpriteOptions options;
  options.walk_phase = person.phase();
  // Slight per-person lighting variation.
  options.lighting_gain = 0.9f + 0.2f * imaging::hash_noise(person.id(), 0, 4242u);
  options.ground_shadow = env_.outdoor;
  draw_person_sprite(img, b, person.appearance(), options);
}

void SceneSimulator::render_clutter(Image& img, const PinholeCamera& cam,
                                    const ClutterItem& item) const {
  const auto maybe_box = body_box(cam, item.position, item.height_m, item.width_m);
  if (!maybe_box) return;
  draw_clutter_sprite(img, *maybe_box, ClutterSprite{item.color, item.shelves});
}

Image SceneSimulator::view(int camera_index) const {
  EECS_EXPECTS(camera_index >= 0 && camera_index < static_cast<int>(cameras_.size()));
  const PinholeCamera& cam = cameras_[static_cast<std::size_t>(camera_index)];
  Image img = (*backgrounds_)[static_cast<std::size_t>(camera_index)];

  // Painter's algorithm over people and clutter together.
  struct Drawable {
    double depth;
    bool is_person;
    int index;
  };
  std::vector<Drawable> order;
  order.reserve(people_.size() + clutter_.size());
  for (std::size_t i = 0; i < people_.size(); ++i) {
    const auto& p = people_[i];
    order.push_back({cam.depth({p.position().x, p.position().y, 0}), true, static_cast<int>(i)});
  }
  for (std::size_t i = 0; i < clutter_.size(); ++i) {
    const auto& c = clutter_[i];
    order.push_back({cam.depth({c.position.x, c.position.y, 0}), false, static_cast<int>(i)});
  }
  std::sort(order.begin(), order.end(), [](const Drawable& a, const Drawable& b) {
    return a.depth > b.depth;  // Far first.
  });
  for (const Drawable& d : order) {
    if (d.is_person) {
      render_person(img, cam, people_[static_cast<std::size_t>(d.index)]);
    } else {
      render_clutter(img, cam, clutter_[static_cast<std::size_t>(d.index)]);
    }
  }

  expose(img, env_.illumination_gain, env_.illumination_offset, env_.sensor_noise_sigma,
         static_cast<unsigned>(frame_index_ * 131 + camera_index * 7 + 1));
  return img;
}

std::vector<GroundTruthBox> SceneSimulator::ground_truth(int camera_index) const {
  EECS_EXPECTS(camera_index >= 0 && camera_index < static_cast<int>(cameras_.size()));
  const PinholeCamera& cam = cameras_[static_cast<std::size_t>(camera_index)];

  struct Candidate {
    int person_id;
    Rect box;
    double depth;
  };
  std::vector<Candidate> candidates;
  for (const Person& p : people_) {
    const auto box = body_box(cam, p.position(), p.appearance().height_m, p.appearance().width_m);
    if (!box) continue;
    candidates.push_back({p.id(), *box, cam.depth({p.position().x, p.position().y, 0})});
  }
  std::vector<std::pair<Rect, double>> clutter_boxes;  // box, depth
  for (const ClutterItem& c : clutter_) {
    const auto box = body_box(cam, c.position, c.height_m, c.width_m);
    if (box) clutter_boxes.emplace_back(*box, cam.depth({c.position.x, c.position.y, 0}));
  }

  std::vector<GroundTruthBox> out;
  for (const Candidate& cand : candidates) {
    std::vector<Rect> occluders;
    for (const Candidate& other : candidates) {
      if (other.person_id != cand.person_id && other.depth < cand.depth) occluders.push_back(other.box);
    }
    for (const auto& [cbox, cdepth] : clutter_boxes) {
      if (cdepth < cand.depth) occluders.push_back(cbox);
    }
    GroundTruthBox gt;
    gt.person_id = cand.person_id;
    gt.visibility = 1.0 - coverage_fraction(cand.box, occluders);
    gt.in_image_fraction = in_image_fraction(cand.box, env_.image_width, env_.image_height);
    gt.fully_in_image = gt.in_image_fraction >= 0.95;
    // Annotations cover the visible extent: clip to the frame.
    gt.box = intersect(cand.box, Rect{0, 0, static_cast<double>(env_.image_width),
                                      static_cast<double>(env_.image_height)});
    if (gt.in_image_fraction >= 0.3) out.push_back(gt);
  }
  return out;
}

void SceneSimulator::advance() {
  for (Person& p : people_) p.step(dt_, rng_);
  ++frame_index_;
}

MultiViewFrame SceneSimulator::next_frame() {
  MultiViewFrame frame;
  frame.index = frame_index_;
  // Each view is rendered from const scene state (per-pixel hash noise, no
  // shared RNG), so the cameras fan out as independent tasks; slots are
  // index-ordered, keeping the frame bit-identical at any thread count.
  frame.views.resize(cameras_.size());
  frame.truth.resize(cameras_.size());
  common::parallel_for_each(cameras_.size(), [&](std::size_t i) {
    frame.views[i] = view(static_cast<int>(i));
    frame.truth[i] = ground_truth(static_cast<int>(i));
  });
  frame.world_positions.reserve(people_.size());
  for (const Person& p : people_) frame.world_positions.push_back(p.position());
  advance();
  return frame;
}

Image SceneSimulator::next_frame_single(int camera_index, std::vector<GroundTruthBox>* truth_out) {
  Image img = view(camera_index);
  if (truth_out != nullptr) *truth_out = ground_truth(camera_index);
  advance();
  return img;
}

void SceneSimulator::skip(int n) {
  EECS_EXPECTS(n >= 0);
  for (int i = 0; i < n; ++i) advance();
}

}  // namespace eecs::video
