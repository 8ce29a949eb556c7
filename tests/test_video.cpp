#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "video/environment.hpp"
#include "video/person.hpp"
#include "video/scene.hpp"

namespace eecs::video {
namespace {

TEST(Environment, PresetsMatchPaperParameters) {
  const Environment d1 = dataset1_lab();
  EXPECT_EQ(d1.image_width, 360);
  EXPECT_EQ(d1.image_height, 288);
  EXPECT_EQ(d1.num_people, 6);
  EXPECT_EQ(d1.num_clutter, 0);
  EXPECT_EQ(d1.ground_truth_stride, 25);

  const Environment d2 = dataset2_chap();
  EXPECT_EQ(d2.image_width, 1024);
  EXPECT_EQ(d2.image_height, 768);
  EXPECT_GT(d2.num_clutter, 0);
  EXPECT_EQ(d2.ground_truth_stride, 10);

  const Environment d3 = dataset3_terrace();
  EXPECT_EQ(d3.num_people, 8);
  EXPECT_TRUE(d3.outdoor);
}

TEST(Environment, DatasetByIdDispatchesAndValidates) {
  EXPECT_EQ(dataset_by_id(1).name, "dataset1-lab");
  EXPECT_EQ(dataset_by_id(2).name, "dataset2-chap");
  EXPECT_EQ(dataset_by_id(3).name, "dataset3-terrace");
  EXPECT_THROW((void)dataset_by_id(0), ContractViolation);
  EXPECT_THROW((void)dataset_by_id(4), ContractViolation);
}

TEST(Person, RandomAppearanceWithinPhysicalRanges) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const PersonAppearance a = random_appearance(rng);
    EXPECT_GE(a.height_m, 1.60);
    EXPECT_LE(a.height_m, 1.92);
    EXPECT_GE(a.width_m, 0.48);
    EXPECT_LE(a.width_m, 0.62);
    for (float v : a.shirt) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
}

TEST(Person, WalksTowardWaypointAndStaysInRoom) {
  Rng rng(2);
  Person p(0, random_appearance(rng), {4, 4}, rng, 8, 8, 1.0);
  for (int i = 0; i < 2000; ++i) {
    p.step(0.1, rng);
    EXPECT_GE(p.position().x, 0.0);
    EXPECT_LE(p.position().x, 8.0);
    EXPECT_GE(p.position().y, 0.0);
    EXPECT_LE(p.position().y, 8.0);
  }
}

TEST(Person, MovesOverTime) {
  Rng rng(3);
  Person p(0, random_appearance(rng), {4, 4}, rng, 8, 8, 1.0);
  const auto start = p.position();
  for (int i = 0; i < 50; ++i) p.step(0.1, rng);
  EXPECT_GT(geometry::distance(start, p.position()), 0.5);
}

TEST(Person, PhaseAdvancesWhileWalking) {
  Rng rng(4);
  Person p(0, random_appearance(rng), {1, 1}, rng, 8, 8, 1.0);
  const double phase0 = p.phase();
  for (int i = 0; i < 10; ++i) p.step(0.1, rng);
  EXPECT_NE(p.phase(), phase0);
}

TEST(Scene, HasFourCamerasObservingTheRoom) {
  SceneSimulator sim(dataset1_lab(), 7);
  ASSERT_EQ(sim.cameras().size(), 4u);
  // Every camera sees the room center.
  for (const auto& cam : sim.cameras()) {
    const auto px = cam.project({4, 4, 0.9});
    ASSERT_TRUE(px.has_value());
    EXPECT_TRUE(cam.in_image(*px));
  }
}

TEST(Scene, RendersFramesOfConfiguredSize) {
  SceneSimulator sim(dataset1_lab(), 7);
  const MultiViewFrame frame = sim.next_frame();
  ASSERT_EQ(frame.views.size(), 4u);
  for (const auto& img : frame.views) {
    EXPECT_EQ(img.width(), 360);
    EXPECT_EQ(img.height(), 288);
    EXPECT_EQ(img.channels(), 3);
  }
  EXPECT_EQ(frame.index, 0);
  EXPECT_EQ(sim.frame_index(), 1);
}

TEST(Scene, DeterministicForSameSeed) {
  SceneSimulator a(dataset1_lab(), 42), b(dataset1_lab(), 42);
  const MultiViewFrame fa = a.next_frame();
  const MultiViewFrame fb = b.next_frame();
  // Identical pixel content.
  const auto da = fa.views[0].data();
  const auto db = fb.views[0].data();
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); i += 997) EXPECT_EQ(da[i], db[i]);
  ASSERT_EQ(fa.truth[0].size(), fb.truth[0].size());
}

TEST(Scene, DifferentSeedsDiffer) {
  SceneSimulator a(dataset1_lab(), 1), b(dataset1_lab(), 2);
  const auto fa = a.next_frame();
  const auto fb = b.next_frame();
  int diffs = 0;
  const auto da = fa.views[0].data();
  const auto db = fb.views[0].data();
  for (std::size_t i = 0; i < da.size(); i += 97) diffs += (da[i] != db[i]);
  EXPECT_GT(diffs, 10);
}

TEST(Scene, GroundTruthHasPeopleInView) {
  SceneSimulator sim(dataset1_lab(), 7);
  const auto truth = sim.ground_truth(0);
  EXPECT_GE(truth.size(), 2u);  // Most of the 6 people visible from a corner cam.
  for (const auto& gt : truth) {
    EXPECT_GE(gt.person_id, 0);
    EXPECT_LT(gt.person_id, 6);
    EXPECT_GT(gt.box.area(), 0.0);
    EXPECT_GE(gt.visibility, 0.0);
    EXPECT_LE(gt.visibility, 1.0);
  }
}

TEST(Scene, PeopleActuallyRenderedBrighterOrDarkerThanBackground) {
  // The pixels inside a fully visible ground-truth box must differ from the
  // pre-baked background (i.e. the sprite was drawn).
  SceneSimulator sim(dataset1_lab(), 11);
  const MultiViewFrame frame = sim.next_frame();
  SceneSimulator bg_only(dataset1_lab(), 11);  // Same scene; compare vs its own render.
  int checked = 0;
  for (const auto& gt : frame.truth[0]) {
    if (gt.visibility < 0.95 || !gt.fully_in_image) continue;
    double diff = 0.0;
    int n = 0;
    const int x0 = static_cast<int>(gt.box.x), x1 = static_cast<int>(gt.box.right());
    const int y0 = static_cast<int>(gt.box.y), y1 = static_cast<int>(gt.box.bottom());
    for (int y = y0; y < y1; ++y) {
      for (int x = x0; x < x1; ++x) {
        if (x < 0 || y < 0 || x >= frame.views[0].width() || y >= frame.views[0].height()) continue;
        diff += std::abs(frame.views[0].at(x, y, 0) - 0.55f);
        ++n;
      }
    }
    if (n > 0) {
      EXPECT_GT(diff / n, 0.02) << "sprite did not change pixels";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Scene, SkipAdvancesWithoutRendering) {
  SceneSimulator a(dataset1_lab(), 5), b(dataset1_lab(), 5);
  a.skip(10);
  for (int i = 0; i < 10; ++i) (void)b.next_frame();
  EXPECT_EQ(a.frame_index(), b.frame_index());
  // Scene state evolved identically: ground truth boxes coincide.
  const auto ta = a.ground_truth(1);
  const auto tb = b.ground_truth(1);
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_NEAR(ta[i].box.x, tb[i].box.x, 1e-9);
    EXPECT_NEAR(ta[i].box.y, tb[i].box.y, 1e-9);
  }
}

TEST(Scene, SingleViewRenderMatchesConfiguredCamera) {
  SceneSimulator sim(dataset3_terrace(), 9);
  std::vector<GroundTruthBox> truth;
  const imaging::Image img = sim.next_frame_single(2, &truth);
  EXPECT_EQ(img.width(), 360);
  EXPECT_EQ(sim.frame_index(), 1);
}

bool same_pixels(const imaging::Image& a, const imaging::Image& b) {
  return a.width() == b.width() && a.height() == b.height() && a.channels() == b.channels() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin());
}

void expect_same_truth(const std::vector<GroundTruthBox>& a, const std::vector<GroundTruthBox>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].person_id, b[i].person_id);
    EXPECT_EQ(a[i].box.x, b[i].box.x);
    EXPECT_EQ(a[i].box.y, b[i].box.y);
    EXPECT_EQ(a[i].box.w, b[i].box.w);
    EXPECT_EQ(a[i].box.h, b[i].box.h);
    EXPECT_EQ(a[i].visibility, b[i].visibility);
    EXPECT_EQ(a[i].in_image_fraction, b[i].in_image_fraction);
  }
}

// view() renders the current step without advancing, exactly what
// next_frame_single() returns for it; a copy taken before the step keeps
// rendering that step after the original moves on.
TEST(Scene, ViewAndCopiesRenderTheSameStep) {
  SceneSimulator sim(dataset2_chap(), 21);
  sim.skip(3);
  const SceneSimulator copy = sim;
  const imaging::Image view = sim.view(2);
  EXPECT_EQ(sim.frame_index(), 3);
  std::vector<GroundTruthBox> truth;
  const imaging::Image stepped = sim.next_frame_single(2, &truth);
  EXPECT_EQ(sim.frame_index(), 4);
  EXPECT_FALSE(truth.empty());
  EXPECT_TRUE(same_pixels(view, stepped));

  EXPECT_EQ(copy.frame_index(), 3);
  EXPECT_TRUE(same_pixels(copy.view(2), stepped));
  expect_same_truth(copy.ground_truth(2), truth);
  EXPECT_FALSE(same_pixels(sim.view(2), stepped));  // The original moved on.
}

// The sensor clamps twice: the illumination gain/offset to [0, 1], then the
// noise added on top of it. Saturating either way must keep every pixel in
// range, and the noise must still show on the saturated frame.
TEST(Scene, ExposureClampsGainOffsetThenNoise) {
  for (const auto& [gain, offset, rail] :
       {std::tuple{4.0f, 0.5f, 1.0f}, std::tuple{0.2f, -0.6f, 0.0f}}) {
    Environment env = dataset1_lab();
    env.illumination_gain = gain;
    env.illumination_offset = offset;
    const imaging::Image img = SceneSimulator(env, 3).view(0);
    int on_rail = 0;
    for (const float v : img.data()) {
      ASSERT_GE(v, 0.0f);
      ASSERT_LE(v, 1.0f);
      on_rail += v == rail;
    }
    EXPECT_GT(on_rail, 0) << "gain " << gain;
    EXPECT_LT(on_rail, static_cast<int>(img.data().size())) << "gain " << gain;
  }
}

TEST(Scene, InvalidCameraIndexViolatesContract) {
  SceneSimulator sim(dataset1_lab(), 9);
  EXPECT_THROW((void)sim.ground_truth(4), ContractViolation);
  EXPECT_THROW((void)sim.next_frame_single(-1), ContractViolation);
  EXPECT_THROW((void)sim.view(4), ContractViolation);
}

TEST(Scene, Dataset2ContainsClutterOccluders) {
  SceneSimulator sim(dataset2_chap(), 3);
  // Run a while; at least sometimes a person should be partially occluded or
  // clutter must exist in the scene (visibility < 1 happens).
  bool any_occlusion = false;
  for (int i = 0; i < 40 && !any_occlusion; ++i) {
    for (int cam = 0; cam < 4; ++cam) {
      for (const auto& gt : sim.ground_truth(cam)) {
        if (gt.visibility < 0.98) any_occlusion = true;
      }
    }
    sim.skip(10);
  }
  EXPECT_TRUE(any_occlusion);
}

TEST(Scene, WorldPositionsTrackPeople) {
  SceneSimulator sim(dataset1_lab(), 21);
  const MultiViewFrame frame = sim.next_frame();
  EXPECT_EQ(frame.world_positions.size(), 6u);
  for (const auto& p : frame.world_positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 8.0);
  }
}

TEST(Scene, GroundTruthBoxesAgreeWithGroundHomography) {
  // The foot point of each GT box should map near the person's world position
  // through the inverse ground homography — the datasets' calibration
  // property EECS relies on.
  SceneSimulator sim(dataset1_lab(), 33);
  const MultiViewFrame frame = sim.next_frame();
  const auto& cam = sim.cameras()[0];
  const geometry::Homography to_world = cam.ground_homography().inverse();
  for (const auto& gt : frame.truth[0]) {
    if (!gt.fully_in_image) continue;
    const auto world = to_world.apply({gt.box.foot_x(), gt.box.foot_y()});
    ASSERT_TRUE(world.has_value());
    const auto& truth_pos = frame.world_positions[static_cast<std::size_t>(gt.person_id)];
    EXPECT_NEAR(world->x, truth_pos.x, 0.25);
    EXPECT_NEAR(world->y, truth_pos.y, 0.25);
  }
}

}  // namespace
}  // namespace eecs::video
