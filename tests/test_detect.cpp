#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/parallel.hpp"
#include "detect/acf_detector.hpp"
#include "detect/boosting.hpp"
#include "detect/c4_detector.hpp"
#include "detect/calibration.hpp"
#include "detect/detector.hpp"
#include "detect/frame_cache.hpp"
#include "detect/hog_detector.hpp"
#include "detect/linear_svm.hpp"
#include "detect/lsvm_detector.hpp"
#include "detect/nms.hpp"
#include "detect/sweep_scheduler.hpp"
#include "setup_digest.hpp"
#include "video/scene.hpp"
#include "video/sprite.hpp"

namespace eecs::detect {
namespace {

TEST(Nms, SuppressesOverlappingLowerScores) {
  std::vector<Detection> dets{{{0, 0, 10, 20}, 1.0, 0}, {{1, 1, 10, 20}, 0.9, 0},
                              {{100, 100, 10, 20}, 0.5, 0}};
  const auto kept = non_max_suppression(dets, 0.45);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].score, 1.0);
  EXPECT_EQ(kept[1].score, 0.5);
}

TEST(Nms, KeepsDisjointDetections) {
  std::vector<Detection> dets{{{0, 0, 10, 10}, 1.0, 0}, {{50, 50, 10, 10}, 0.8, 0}};
  EXPECT_EQ(non_max_suppression(dets).size(), 2u);
}

TEST(Nms, OutputSortedByScore) {
  std::vector<Detection> dets{{{0, 0, 5, 5}, 0.2, 0}, {{20, 0, 5, 5}, 0.9, 0},
                              {{40, 0, 5, 5}, 0.5, 0}};
  const auto kept = non_max_suppression(dets);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_GE(kept[0].score, kept[1].score);
  EXPECT_GE(kept[1].score, kept[2].score);
}

TEST(LinearSvm, SeparatesLinearlySeparableData) {
  Rng rng(1);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    const float cls = (i % 2 == 0) ? 1.0f : -1.0f;
    x.push_back({cls * 2.0f + static_cast<float>(rng.normal()) * 0.3f,
                 static_cast<float>(rng.normal())});
    y.push_back(i % 2 == 0 ? 1 : -1);
  }
  const LinearModel model = train_linear_svm(x, y, rng);
  int correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    correct += ((model.score(x[i]) > 0) == (y[i] > 0));
  }
  EXPECT_GT(correct, 190);
}

TEST(LinearSvm, RejectsSingleClassData) {
  Rng rng(1);
  std::vector<std::vector<float>> x{{1, 2}, {3, 4}};
  std::vector<int> y{1, 1};
  EXPECT_THROW((void)train_linear_svm(x, y, rng), ContractViolation);
}

TEST(LinearSvm, RejectsBadLabels) {
  Rng rng(1);
  std::vector<std::vector<float>> x{{1, 2}, {3, 4}};
  std::vector<int> y{1, 0};
  EXPECT_THROW((void)train_linear_svm(x, y, rng), ContractViolation);
}

TEST(Boosting, SeparatesThresholdStructuredData) {
  Rng rng(2);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    std::vector<float> f(10);
    for (auto& v : f) v = static_cast<float>(rng.normal());
    const bool pos = i % 2 == 0;
    // Positives: feature 3 high AND feature 7 low-ish.
    if (pos) {
      f[3] += 2.0f;
      f[7] -= 1.5f;
    }
    x.push_back(f);
    y.push_back(pos ? 1 : -1);
  }
  BoostOptions options;
  options.rounds = 60;
  options.features_per_round = 10;
  const BoostedModel model = train_adaboost(x, y, rng, options);
  int correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    correct += ((model.score(x[i]) > 0) == (y[i] > 0));
  }
  EXPECT_GT(correct, 280);
}

TEST(Boosting, AlphasArePositive) {
  Rng rng(3);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 60; ++i) {
    x.push_back({static_cast<float>(i % 2) + static_cast<float>(rng.normal()) * 0.1f});
    y.push_back(i % 2 == 0 ? -1 : 1);
  }
  const BoostedModel model = train_adaboost(x, y, rng, {20, 1});
  ASSERT_FALSE(model.stumps.empty());
  for (const auto& st : model.stumps) EXPECT_GT(st.alpha, 0.0f);
}

// --- Boosting oracle: the feature-major stump search, scored in parallel,
// must pick exactly the stumps of the row-major serial search it replaced,
// kept here as the reference implementation.

/// The row-major serial reference: per feature, a sample order sorted once;
/// each round re-sums the class totals for every sampled feature and sweeps
/// it by reading x[order[i]][f], one heap row per sample.
BoostedModel reference_adaboost(const std::vector<std::vector<float>>& x,
                                const std::vector<int>& y, Rng& rng,
                                const BoostOptions& options) {
  struct Split {
    double error = 1.0;
    float threshold = 0.0f;
    float polarity = 1.0f;
  };
  const int dim = static_cast<int>(x.front().size());
  const std::size_t n = x.size();
  std::vector<int> sort_cache(static_cast<std::size_t>(dim) * n);
  for (int f = 0; f < dim; ++f) {
    int* order = sort_cache.data() + static_cast<std::size_t>(f) * n;
    std::iota(order, order + n, 0);
    std::sort(order, order + n, [&](int a, int b) {
      return x[static_cast<std::size_t>(a)][static_cast<std::size_t>(f)] <
             x[static_cast<std::size_t>(b)][static_cast<std::size_t>(f)];
    });
  }
  const auto split_for = [&](const std::vector<double>& w, int feature) {
    const int* order = sort_cache.data() + static_cast<std::size_t>(feature) * n;
    const auto value_at = [&](std::size_t rank) {
      return x[static_cast<std::size_t>(order[rank])][static_cast<std::size_t>(feature)];
    };
    double total_pos = 0.0, total_neg = 0.0;
    for (std::size_t i = 0; i < n; ++i) (y[i] == 1 ? total_pos : total_neg) += w[i];
    Split best;
    double pos_below = 0.0, neg_below = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = static_cast<std::size_t>(order[i]);
      (y[idx] == 1 ? pos_below : neg_below) += w[idx];
      const float value = value_at(i);
      if (i + 1 < n && value_at(i + 1) == value) continue;
      const double err_pos = pos_below + (total_neg - neg_below);
      const double err_neg = neg_below + (total_pos - pos_below);
      if (err_pos < best.error) best = {err_pos, value, +1.0f};
      if (err_neg < best.error) best = {err_neg, value, -1.0f};
    }
    return best;
  };

  std::vector<double> w(n, 1.0 / static_cast<double>(n));
  BoostedModel model;
  for (int round = 0; round < options.rounds; ++round) {
    const std::vector<int> features =
        rng.sample_indices(dim, std::min(options.features_per_round, dim));
    Split best;
    int best_feature = features.front();
    for (int f : features) {
      const Split split = split_for(w, f);
      if (split.error < best.error) {
        best = split;
        best_feature = f;
      }
    }
    const double eps = std::clamp(best.error, 1e-10, 1.0 - 1e-10);
    if (eps >= 0.5) continue;
    const double alpha = 0.5 * std::log((1.0 - eps) / eps);
    const Stump stump{best_feature, best.threshold, best.polarity, static_cast<float>(alpha)};
    model.stumps.push_back(stump);
    double sum_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float v = x[i][static_cast<std::size_t>(stump.feature)];
      const float h = (v > stump.threshold) ? stump.polarity : -stump.polarity;
      w[i] *= std::exp(-alpha * static_cast<double>(y[i]) * static_cast<double>(h));
      sum_w += w[i];
    }
    for (auto& wi : w) wi /= sum_w;
  }
  return model;
}

/// Same stumps, byte for byte, and the same RNG state afterwards, at widths
/// 1 and 4.
void expect_matches_reference(const std::vector<std::vector<float>>& x,
                              const std::vector<int>& y, std::uint64_t seed,
                              const BoostOptions& options) {
  Rng ref_rng(seed);
  const BoostedModel want = reference_adaboost(x, y, ref_rng, options);
  ASSERT_GT(want.stumps.size(), 1u);
  for (int width : {1, 4}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const common::ScopedThreads threads(width);
    Rng rng(seed);
    const BoostedModel got = train_adaboost(x, y, rng, options);
    ASSERT_EQ(got.stumps.size(), want.stumps.size());
    EXPECT_EQ(std::memcmp(got.stumps.data(), want.stumps.data(),
                          want.stumps.size() * sizeof(Stump)),
              0);
    const Rng::State a = rng.state(), b = ref_rng.state();
    EXPECT_EQ(a.words, b.words);
    EXPECT_EQ(a.have_cached_normal, b.have_cached_normal);
    EXPECT_EQ(std::memcmp(&a.cached_normal, &b.cached_normal, sizeof(double)), 0);
  }
}

TEST(BoostingOracle, HeavilyTiedRandomDataMatchesRowMajorSearch) {
  // Values drawn from five levels, so most sweep positions sit inside runs of
  // equal values; labels lean on a few features so the stumps are not noise.
  // The last three features duplicate the informative ones, so features tie
  // exactly and the fold's first-strictly-best rule decides.
  Rng rng(11);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 500; ++i) {
    std::vector<float> f(48);
    for (auto& v : f) v = 0.25f * static_cast<float>(rng.uniform_int(0, 4));
    f[45] = f[5];
    f[46] = f[17];
    f[47] = f[30];
    const bool pos = f[5] + f[17] - f[30] + 0.5f * static_cast<float>(rng.normal()) > 0.6f;
    x.push_back(std::move(f));
    y.push_back(pos ? 1 : -1);
  }
  expect_matches_reference(x, y, 21, {40, 16});   // A feature subsample per round.
  expect_matches_reference(x, y, 22, {40, 100});  // More than dim: every feature.
}

TEST(BoostingOracle, AcfPatchFeaturesMatchRowMajorSearch) {
  Rng rng(12);
  TrainingSetOptions options;
  options.num_positives = 60;
  options.num_negatives = 120;
  const TrainingSet set = generate_training_set(rng, options);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (const auto& p : set.positives) {
    x.push_back(acf_window_features(compute_acf_channels(p), 0, 0));
    y.push_back(1);
  }
  for (const auto& n : set.negatives) {
    x.push_back(acf_window_features(compute_acf_channels(n), 0, 0));
    y.push_back(-1);
  }
  expect_matches_reference(x, y, 23, BoostOptions{});  // The detector's own 512 rounds.
}

TEST(Platt, ProbabilityMonotonicInScore) {
  const PlattScaling platt = fit_platt({2.0, 3.0, 2.5, 4.0}, {-2.0, -1.0, -3.0, -1.5});
  EXPECT_LT(platt.probability(-2.0), platt.probability(0.0));
  EXPECT_LT(platt.probability(0.0), platt.probability(3.0));
  EXPECT_GT(platt.probability(3.0), 0.7);
  EXPECT_LT(platt.probability(-2.0), 0.3);
}

TEST(Platt, OutputsAreProbabilities) {
  const PlattScaling platt = fit_platt({1.0, 2.0}, {-1.0, -2.0});
  for (double s : {-100.0, -1.0, 0.0, 1.0, 100.0}) {
    const double p = platt.probability(s);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(Platt, RequiresBothClasses) {
  EXPECT_THROW((void)fit_platt({}, {1.0}), ContractViolation);
}

TEST(Training, GeneratesRequestedCounts) {
  Rng rng(4);
  TrainingSetOptions options;
  options.num_positives = 20;
  options.num_negatives = 30;
  const TrainingSet set = generate_training_set(rng, options);
  EXPECT_EQ(set.positives.size(), 20u);
  EXPECT_EQ(set.negatives.size(), 30u);
  for (const auto& img : set.positives) {
    EXPECT_EQ(img.width(), kWindowWidth);
    EXPECT_EQ(img.height(), kWindowHeight);
    EXPECT_EQ(img.channels(), 3);
  }
}

TEST(Training, DeterministicForSameSeed) {
  Rng a(5), b(5);
  TrainingSetOptions options;
  options.num_positives = 3;
  options.num_negatives = 3;
  const TrainingSet sa = generate_training_set(a, options);
  const TrainingSet sb = generate_training_set(b, options);
  EXPECT_EQ(sa.positives[0].at(10, 20, 1), sb.positives[0].at(10, 20, 1));
}

// The generator plans each scene serially and renders its frames in
// parallel. It must produce the serial generator's patches, in order, and
// leave the generator's stream where the serial one did: the detectors'
// forks are drawn from it. The constant is the serial generator's digest.
TEST(Training, DefaultSetMatchesSerialGeneration) {
  const std::string serial =
      "training-set positives=350 negatives=700 fnv1a=cc710f79b6d1c326 "
      "next_u64=1a31ae856775058e\n";
  for (const int width : {1, 4}) {
    const common::ScopedThreads threads(width);
    EXPECT_EQ(setup_digest::training_set(1234), serial) << "width " << width;
  }
}

TEST(Detector, WindowToPersonBoxShrinks) {
  const imaging::Rect person = window_to_person_box({0, 0, 48, 96});
  EXPECT_GT(person.x, 0.0);
  EXPECT_LT(person.w, 48.0);
  EXPECT_LT(person.h, 96.0);
  EXPECT_NEAR(person.center_x(), 24.0, 1e-9);
}

TEST(Detector, PyramidScalesAreGeometric) {
  const auto scales = pyramid_scales(0.25, 1.0, 2.0);
  ASSERT_EQ(scales.size(), 3u);
  EXPECT_DOUBLE_EQ(scales[0], 1.0);
  EXPECT_DOUBLE_EQ(scales[1], 0.5);
  EXPECT_DOUBLE_EQ(scales[2], 0.25);
}

TEST(Detector, PyramidRejectsBadArguments) {
  EXPECT_THROW((void)pyramid_scales(0.5, 0.25, 2.0), ContractViolation);
  EXPECT_THROW((void)pyramid_scales(0.5, 1.0, 1.0), ContractViolation);
}

TEST(Detector, FactoryCoversAllAlgorithms) {
  for (AlgorithmId id : all_algorithms()) {
    const auto detector = make_detector(id);
    ASSERT_NE(detector, nullptr);
    EXPECT_EQ(detector->id(), id);
    EXPECT_FALSE(detector->trained());
  }
}

TEST(Detector, UntrainedDetectViolatesContract) {
  const auto detector = make_detector(AlgorithmId::Hog);
  EXPECT_THROW((void)detector->detect(imaging::Image(64, 96, 3)), ContractViolation);
}

// Shared trained bank for the (slow) end-to-end detector checks.
const std::vector<std::unique_ptr<Detector>>& trained_bank() {
  static const auto detectors = make_trained_detectors(777);
  return detectors;
}

class TrainedDetectors : public ::testing::TestWithParam<int> {
 protected:
  static const std::vector<std::unique_ptr<Detector>>& bank() { return trained_bank(); }

  /// A frame with one big, clearly visible person on a plain background.
  static imaging::Image person_frame() {
    imaging::Image img(160, 200, 3);
    img.fill(0.55f);
    video::PersonAppearance appearance;
    appearance.shirt = {0.8f, 0.2f, 0.2f};
    appearance.pants = {0.1f, 0.1f, 0.5f};
    video::draw_person_sprite(img, {60, 40, 40, 120}, appearance, {});
    return img;
  }
};

TEST_P(TrainedDetectors, FindsAnObviousPerson) {
  const auto& detector = *bank()[static_cast<std::size_t>(GetParam())];
  ASSERT_TRUE(detector.trained());
  energy::CostCounter cost;
  const auto detections = detector.detect(person_frame(), &cost);
  ASSERT_FALSE(detections.empty()) << detect::to_string(detector.id());
  // The top detection overlaps the drawn person.
  const imaging::Rect person{60, 40, 40, 120};
  double best_iou = 0.0;
  for (const auto& d : detections) best_iou = std::max(best_iou, imaging::iou(d.box, person));
  EXPECT_GT(best_iou, 0.4) << detect::to_string(detector.id());
  EXPECT_GT(cost.compute_ops(), 0u);
}

TEST_P(TrainedDetectors, ProbabilitiesAreCalibrated) {
  const auto& detector = *bank()[static_cast<std::size_t>(GetParam())];
  for (const auto& d : detector.detect(person_frame())) {
    EXPECT_GE(d.probability, 0.0);
    EXPECT_LE(d.probability, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TrainedDetectors, ::testing::Range(0, 4),
                         [](const auto& info) {
                           return std::string(to_string(static_cast<AlgorithmId>(info.param)));
                         });

// --- Golden-detection regression: the optimized path (shared FramePrecompute
// + score maps) must be bit-identical to the legacy per-window path and to
// the captured goldens. Any perf PR that changes a single float fails here.

struct GoldenDetection {
  imaging::Rect box;
  double score = 0.0;
  double probability = 0.0;
};

/// [dataset-1][algorithm] golden lists, flattened dataset-major.
const std::array<std::vector<GoldenDetection>, 8>& golden_lists() {
  static const std::array<std::vector<GoldenDetection>, 8> lists = {{
#include "golden_detections.inc"
  }};
  return lists;
}

void expect_golden(int dataset) {
  const auto& detectors = trained_bank();
  const imaging::Image frame = setup_digest::golden_frame(dataset);
  // One cache across all four detectors, exercising cross-detector reuse
  // (HOG and LSVM share block grids at coinciding pyramid levels).
  FramePrecompute shared(frame);
  for (std::size_t a = 0; a < detectors.size(); ++a) {
    SCOPED_TRACE(to_string(detectors[a]->id()));
    energy::CostCounter cached_cost;
    const auto got = detectors[a]->detect(shared, &cached_cost);

    FramePrecompute naive(frame, /*force_naive=*/true);
    energy::CostCounter naive_cost;
    const auto ref = detectors[a]->detect(naive, &naive_cost);

    // The per-algorithm op model must not notice the cache at all.
    EXPECT_TRUE(cached_cost == naive_cost);

    const auto& want = golden_lists()[static_cast<std::size_t>(dataset - 1) * 4 + a];
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(ref.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("detection " + std::to_string(i));
      EXPECT_EQ(got[i].box.x, want[i].box.x);
      EXPECT_EQ(got[i].box.y, want[i].box.y);
      EXPECT_EQ(got[i].box.w, want[i].box.w);
      EXPECT_EQ(got[i].box.h, want[i].box.h);
      EXPECT_EQ(got[i].score, want[i].score);
      EXPECT_EQ(got[i].probability, want[i].probability);
      EXPECT_EQ(ref[i].box.x, want[i].box.x);
      EXPECT_EQ(ref[i].box.y, want[i].box.y);
      EXPECT_EQ(ref[i].score, want[i].score);
      EXPECT_EQ(ref[i].probability, want[i].probability);
    }
  }
}

TEST(GoldenDetections, Dataset1BitExact) { expect_golden(1); }

TEST(GoldenDetections, Dataset2BitExact) { expect_golden(2); }


// --- SweepScheduler: with the gate off, the scheduler-owned work-list is
// pure reordering — detections and replayed costs must be bit-identical to a
// cold per-frame cache AND to the legacy per-window path, on awkward frame
// geometries (odd dims, barely-one-window, census-crop-guard sizes) included.

TEST(SweepScheduler, GateOffMatchesNaivePathOnOddGeometries) {
  const auto& detectors = trained_bank();
  video::SceneSimulator sim(video::dataset_by_id(1), 4242);
  sim.skip(100);
  const imaging::Image base = sim.next_frame_single(0);
  const imaging::Image odd = base.crop(7, 5, 177, 143);    // Odd dims, odd origin.
  const imaging::Image tight = base.crop(0, 0, 49, 97);    // Barely one window.
  const imaging::Image census = base.crop(3, 1, 51, 99);   // C4 crop-guard edge.
  const imaging::Image* frames[] = {&base, &odd, &tight, &census};

  SweepScheduler sched(4);
  EXPECT_FALSE(sched.gating());  // No gate options: never gates.
  for (std::size_t i = 0; i < 4; ++i) {
    for (const auto& detector : detectors) sched.plan(i, *frames[i], *detector);
  }
  EXPECT_EQ(sched.tiles_pruned(), 0u);

  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    for (const auto& detector : detectors) {
      SCOPED_TRACE(to_string(detector->id()));
      energy::CostCounter sched_cost;
      const auto got = detector->detect(sched.at(i), &sched_cost);
      FramePrecompute naive(*frames[i], /*force_naive=*/true);
      energy::CostCounter naive_cost;
      const auto want = detector->detect(naive, &naive_cost);
      EXPECT_TRUE(sched_cost == naive_cost);
      EXPECT_EQ(sched_cost.windows_pruned, 0u);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t d = 0; d < want.size(); ++d) {
        EXPECT_EQ(got[d].box.x, want[d].box.x);
        EXPECT_EQ(got[d].box.y, want[d].box.y);
        EXPECT_EQ(got[d].box.w, want[d].box.w);
        EXPECT_EQ(got[d].box.h, want[d].box.h);
        EXPECT_EQ(got[d].score, want[d].score);
        EXPECT_EQ(got[d].probability, want[d].probability);
      }
    }
  }
}

// With the gate on, every pruned window is accounted: evaluated + pruned must
// equal the ungated evaluated count exactly (the EnergyLedger conservation
// argument rests on this identity), and the geometric gate must actually
// engage on a standard scene camera.

TEST(SweepScheduler, ContextGateAccountingClosesExactly) {
  const auto& detectors = trained_bank();
  video::SceneSimulator sim(video::dataset_by_id(1), 4242);
  sim.skip(100);
  const imaging::Image frame = sim.next_frame_single(0);
  const geometry::PinholeCamera& camera = sim.cameras()[0];

  ContextGateOptions gate;
  gate.enabled = true;
  SweepScheduler sched(1, gate, /*round_phase=*/1);
  for (const auto& detector : detectors) sched.plan(0, frame, *detector, &camera);
  ASSERT_TRUE(sched.gating());
  EXPECT_GT(sched.tiles_pruned(), 0u);
  EXPECT_LT(sched.tiles_pruned(), sched.tiles_planned());

  bool any_pruned = false;
  for (const auto& detector : detectors) {
    SCOPED_TRACE(to_string(detector->id()));
    energy::CostCounter off_cost;
    FramePrecompute cold(frame);
    (void)detector->detect(cold, &off_cost);
    EXPECT_EQ(off_cost.windows_pruned, 0u);

    energy::CostCounter on_cost;
    (void)detector->detect(sched.at(0), &on_cost);
    EXPECT_EQ(on_cost.windows_evaluated + on_cost.windows_pruned, off_cost.windows_evaluated);
    any_pruned = any_pruned || on_cost.windows_pruned > 0;
  }
  EXPECT_TRUE(any_pruned);
}

TEST(SweepScheduler, SingleRowBandsKeepTheAccountingIdentity) {
  // band_rows=1 is the finest tiling the gate supports — the widen-to-band
  // rounding disappears and the feasible interval is exact per row.
  const auto& detectors = trained_bank();
  video::SceneSimulator sim(video::dataset_by_id(1), 4242);
  sim.skip(100);
  const imaging::Image frame = sim.next_frame_single(0);
  const geometry::PinholeCamera& camera = sim.cameras()[0];

  ContextGateOptions coarse;
  coarse.enabled = true;
  ContextGateOptions fine = coarse;
  fine.band_rows = 1;
  SweepScheduler sched_coarse(1, coarse, 1);
  SweepScheduler sched_fine(1, fine, 1);
  for (const auto& detector : detectors) {
    sched_coarse.plan(0, frame, *detector, &camera);
    sched_fine.plan(0, frame, *detector, &camera);
  }

  for (const auto& detector : detectors) {
    SCOPED_TRACE(to_string(detector->id()));
    energy::CostCounter off_cost;
    FramePrecompute cold(frame);
    (void)detector->detect(cold, &off_cost);
    energy::CostCounter coarse_cost;
    (void)detector->detect(sched_coarse.at(0), &coarse_cost);
    energy::CostCounter fine_cost;
    (void)detector->detect(sched_fine.at(0), &fine_cost);
    // Identity holds at both granularities; the fine gate prunes at least as
    // much as the band-16 gate (its intervals are subsets of the widened ones).
    EXPECT_EQ(fine_cost.windows_evaluated + fine_cost.windows_pruned,
              off_cost.windows_evaluated);
    EXPECT_EQ(coarse_cost.windows_evaluated + coarse_cost.windows_pruned,
              off_cost.windows_evaluated);
    EXPECT_GE(fine_cost.windows_pruned, coarse_cost.windows_pruned);
  }
}

TEST(SweepScheduler, RecoveryRoundsSweepUngatedBitExactly) {
  ContextGateOptions gate;
  gate.enabled = true;
  gate.recovery_every = 8;
  // Gated from round 0; every 8th round thereafter is an ungated recovery.
  EXPECT_TRUE(SweepScheduler(1, gate, 0).gating());
  EXPECT_TRUE(SweepScheduler(1, gate, 1).gating());
  EXPECT_TRUE(SweepScheduler(1, gate, 7).gating());
  EXPECT_FALSE(SweepScheduler(1, gate, 8).gating());
  EXPECT_TRUE(SweepScheduler(1, gate, 9).gating());
  EXPECT_FALSE(SweepScheduler(1, gate, 16).gating());
  ContextGateOptions every_round = gate;
  every_round.recovery_every = 1;
  EXPECT_TRUE(SweepScheduler(1, every_round, 8).gating());
  ContextGateOptions off;
  EXPECT_FALSE(SweepScheduler(1, off, 1).gating());

  // A recovery-round scheduler with a camera attached behaves exactly like
  // gate-off: same detections, same costs, nothing pruned.
  const auto& detectors = trained_bank();
  video::SceneSimulator sim(video::dataset_by_id(1), 4242);
  sim.skip(100);
  const imaging::Image frame = sim.next_frame_single(0);
  const geometry::PinholeCamera& camera = sim.cameras()[0];
  SweepScheduler recovery(1, gate, /*round_phase=*/8);
  for (const auto& detector : detectors) recovery.plan(0, frame, *detector, &camera);
  EXPECT_EQ(recovery.tiles_pruned(), 0u);
  for (const auto& detector : detectors) {
    SCOPED_TRACE(to_string(detector->id()));
    energy::CostCounter rec_cost;
    const auto got = detector->detect(recovery.at(0), &rec_cost);
    FramePrecompute cold(frame);
    energy::CostCounter cold_cost;
    const auto want = detector->detect(cold, &cold_cost);
    EXPECT_TRUE(rec_cost == cold_cost);
    EXPECT_EQ(rec_cost.windows_pruned, 0u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t d = 0; d < want.size(); ++d) {
      EXPECT_EQ(got[d].score, want[d].score);
      EXPECT_EQ(got[d].box.x, want[d].box.x);
      EXPECT_EQ(got[d].box.y, want[d].box.y);
    }
  }
}

TEST(SweepGate, FeasibleRowsAreAProperSubrangeOnASceneCamera) {
  video::SceneSimulator sim(video::dataset_by_id(1), 4242);
  const geometry::PinholeCamera& camera = sim.cameras()[0];
  ContextGateOptions opts;
  opts.enabled = true;
  const int w = camera.intrinsics().width;
  const int h = camera.intrinsics().height;
  const SweepGate gate(camera, opts, w, h);
  ASSERT_TRUE(gate.valid());
  // Full resolution: the far-field rows above the feasibility band are cut.
  const RowInterval full = gate.top_rows(w, h);
  ASSERT_FALSE(full.empty());
  EXPECT_GT(full.lo, 0);
  // A deep pyramid level implies a person too large for any row: all pruned.
  EXPECT_TRUE(gate.top_rows(w / 3, h / 3).empty());
  // Band alignment: the interval is widened outward to band_rows boundaries.
  EXPECT_EQ(full.lo % opts.band_rows, 0);
}

TEST(SweepGate, NullGateAndDegenerateCalibrationNeverPrune) {
  // Null gate: the full anchor range, whatever the stride/offset.
  const RowInterval all = gated_anchor_rows(nullptr, 360, 288, 8, 0, 23);
  EXPECT_EQ(all.lo, 0);
  EXPECT_EQ(all.hi, 23);
  EXPECT_TRUE(gated_anchor_rows(nullptr, 360, 288, 8, 0, -1).empty());

  // A camera mounted ON the ground plane sees it edge-on: the ground
  // homography collapses to a line, its inverse throws, and the gate must
  // come out invalid -> full range, never pruning.
  geometry::CameraIntrinsics intr;
  const geometry::PinholeCamera grounded({0, 0, 0.0}, {8, 0, 0.5}, intr);
  ContextGateOptions opts;
  opts.enabled = true;
  const SweepGate gate(grounded, opts, intr.width, intr.height);
  EXPECT_FALSE(gate.valid());
  const RowInterval rows = gate.top_rows(intr.width, intr.height);
  EXPECT_EQ(rows.lo, 0);
  EXPECT_EQ(rows.hi, intr.height - kWindowHeight);
}

TEST(SweepGate, AnchorConversionRespectsStrideAndOffset) {
  video::SceneSimulator sim(video::dataset_by_id(1), 4242);
  const geometry::PinholeCamera& camera = sim.cameras()[0];
  ContextGateOptions opts;
  opts.enabled = true;
  const int w = camera.intrinsics().width;
  const int h = camera.intrinsics().height;
  const SweepGate gate(camera, opts, w, h);
  ASSERT_TRUE(gate.valid());
  const RowInterval rows = gate.top_rows(w, h);
  ASSERT_FALSE(rows.empty());
  for (const int stride : {4, 8}) {
    for (const int offset : {0, 4}) {
      const int max_anchor = (h - offset - kWindowHeight) / stride;
      const RowInterval a = gated_anchor_rows(&gate, w, h, stride, offset, max_anchor);
      ASSERT_FALSE(a.empty());
      // Every kept anchor's window top lies inside the feasible interval, and
      // the anchors just outside fall off it.
      EXPECT_GE(a.lo * stride + offset, rows.lo);
      EXPECT_LE(a.hi * stride + offset, rows.hi);
      if (a.lo > 0) {
        EXPECT_LT((a.lo - 1) * stride + offset, rows.lo);
      }
      if (a.hi < max_anchor) {
        EXPECT_GT((a.hi + 1) * stride + offset, rows.hi);
      }
    }
  }
}

// The work-list counts a tile for every (scale, row band) a detector scans,
// the full-resolution level included: ACF's ladder starts at 1.0, where
// scaled() hands back the frame itself and precompute_plan() lists nothing.
TEST(SweepScheduler, TilesCoverEveryScannedLevel) {
  video::SceneSimulator sim(video::dataset_by_id(1), 4242);
  const imaging::Image frame = sim.next_frame_single(0);
  ASSERT_EQ(frame.width(), 360);
  ASSERT_EQ(frame.height(), 288);
  const AcfDetector acf;  // Planning reads only the pyramid, not a model.

  SweepScheduler crop_sched(1);
  const imaging::Image crop = frame.crop(0, 0, kWindowWidth, kWindowHeight);
  crop_sched.plan(0, crop, acf);
  EXPECT_EQ(crop_sched.tiles_planned(), 1u);

  const AcfDetectorParams params;
  const int band = ContextGateOptions{}.band_rows;
  std::uint64_t want = 0;
  for (double s : pyramid_scales(params.min_scale, params.max_scale, params.scale_factor)) {
    const long w = std::lround(frame.width() * s);
    const long h = std::lround(frame.height() * s);
    if (w < kWindowWidth || h < kWindowHeight) continue;
    want += static_cast<std::uint64_t>((h - kWindowHeight) / band) + 1;
  }
  SweepScheduler frame_sched(1);
  frame_sched.plan(0, frame, acf);
  EXPECT_EQ(frame_sched.tiles_planned(), want);
  EXPECT_EQ(want, 34u);
}

TEST(SweepScheduler, UnplannedSlotsAreReported) {
  SweepScheduler sched(2);
  EXPECT_FALSE(sched.planned(0));
  EXPECT_FALSE(sched.planned(5));  // Out of range, not a crash.
  const auto& detectors = trained_bank();
  video::SceneSimulator sim(video::dataset_by_id(1), 4242);
  const imaging::Image frame = sim.next_frame_single(0);
  sched.plan(1, frame, *detectors[0]);
  EXPECT_FALSE(sched.planned(0));
  EXPECT_TRUE(sched.planned(1));
}

}  // namespace
}  // namespace eecs::detect
