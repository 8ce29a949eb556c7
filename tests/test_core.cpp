#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/metrics.hpp"
#include "core/offline.hpp"
#include "setup_digest.hpp"

namespace eecs::core {
namespace {

video::GroundTruthBox gt(int person, double x, double y, double w, double h,
                         double visibility = 1.0, double in_image = 1.0) {
  video::GroundTruthBox box;
  box.person_id = person;
  box.box = {x, y, w, h};
  box.visibility = visibility;
  box.in_image_fraction = in_image;
  box.fully_in_image = in_image >= 0.95;
  return box;
}

detect::Detection det(double x, double y, double w, double h, double score) {
  detect::Detection d;
  d.box = {x, y, w, h};
  d.score = score;
  return d;
}

TEST(Metrics, PerfectMatch) {
  const auto result = match_detections({det(10, 10, 20, 40, 1.0)}, {gt(0, 10, 10, 20, 40)});
  EXPECT_EQ(result.counts.true_positives, 1);
  EXPECT_EQ(result.counts.false_positives, 0);
  EXPECT_EQ(result.counts.false_negatives, 0);
  ASSERT_EQ(result.matched_person_ids.size(), 1u);
  EXPECT_EQ(result.matched_person_ids[0], 0);
}

TEST(Metrics, LowIouIsFalsePositiveAndFalseNegative) {
  const auto result = match_detections({det(100, 100, 20, 40, 1.0)}, {gt(0, 10, 10, 20, 40)});
  EXPECT_EQ(result.counts.true_positives, 0);
  EXPECT_EQ(result.counts.false_positives, 1);
  EXPECT_EQ(result.counts.false_negatives, 1);
}

TEST(Metrics, OneDetectionPerGroundTruth) {
  // Two overlapping detections on one person: one TP, one FP.
  const auto result = match_detections(
      {det(10, 10, 20, 40, 1.0), det(11, 11, 20, 40, 0.9)}, {gt(0, 10, 10, 20, 40)});
  EXPECT_EQ(result.counts.true_positives, 1);
  EXPECT_EQ(result.counts.false_positives, 1);
}

TEST(Metrics, HigherScoreWinsTheMatch) {
  const auto result = match_detections(
      {det(10, 10, 20, 40, 0.2), det(12, 10, 20, 40, 0.9)}, {gt(0, 11, 10, 20, 40)});
  EXPECT_EQ(result.counts.true_positives, 1);
  ASSERT_EQ(result.matched_detections.size(), 1u);
  EXPECT_DOUBLE_EQ(result.matched_detections[0].score, 0.9);
}

TEST(Metrics, OccludedGroundTruthIsIgnoredNotMissed) {
  // Heavily occluded person: no FN for missing it, no FP for hitting it.
  const auto missed = match_detections({}, {gt(0, 10, 10, 20, 40, /*visibility=*/0.2)});
  EXPECT_EQ(missed.counts.false_negatives, 0);
  const auto hit = match_detections({det(10, 10, 20, 40, 1.0)},
                                    {gt(0, 10, 10, 20, 40, /*visibility=*/0.2)});
  EXPECT_EQ(hit.counts.false_positives, 0);
  EXPECT_EQ(hit.counts.true_positives, 0);
}

TEST(Metrics, MostlyOutOfFrameIsIgnored) {
  const auto result = match_detections({}, {gt(0, 0, 0, 20, 40, 1.0, /*in_image=*/0.4)});
  EXPECT_EQ(result.counts.false_negatives, 0);
}

TEST(Metrics, ComputePrEdgeCases) {
  EXPECT_DOUBLE_EQ(compute_pr({0, 0, 0}).f_score, 0.0);
  const auto perfect = compute_pr({10, 0, 0});
  EXPECT_DOUBLE_EQ(perfect.precision, 1.0);
  EXPECT_DOUBLE_EQ(perfect.recall, 1.0);
  EXPECT_DOUBLE_EQ(perfect.f_score, 1.0);
  const auto half = compute_pr({5, 5, 5});
  EXPECT_DOUBLE_EQ(half.precision, 0.5);
  EXPECT_DOUBLE_EQ(half.recall, 0.5);
  EXPECT_DOUBLE_EQ(half.f_score, 0.5);
}

TEST(Metrics, FScoreFormulaMatchesPaper) {
  // f = 2 * P * R / (P + R).
  const auto pr = compute_pr({6, 2, 4});  // P = 0.75, R = 0.6.
  EXPECT_NEAR(pr.f_score, 2 * 0.75 * 0.6 / (0.75 + 0.6), 1e-12);
}

TEST(Metrics, ApplyThresholdFilters) {
  const auto kept = apply_threshold({det(0, 0, 1, 1, 0.5), det(0, 0, 1, 1, 0.2)}, 0.4);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].score, 0.5);
}

TEST(Metrics, ThresholdSweepPicksFMaximizer) {
  // One true person; detections: a high-scoring TP and a low-scoring FP.
  // Any threshold between them yields f = 1; the sweep must find it.
  std::vector<FrameEvaluation> frames(1);
  frames[0].detections = {det(10, 10, 20, 40, 2.0), det(100, 100, 20, 40, 0.5)};
  frames[0].truth = {gt(0, 10, 10, 20, 40)};
  const auto sweep = sweep_threshold(frames);
  EXPECT_GT(sweep.best_threshold, 0.5);
  EXPECT_LE(sweep.best_threshold, 2.0);
  EXPECT_DOUBLE_EQ(sweep.best.f_score, 1.0);
}

TEST(Metrics, ThresholdSweepEmptyFramesSafe) {
  const auto sweep = sweep_threshold({});
  EXPECT_DOUBLE_EQ(sweep.best.f_score, 0.0);
}

TEST(Metrics, SweepPrecisionRecallTradeoff) {
  // Lower thresholds add a second TP but also two FPs; check the sweep picks
  // the better operating point by f-score.
  std::vector<FrameEvaluation> frames(1);
  frames[0].detections = {det(10, 10, 20, 40, 2.0), det(50, 10, 20, 40, 1.0),
                          det(100, 100, 20, 40, 0.9), det(150, 100, 20, 40, 0.9)};
  frames[0].truth = {gt(0, 10, 10, 20, 40), gt(1, 50, 10, 20, 40)};
  const auto sweep = sweep_threshold(frames);
  // Best: threshold in (0.9, 1.0]: 2 TP, 0 FP -> f = 1.
  EXPECT_DOUBLE_EQ(sweep.best.f_score, 1.0);
  EXPECT_EQ(sweep.counts_at_best.true_positives, 2);
}

TEST(OfflineProfiles, BestAffordableRespectsBudget) {
  TrainingItemProfile item;
  AlgorithmProfile expensive;
  expensive.id = detect::AlgorithmId::Hog;
  expensive.accuracy.f_score = 0.9;
  expensive.cpu_joules_per_frame = 1.0;
  AlgorithmProfile cheap;
  cheap.id = detect::AlgorithmId::Acf;
  cheap.accuracy.f_score = 0.6;
  cheap.cpu_joules_per_frame = 0.1;
  item.algorithms = {expensive, cheap};  // Sorted by f.

  EXPECT_EQ(item.best_affordable(2.0)->id, detect::AlgorithmId::Hog);
  EXPECT_EQ(item.best_affordable(0.5)->id, detect::AlgorithmId::Acf);
  EXPECT_EQ(item.best_affordable(0.01), nullptr);
  EXPECT_EQ(item.find(detect::AlgorithmId::Acf)->accuracy.f_score, 0.6);
  EXPECT_EQ(item.find(detect::AlgorithmId::C4), nullptr);
}

TEST(OfflineProfiles, FPerJouleOrdersDowngradeCandidates) {
  AlgorithmProfile a;
  a.accuracy.f_score = 0.9;
  a.cpu_joules_per_frame = 1.0;
  AlgorithmProfile b;
  b.accuracy.f_score = 0.6;
  b.cpu_joules_per_frame = 0.1;
  EXPECT_GT(b.f_per_joule(), a.f_per_joule());
}

// --- Offline-knowledge goldens: every profile field and the comparator's
// similarities on a fixed probe, captured at %.17g. Regenerate with
// tools/golden_offline after an intentional change to offline numerics.

struct GoldenOffline {
  int frames_per_item = 0;
  const char* digest = nullptr;
};

constexpr GoldenOffline kGoldenOffline[] = {
#include "golden_offline.inc"
};

void expect_offline_golden(int frames_per_item) {
  static const DetectorBank bank = detect::make_trained_detectors(1234);
  const auto golden =
      std::find_if(std::begin(kGoldenOffline), std::end(kGoldenOffline),
                   [&](const auto& g) { return g.frames_per_item == frames_per_item; });
  ASSERT_NE(golden, std::end(kGoldenOffline));
  const auto want = setup_digest::lines(golden->digest);
  const auto got = setup_digest::lines(
      setup_digest::knowledge(setup_digest::reference_knowledge(bank, frames_per_item)));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(GoldenOffline, FramesPerItem4BitExact) { expect_offline_golden(4); }

// 14 GT frames exceed feature_frames_per_item (12): the segment hop is set by
// the GT frames instead, and the last two GT frames carry no features.
TEST(GoldenOffline, FramesPerItem14BitExact) { expect_offline_golden(14); }

}  // namespace
}  // namespace eecs::core
