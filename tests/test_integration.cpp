// End-to-end integration: offline training -> camera registration via GFK ->
// assessment -> greedy selection (+ downgrade) -> operation, on a short slice
// of dataset #1. Uses reduced sampling so the whole file runs in ~a minute.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/simulation.hpp"
#include "loop_digest.hpp"
#include "obs/telemetry.hpp"

namespace eecs::core {
namespace {

class EecsIntegration : public ::testing::Test {
 protected:
  static const DetectorBank& bank() {
    static const DetectorBank detectors = detect::make_trained_detectors(1234);
    return detectors;
  }

  static OfflineOptions options() {
    OfflineOptions opts;
    opts.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
    opts.frames_per_item = 4;
    return opts;
  }

  static const OfflineKnowledge& knowledge() {
    static const OfflineKnowledge k = run_offline_training(bank(), {1}, 42, options());
    return k;
  }

  static EecsSimulationConfig config(SelectionMode mode) {
    EecsSimulationConfig cfg;
    cfg.dataset = 1;
    cfg.mode = mode;
    cfg.budget_per_frame = 3.0;
    cfg.controller.algorithms = options().algorithms;
    cfg.models = options();
    cfg.end_frame = 1900;  // One recalibration round.
    return cfg;
  }
};

TEST_F(EecsIntegration, OfflineTrainingProfilesAllItemsAndAlgorithms) {
  ASSERT_EQ(knowledge().profiles().size(), 4u);  // 1 dataset x 4 cameras.
  for (const auto& item : knowledge().profiles()) {
    ASSERT_EQ(item.algorithms.size(), 2u);
    // Rank order: descending f-score.
    EXPECT_GE(item.algorithms[0].accuracy.f_score, item.algorithms[1].accuracy.f_score);
    for (const auto& p : item.algorithms) {
      EXPECT_GT(p.cpu_joules_per_frame, 0.0);
      EXPECT_GE(p.accuracy.f_score, 0.0);
      EXPECT_LE(p.accuracy.f_score, 1.0);
    }
  }
}

TEST_F(EecsIntegration, Dataset1PrefersHogOverAcf) {
  // The paper's Table II/IV property: on the low-resolution indoor set, HOG
  // outranks ACF (which misses small people).
  int hog_best = 0;
  for (const auto& item : knowledge().profiles()) {
    hog_best += (item.algorithms.front().id == detect::AlgorithmId::Hog);
  }
  EXPECT_GE(hog_best, 3);  // At least 3 of 4 cameras.
}

TEST_F(EecsIntegration, AcfIsCheaperThanHog) {
  for (const auto& item : knowledge().profiles()) {
    const auto* hog = item.find(detect::AlgorithmId::Hog);
    const auto* acf = item.find(detect::AlgorithmId::Acf);
    ASSERT_NE(hog, nullptr);
    ASSERT_NE(acf, nullptr);
    EXPECT_LT(acf->total_joules_per_frame(), hog->total_joules_per_frame());
  }
}

TEST_F(EecsIntegration, AllBestRunsEveryCamera) {
  const SimulationResult result = run_eecs_simulation(bank(), knowledge(), config(SelectionMode::AllBest));
  ASSERT_FALSE(result.rounds.empty());
  EXPECT_EQ(result.rounds.front().stats.cameras_active, 4);
  EXPECT_GT(result.humans_present, 0);
  EXPECT_GT(result.humans_detected, 0);
  EXPECT_GT(result.total_joules(), 0.0);
}

TEST_F(EecsIntegration, SubsetSavesEnergyAtBoundedAccuracyLoss) {
  const SimulationResult baseline =
      run_eecs_simulation(bank(), knowledge(), config(SelectionMode::AllBest));
  const SimulationResult subset =
      run_eecs_simulation(bank(), knowledge(), config(SelectionMode::SubsetOnly));
  const SimulationResult downgraded =
      run_eecs_simulation(bank(), knowledge(), config(SelectionMode::SubsetDowngrade));

  // Energy ordering: downgrade <= subset <= baseline (allowing equality when
  // the selection cannot be reduced).
  EXPECT_LE(subset.total_joules(), baseline.total_joules() * 1.001);
  EXPECT_LE(downgraded.total_joules(), subset.total_joules() * 1.001);
  // The paper's headline: large savings at a bounded accuracy hit.
  EXPECT_LT(downgraded.total_joules(), baseline.total_joules() * 0.95);
  EXPECT_GT(static_cast<double>(downgraded.humans_detected),
            0.70 * static_cast<double>(baseline.humans_detected));

  // Selection logs are populated and respect gamma constraints.
  for (const auto& round : subset.rounds) {
    EXPECT_GE(round.stats.n_est, 0.85 * round.stats.n_star - 1e-9);
  }
}

TEST_F(EecsIntegration, RegistrationMatchesCamerasToOwnFeed) {
  // The controller's GFK match should send every camera to a dataset-1 item.
  video::SceneSimulator sim(video::dataset1_lab(), 777);
  reid::ReIdentifier reid = make_reidentifier(sim);
  EecsController controller(knowledge(), std::move(reid), {});
  sim.skip(1200);
  std::vector<imaging::Image> frames;
  for (int i = 0; i < 12; ++i) {
    frames.push_back(sim.next_frame_single(2));
    sim.skip(24);
  }
  linalg::Matrix features(static_cast<int>(frames.size()), knowledge().extractor().dimension());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto f = knowledge().extractor().extract(frames[i]);
    for (int c = 0; c < features.cols(); ++c) {
      features(static_cast<int>(i), c) = f[static_cast<std::size_t>(c)];
    }
  }
  controller.register_camera(2, features, 3.0);
  const int matched = controller.matched_item(2);
  ASSERT_GE(matched, 0);
  EXPECT_EQ(knowledge().profile(matched).dataset, 1);
  EXPECT_EQ(knowledge().profile(matched).camera, 2);  // Exact feed match.
  ASSERT_NE(controller.best_entry(2), nullptr);
}

TEST_F(EecsIntegration, TightBudgetExcludesExpensiveAlgorithms) {
  video::SceneSimulator sim(video::dataset1_lab(), 777);
  EecsController controller(knowledge(), make_reidentifier(sim), {});
  sim.skip(1200);
  std::vector<imaging::Image> frames;
  for (int i = 0; i < 12; ++i) {
    frames.push_back(sim.next_frame_single(0));
    sim.skip(24);
  }
  linalg::Matrix features(static_cast<int>(frames.size()), knowledge().extractor().dimension());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto f = knowledge().extractor().extract(frames[i]);
    for (int c = 0; c < features.cols(); ++c) {
      features(static_cast<int>(i), c) = f[static_cast<std::size_t>(c)];
    }
  }
  // Budget below HOG's cost: only ACF affordable.
  controller.register_camera(0, features, 0.8);
  ASSERT_NE(controller.best_entry(0), nullptr);
  EXPECT_EQ(controller.best_entry(0)->id, detect::AlgorithmId::Acf);
  EXPECT_EQ(controller.entry(0, detect::AlgorithmId::Hog), nullptr);
}

TEST_F(EecsIntegration, FaultAndTimingViewsMatchRegistry) {
  // FaultCounters/StageTimings are views assigned once from the obs registry;
  // in a fresh session the run's deltas equal the absolute metric values.
  obs::ScopedTelemetry telemetry;
  const SimulationResult result =
      run_eecs_simulation(bank(), knowledge(), config(SelectionMode::SubsetDowngrade));
  auto& metrics = telemetry.session().metrics();
  const auto count = [&](const char* name) {
    return static_cast<long>(metrics.counter(name).value());
  };
  EXPECT_EQ(result.faults.messages_sent, count("net.messages.sent"));
  EXPECT_EQ(result.faults.messages_lost, count("net.messages.lost"));
  EXPECT_EQ(result.faults.assignments_retried, count("protocol.assignments.retried"));
  EXPECT_EQ(result.faults.assignments_abandoned, count("protocol.assignments.abandoned"));
  EXPECT_EQ(result.faults.registrations_lost, count("protocol.registrations.lost"));
  EXPECT_EQ(result.faults.decode_errors, count("protocol.decode_errors"));
  EXPECT_EQ(result.faults.cameras_failed, static_cast<int>(count("liveness.cameras.failed")));
  EXPECT_EQ(result.faults.cameras_recovered,
            static_cast<int>(count("liveness.cameras.recovered")));
  EXPECT_EQ(result.faults.midround_reselections,
            static_cast<int>(count("liveness.midround_reselections")));
  EXPECT_EQ(result.faults.frames_skipped_exhausted, count("battery.frames_skipped"));
  const auto gauge = [&](const char* name) {
    return metrics.gauge(name, obs::Determinism::WallClock).value();
  };
  EXPECT_DOUBLE_EQ(result.timings.render_s, gauge("stage.render_s"));
  EXPECT_DOUBLE_EQ(result.timings.detect_s, gauge("stage.detect_s"));
  EXPECT_DOUBLE_EQ(result.timings.features_s, gauge("stage.features_s"));
  EXPECT_DOUBLE_EQ(result.timings.controller_s, gauge("stage.controller_s"));
  EXPECT_DOUBLE_EQ(result.timings.net_s, gauge("stage.net_s"));
  EXPECT_GT(result.faults.messages_sent, 0);  // The run actually exercised the net.
}

// Property: the energy book balances bit-exactly against the result's joules
// and battery residuals, and its per-key entries sum exactly to its totals,
// under heavy fault injection — lossy links, a mid-run blackout, camera
// crashes — and across a checkpointed crash plus resume (the resumed book is
// restored from the snapshot, so it must still cover the WHOLE run). The
// book is on in every build, so this checks the same in both build flavours.
TEST_F(EecsIntegration, LedgerConservationSurvivesFaultsAndResume) {
  EecsSimulationConfig cfg = config(SelectionMode::AllBest);
  cfg.uplink.loss_probability = 0.15;
  cfg.downlink.loss_probability = 0.2;
  cfg.battery_joules = 120.0;  // Small enough that cameras run dry mid-run.
  cfg.end_frame = 2200;        // Two rounds, so a round-1 checkpoint resumes mid-run.
  cfg.faults.add_blackout(1450, 1520);
  cfg.faults.add_crash(1, 1600, 1750);  // Camera 0 is network node 1.
  cfg.runtime.round_deadline_gt_frames = 3.0;
  cfg.runtime.degradation.enabled = true;
  cfg.runtime.degradation.anomaly_advisory = true;

  const auto conservation_of = [&](const EecsSimulationConfig& run_cfg) {
    obs::ScopedTelemetry telemetry;
    const SimulationResult r = run_eecs_simulation(bank(), knowledge(), run_cfg);
    return telemetry.session().ledger().check(r.cpu_joules, r.radio_joules, r.battery_residual);
  };

  const auto uninterrupted = conservation_of(cfg);
  EXPECT_TRUE(uninterrupted.ok) << uninterrupted.detail;

  const std::string snapshot = "test_ledger_conservation.snap";
  EecsSimulationConfig crash = cfg;
  crash.runtime.checkpoint_every_rounds = 1;
  crash.runtime.checkpoint_path = snapshot;
  crash.runtime.stop_after_rounds = 1;
  const auto crashed = conservation_of(crash);
  EXPECT_TRUE(crashed.ok) << crashed.detail;  // Partial run, partial ledger.

  EecsSimulationConfig resume = cfg;
  resume.runtime.resume_from = snapshot;
  const auto resumed = conservation_of(resume);
  EXPECT_TRUE(resumed.ok) << resumed.detail;
}

TEST_F(EecsIntegration, DeterministicMetricsInvariantAcrossThreadWidths) {
  // Force the lazily-trained fixtures now, so neither scoped session below
  // absorbs the offline-training detector invocations.
  const DetectorBank& detectors = bank();
  const OfflineKnowledge& trained = knowledge();
  const auto snapshot_at = [&](int threads) {
    obs::ScopedTelemetry telemetry;
    EecsSimulationConfig cfg = config(SelectionMode::SubsetDowngrade);
    cfg.threads = threads;
    (void)run_eecs_simulation(detectors, trained, cfg);
    return telemetry.session().metrics().deterministic_snapshot();
  };
  const auto serial = snapshot_at(1);
  const auto wide = snapshot_at(4);
  EXPECT_FALSE(serial.empty());
  // Render both through the %.17g reporter: equal strings == bit-identical.
  EXPECT_EQ(obs::MetricsRegistry::diff_report({}, serial),
            obs::MetricsRegistry::diff_report({}, wide));
}

// --- Closed-loop goldens: the %.17g report of every SimulationResult field
// for each leg of tests/loop_digest.hpp (and the durable leg's snapshot
// bytes), on the fixture's bank and knowledge. Regenerate with
// tools/golden_loop after an intentional change to loop numerics.

struct GoldenLoopEntry {
  const char* name = nullptr;
  const char* digest = nullptr;
};

constexpr GoldenLoopEntry kGoldenLoop[] = {
#include "golden_loop.inc"
};

class GoldenLoop : public EecsIntegration {
 protected:
  static void expect_golden(const std::string& name, const std::string& digest) {
    const auto golden = std::find_if(std::begin(kGoldenLoop), std::end(kGoldenLoop),
                                     [&](const auto& g) { return name == g.name; });
    ASSERT_NE(golden, std::end(kGoldenLoop));
    const auto want = setup_digest::lines(golden->digest);
    const auto got = setup_digest::lines(digest);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  }
};

TEST_F(GoldenLoop, SubsetDowngradeBitExact) {
  expect_golden("subset_downgrade", loop_digest::subset_downgrade(bank(), knowledge()));
}

TEST_F(GoldenLoop, DurableResumeBitExact) {
  const loop_digest::DurableDigest durable =
      loop_digest::durable_resume(bank(), knowledge(), "test_golden_loop.snap");
  expect_golden("durable_resume", durable.result);
  expect_golden("durable_snapshot", durable.snapshot);
}

TEST_F(GoldenLoop, FixedComboBitExact) {
  expect_golden("fixed_combo", loop_digest::fixed_combo(bank(), knowledge()));
}

TEST_F(GoldenLoop, AnomalyAdvisoryBitExact) {
  expect_golden("anomaly_advisory", loop_digest::anomaly_advisory(bank(), knowledge()));
}

}  // namespace
}  // namespace eecs::core
