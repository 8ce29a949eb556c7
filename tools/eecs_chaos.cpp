// Chaos soak harness for the durable EECS runtime (DESIGN.md "Durable
// runtime"): N seeded scenes, each a short closed-loop run under a generated
// fault scenario (camera crash/reboot cycles, link blackouts, steady loss,
// round-deadline pressure) with the degradation ladder armed. Every scene
// runs three legs:
//
//   A. uninterrupted reference run;
//   B. crash leg — checkpoint every round, then stop ("kill") at the
//      scenario's kill round;
//   C. resume leg — restart from B's snapshot and run to the end.
//
// Exit invariants, checked per scene (any violation exits nonzero):
//   - resume bit-exactness: leg C's %.17g report (tests/loop_digest.hpp)
//     equals leg A's;
//   - batteries never go negative;
//   - no assignment is lost forever: pushed == acked + abandoned + dropped +
//     replaced + pending_at_exit;
//   - ladder sanity: recovery step-ups never exceed step-downs;
//   - snapshots restorable: B's snapshot file decodes and re-encodes to the
//     exact bytes on disk;
//   - energy audit: the ledger balances bit-exactly against every leg's
//     result (obs/ledger.hpp conservation check);
//   - black box: the crash leg leaves a flight dump that parse_flight_jsonl
//     accepts with at least one recorded round (skipped under EECS_OBS_OFF,
//     where the recorder compiles out).
//
//   eecs_chaos [--scenes N] [--rounds M] [--seed S] [--dataset D]
//
// Everything derives from (seed, scene), so a failure reproduces from the
// printed pair alone.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <fstream>
#include <sstream>

#include "common/stopwatch.hpp"
#include "core/simulation.hpp"
#include "loop_digest.hpp"
#include "obs/flight.hpp"
#include "obs/telemetry.hpp"
#include "runtime/chaos.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/snapshot.hpp"
#include "video/environment.hpp"

using namespace eecs;
using namespace eecs::core;

namespace {

int check_invariants(int scene, const char* leg, const SimulationResult& r) {
  int failures = 0;
  for (std::size_t c = 0; c < r.battery_residual.size(); ++c) {
    if (r.battery_residual[c] < 0.0) {
      std::printf("FAIL scene=%d leg=%s: battery[%zu] negative (%.17g)\n", scene, leg, c,
                  r.battery_residual[c]);
      ++failures;
    }
  }
  const FaultCounters& f = r.faults;
  const long closed = f.assignments_acked + f.assignments_abandoned + f.assignments_dropped +
                      f.assignments_replaced + f.assignments_pending_at_exit;
  if (f.assignments_pushed != closed) {
    std::printf("FAIL scene=%d leg=%s: assignment accounting broken (pushed=%ld closed=%ld)\n",
                scene, leg, f.assignments_pushed, closed);
    ++failures;
  }
  if (f.degradation_stepups > f.degradation_stepdowns) {
    std::printf("FAIL scene=%d leg=%s: ladder stepped up more than down (%ld > %ld)\n", scene, leg,
                f.degradation_stepups, f.degradation_stepdowns);
    ++failures;
  }
  return failures;
}

/// Ledger conservation: the leg's joules and battery residuals must be the
/// energy book's, bit for bit, and the book's entries must sum exactly to
/// its totals (the book is on in every build, EECS_OBS_OFF included).
int check_conservation(int scene, const char* leg, obs::Telemetry& session,
                       const SimulationResult& r) {
  const auto conservation =
      session.ledger().check(r.cpu_joules, r.radio_joules, r.battery_residual);
  if (!conservation.ok) {
    std::printf("FAIL scene=%d leg=%s: ledger conservation violated: %s\n", scene, leg,
                conservation.detail.c_str());
    return 1;
  }
  return 0;
}

/// The crash leg's black box must exist, parse, and hold recorded rounds.
int check_flight_dump(int scene, const std::string& path) {
  if constexpr (!obs::kEnabled) return 0;  // Recorder compiled out.
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::printf("FAIL scene=%d: no flight dump at %s\n", scene, path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    const obs::FlightDump dump = obs::parse_flight_jsonl(text.str());
    if (dump.rounds.empty()) {
      std::printf("FAIL scene=%d: flight dump %s has no rounds\n", scene, path.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::printf("FAIL scene=%d: flight dump %s unparsable: %s\n", scene, path.c_str(), e.what());
    return 1;
  }
  return 0;
}

/// The snapshot on disk must decode and re-encode to the exact same bytes —
/// a lossless-roundtrip proof that resume sees everything the writer saved.
int check_snapshot_roundtrip(int scene, const std::string& path) {
  try {
    const std::vector<std::uint8_t> on_disk = runtime::read_snapshot_file(path);
    const runtime::SimulationCheckpoint ck = runtime::SimulationCheckpoint::decode(on_disk);
    if (ck.encode() != on_disk) {
      std::printf("FAIL scene=%d: snapshot decode->encode is not byte-identical (%s)\n", scene,
                  path.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::printf("FAIL scene=%d: snapshot unreadable (%s): %s\n", scene, path.c_str(), e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int scenes = 3;
  long rounds = 2;
  std::uint64_t seed = 20260809;
  int ds = 1;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : "0"; };
    if (std::strcmp(argv[i], "--scenes") == 0) {
      scenes = std::atoi(value());
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      rounds = std::atol(value());
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<std::uint64_t>(std::strtoull(value(), nullptr, 10));
    } else if (std::strcmp(argv[i], "--dataset") == 0) {
      ds = std::atoi(value());
    } else {
      std::printf("usage: eecs_chaos [--scenes N] [--rounds M] [--seed S] [--dataset D]\n");
      return 2;
    }
  }
  if (scenes < 1) scenes = 1;
  if (rounds < 1) rounds = 1;

  Stopwatch watch;
  DetectorBank bank = detect::make_trained_detectors(1234);
  OfflineOptions opts;
  opts.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
  opts.frames_per_item = 4;
  const OfflineKnowledge knowledge = run_offline_training(bank, {ds}, 42, opts);
  std::printf("offline %.1fs; soaking %d scene(s) x %ld round(s), seed=%llu dataset=%d\n",
              watch.seconds(), scenes, rounds, static_cast<unsigned long long>(seed), ds);

  int failures = 0;
  for (int scene = 0; scene < scenes; ++scene) {
    watch.reset();
    EecsSimulationConfig cfg;
    cfg.dataset = ds;
    cfg.seed = seed + static_cast<std::uint64_t>(scene);
    cfg.mode = SelectionMode::AllBest;
    cfg.budget_per_frame = 3.0;
    cfg.controller.algorithms = opts.algorithms;
    cfg.models = opts;
    // One recalibration round = (assessment + operation) windows of
    // ground-truth frames at the dataset stride.
    const int stride = video::dataset_by_id(ds).ground_truth_stride;
    const int round_frames = (cfg.assessment_gt_frames + cfg.operation_gt_frames) * stride;
    cfg.end_frame = cfg.start_frame + static_cast<int>(rounds) * round_frames;
    // Small batteries so the ladder's battery rungs engage inside the soak.
    cfg.battery_joules = 60.0 * static_cast<double>(rounds);
    cfg.protocol.retry_jitter_fraction = 0.25;
    cfg.runtime.degradation.enabled = true;
    // Soak the anomaly-advisory ladder path too: burn-rate findings from the
    // detector add rung pressure, and resume bit-exactness proves the
    // advisory replays identically across crash/resume.
    cfg.runtime.degradation.anomaly_advisory = true;

    const runtime::ChaosScenario scenario = runtime::make_chaos_scenario(
        seed, scene, video::kNumCamerasPerDataset, cfg.start_frame + 50.0, cfg.end_frame - 50.0,
        rounds);
    cfg.faults = scenario.faults;
    cfg.runtime.round_deadline_gt_frames = scenario.round_deadline_gt_frames;
    // Kill strictly before the scheduled end so the resume leg has work left.
    const long kill_after = std::min(scenario.kill_after_rounds, rounds - 1);

    const std::string reference = [&] {
      obs::ScopedTelemetry telemetry;
      const SimulationResult r = run_eecs_simulation(bank, knowledge, cfg);
      failures += check_invariants(scene, "reference", r);
      failures += check_conservation(scene, "reference", telemetry.session(), r);
      return loop_digest::result(r);
    }();

    if (kill_after >= 1) {
      char path[128];
      std::snprintf(path, sizeof(path), "eecs_chaos_scene%d.snap", scene);
      char flight_path[128];
      std::snprintf(flight_path, sizeof(flight_path), "eecs_chaos_scene%d.flight.jsonl", scene);
      std::remove(flight_path);

      EecsSimulationConfig crash = cfg;
      crash.runtime.checkpoint_every_rounds = 1;
      crash.runtime.checkpoint_path = path;
      crash.runtime.stop_after_rounds = kill_after;
      crash.runtime.flight_recorder_path = flight_path;
      {
        obs::ScopedTelemetry telemetry;
        const SimulationResult r = run_eecs_simulation(bank, knowledge, crash);
        failures += check_invariants(scene, "crash", r);
        failures += check_conservation(scene, "crash", telemetry.session(), r);
      }
      failures += check_snapshot_roundtrip(scene, path);
      failures += check_flight_dump(scene, flight_path);

      EecsSimulationConfig resume = cfg;
      resume.runtime.resume_from = path;
      const std::string resumed = [&] {
        obs::ScopedTelemetry telemetry;
        const SimulationResult r = run_eecs_simulation(bank, knowledge, resume);
        failures += check_invariants(scene, "resume", r);
        failures += check_conservation(scene, "resume", telemetry.session(), r);
        return loop_digest::result(r);
      }();
      if (resumed != reference) {
        std::printf("FAIL scene=%d: resume diverges from the uninterrupted run\n", scene);
        std::fputs("---- reference ----\n", stdout);
        std::fputs(reference.c_str(), stdout);
        std::fputs("---- resumed ----\n", stdout);
        std::fputs(resumed.c_str(), stdout);
        ++failures;
      }
    } else {
      std::printf("scene=%d: single round, crash/resume legs skipped\n", scene);
    }
    std::printf("scene=%d %s (deadline=%.1fgt kill@%ld, %.0fs)\n", scene,
                failures == 0 ? "ok" : "FAILING", scenario.round_deadline_gt_frames, kill_after,
                watch.seconds());
  }

  if (failures > 0) {
    std::printf("CHAOS FAIL: %d invariant violation(s)\n", failures);
    return 1;
  }
  std::printf("CHAOS PASS: %d scene(s) clean\n", scenes);
  return 0;
}
