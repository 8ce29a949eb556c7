// Fig. 5: the full EECS adaptive loop on dataset #1 under two energy-budget
// regimes. (a) Budget above HOG's per-frame cost: EECS first drops to a
// camera subset (paper: ~75% energy at ~91% of baseline detections), then
// additionally downgrades some cameras to ACF (paper: ~59% energy at ~86%).
// (b) Budget between ACF's and HOG's cost: only ACF is affordable, so all
// savings come from the camera subset (paper: ~68% energy at ~88%).
#include "bench_common.hpp"
#include "common/parallel.hpp"

using namespace eecs;
using namespace eecs::bench;

namespace {

/// One mode's outcome, kept for the BENCH_*.json observability file.
struct RegimeEntry {
  std::string regime;
  std::string mode;
  double budget = 0.0;
  double total_joules = 0.0;
  int humans_detected = 0;
  double windows_evaluated_fraction = 1.0;
  core::StageTimings timings;
};

void run_regime(const core::DetectorBank& bank, const core::OfflineKnowledge& knowledge,
                double budget, const char* title, const char* paper_note,
                std::vector<RegimeEntry>& entries, bool context_gate = false) {
  std::printf("%s (per-frame budget %.2f J)\n", title, budget);
  core::SimulationResult baseline;
  std::vector<std::vector<std::string>> rows;
  for (const auto& [mode, name] :
       {std::pair{core::SelectionMode::AllBest, "All cameras, best algorithms"},
        std::pair{core::SelectionMode::SubsetOnly, "EECS camera subset (best algs)"},
        std::pair{core::SelectionMode::SubsetDowngrade, "EECS subset + downgrade"}}) {
    core::EecsSimulationConfig config;
    config.dataset = 1;
    config.mode = mode;
    config.budget_per_frame = budget;
    config.controller.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
    core::OfflineOptions models;
    models.algorithms = config.controller.algorithms;
    config.models = models;
    config.context_gate.enabled = context_gate;
    const auto result = core::run_eecs_simulation(bank, knowledge, config);
    if (mode == core::SelectionMode::AllBest) baseline = result;
    entries.push_back({title, name, budget, result.total_joules(), result.humans_detected,
                       result.windows_evaluated_fraction(), result.timings});
    rows.push_back(
        {name, to_fixed(result.total_joules(), 1),
         baseline.total_joules() > 0
             ? to_fixed(100.0 * result.total_joules() / baseline.total_joules(), 0) + "%"
             : "-",
         format("%d", result.humans_detected),
         baseline.humans_detected > 0
             ? to_fixed(100.0 * result.humans_detected / baseline.humans_detected, 0) + "%"
             : "-",
         to_fixed(result.windows_evaluated_fraction(), 4)});
    // Per-round selections for the adaptive modes.
    if (mode != core::SelectionMode::AllBest) {
      for (const auto& round : result.rounds) {
        std::printf("  round@%-5d N*=%.1f P*=%.2f -> N=%.1f P=%.2f  %s\n", round.start_frame,
                    round.stats.n_star, round.stats.p_star, round.stats.n_est, round.stats.p_est,
                    round.stats.summary.c_str());
      }
    }
  }
  std::printf("%s\n", render_table({"Configuration", "Energy J", "vs baseline", "Humans",
                                    "vs baseline", "Win frac"},
                                   rows)
                          .c_str());
  std::printf("%s\n\n", paper_note);
}

/// Speedup probe: one shortened adaptive run at threads=1 vs the hardware
/// width, reporting per-stage wall-clock and the end-to-end speedup.
std::string threading_probe(const core::DetectorBank& bank,
                            const core::OfflineKnowledge& knowledge) {
  // A 1-vs-N wall-clock comparison on a single-core host measures only pool
  // overhead and produces a misleading ~1x "speedup"; skip it outright.
  if (common::hardware_threads() <= 1) {
    std::printf("threading probe skipped: single core\n\n");
    return std::string("{\"skipped\": \"single core\"}");
  }
  const int wide = std::max(4, common::hardware_threads());
  core::EecsSimulationConfig config;
  config.dataset = 1;
  config.mode = core::SelectionMode::SubsetDowngrade;
  config.budget_per_frame = 3.0;
  config.controller.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
  core::OfflineOptions models;
  models.algorithms = config.controller.algorithms;
  config.models = models;
  config.end_frame = 1700;

  config.threads = 1;
  const auto serial = core::run_eecs_simulation(bank, knowledge, config);
  config.threads = wide;
  const auto parallel = core::run_eecs_simulation(bank, knowledge, config);
  const double speedup = parallel.timings.total() > 0.0
                             ? serial.timings.total() / parallel.timings.total()
                             : 0.0;
  std::printf("threading probe (frames %d..%d):\n", config.start_frame, config.end_frame);
  std::printf("  threads=1: %s\n", json_timings(serial.timings).c_str());
  std::printf("  threads=%d: %s\n", wide, json_timings(parallel.timings).c_str());
  std::printf("  speedup: %.2fx\n\n", speedup);
  return format(
      "{\"threads_serial\": 1, \"threads_parallel\": %d, \"serial\": %s, "
      "\"parallel\": %s, \"speedup\": %.3f}",
      wide, json_timings(serial.timings).c_str(), json_timings(parallel.timings).c_str(),
      speedup);
}

/// Context-gate probe: the Fig. 5a baseline (AllBest, budget 3.0) gate-off vs
/// gate-on. The gate prunes (scale, row band) tiles the ground-plane
/// calibration rules out, so gate-on must evaluate strictly fewer windows and
/// spend strictly fewer joules; the probe reports the recall it costs (none,
/// on this scene) and the detect-stage wall-clock it buys.
std::string context_gate_probe(const core::DetectorBank& bank,
                               const core::OfflineKnowledge& knowledge) {
  const auto run = [&](bool gated) {
    core::EecsSimulationConfig config;
    config.dataset = 1;
    config.mode = core::SelectionMode::AllBest;
    config.budget_per_frame = 3.0;
    config.controller.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
    core::OfflineOptions models;
    models.algorithms = config.controller.algorithms;
    config.models = models;
    config.context_gate.enabled = gated;
    return core::run_eecs_simulation(bank, knowledge, config);
  };
  const auto off = run(false);
  const auto on = run(true);
  const bool pruned = on.windows_evaluated < off.windows_evaluated &&
                      on.total_joules() < off.total_joules();
  std::printf("context-gate probe (Fig. 5a baseline config):\n");
  std::printf("  gate-off: J=%.1f humans=%d windows=%llu (fraction %.4f)\n", off.total_joules(),
              off.humans_detected, static_cast<unsigned long long>(off.windows_evaluated),
              off.windows_evaluated_fraction());
  std::printf("  gate-on:  J=%.1f humans=%d windows=%llu (fraction %.4f)\n", on.total_joules(),
              on.humans_detected, static_cast<unsigned long long>(on.windows_evaluated),
              on.windows_evaluated_fraction());
  std::printf("  pruning engaged: %s, energy %.0f%%, humans %+d, detect_s %.2f -> %.2f\n\n",
              pruned ? "yes" : "NO",
              off.total_joules() > 0 ? 100.0 * on.total_joules() / off.total_joules() : 0.0,
              on.humans_detected - off.humans_detected, off.timings.detect_s,
              on.timings.detect_s);
  return format(
      "{\"pruning_engaged\": %s, \"gate_off_joules\": %.6f, \"gate_on_joules\": %.6f, "
      "\"gate_off_humans\": %d, \"gate_on_humans\": %d, "
      "\"gate_on_windows_evaluated_fraction\": %.6f, \"gate_off_detect_s\": %.3f, "
      "\"gate_on_detect_s\": %.3f}",
      pruned ? "true" : "false", off.total_joules(), on.total_joules(), off.humans_detected,
      on.humans_detected, on.windows_evaluated_fraction(), off.timings.detect_s,
      on.timings.detect_s);
}

/// Durable-runtime probe: the Fig. 5a baseline run three ways — plain,
/// with the full durable layer armed but fault-free (the result must stay
/// bit-identical and the wall-clock overhead < 2%), and under a chaos fault
/// plan (crash/reboot + blackout + ambient loss) with the degradation ladder
/// and deadline watchdog absorbing the damage.
std::string durability_probe(const core::DetectorBank& bank,
                             const core::OfflineKnowledge& knowledge,
                             std::vector<RegimeEntry>& entries) {
  const auto base_config = [] {
    core::EecsSimulationConfig config;
    config.dataset = 1;
    config.mode = core::SelectionMode::AllBest;
    config.budget_per_frame = 3.0;
    config.controller.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
    core::OfflineOptions models;
    models.algorithms = config.controller.algorithms;
    config.models = models;
    return config;
  };

  // Chaos-off, durable layer dormant: the exact legacy configuration.
  const auto plain = core::run_eecs_simulation(bank, knowledge, base_config());

  // Chaos-off, durable layer armed: checkpoint every round, deadline
  // watchdog on, degradation ladder enabled. Fault-free, none of it may
  // change the result — only the snapshot writes cost anything.
  auto durable_config = base_config();
  durable_config.runtime.checkpoint_every_rounds = 1;
  durable_config.runtime.checkpoint_path = "fig5_durability_probe.snap";
  durable_config.runtime.round_deadline_gt_frames = 3.0;
  durable_config.runtime.degradation.enabled = true;
  const auto durable = core::run_eecs_simulation(bank, knowledge, durable_config);

  // Chaos-on: camera 2 crashes and reboots mid-run, a network blackout hits
  // an operation window, and an ambient 15% loss floor covers the test
  // segment. Retries + liveness + the ladder keep the loop running.
  auto chaos_config = durable_config;
  chaos_config.faults.add_crash(2, 1600.0, 1900.0);
  chaos_config.faults.add_blackout(2200.0, 2260.0);
  chaos_config.faults.loss_windows.push_back({1100.0, 2950.0, 0.15, -1});
  chaos_config.protocol.retry_jitter_fraction = 0.25;
  const auto chaos = core::run_eecs_simulation(bank, knowledge, chaos_config);
  std::remove(durable_config.runtime.checkpoint_path.c_str());

  const bool identical = plain.total_joules() == durable.total_joules() &&
                         plain.humans_detected == durable.humans_detected;
  const double overhead = plain.timings.total() > 0.0
                              ? durable.timings.total() / plain.timings.total() - 1.0
                              : 0.0;
  const char* regime = "Durable runtime (AllBest, budget 3.0)";
  entries.push_back({regime, "chaos-off, runtime dormant", 3.0, plain.total_joules(),
                     plain.humans_detected, plain.windows_evaluated_fraction(), plain.timings});
  entries.push_back({regime, "chaos-off, checkpoint+watchdog+ladder", 3.0,
                     durable.total_joules(), durable.humans_detected,
                     durable.windows_evaluated_fraction(), durable.timings});
  entries.push_back({regime, "chaos-on, crash+blackout+15% loss", 3.0, chaos.total_joules(),
                     chaos.humans_detected, chaos.windows_evaluated_fraction(), chaos.timings});

  std::printf("durable-runtime probe (Fig. 5a baseline config):\n");
  std::printf("%s\n",
              render_table(
                  {"Configuration", "Energy J", "Humans", "Lost msgs", "Abandoned"},
                  {{"chaos-off, runtime dormant", to_fixed(plain.total_joules(), 1),
                    format("%d", plain.humans_detected), format("%ld", plain.faults.messages_lost),
                    format("%ld", plain.faults.assignments_abandoned)},
                   {"chaos-off, durable layer armed", to_fixed(durable.total_joules(), 1),
                    format("%d", durable.humans_detected),
                    format("%ld", durable.faults.messages_lost),
                    format("%ld", durable.faults.assignments_abandoned)},
                   {"chaos-on, crash+blackout+loss", to_fixed(chaos.total_joules(), 1),
                    format("%d", chaos.humans_detected), format("%ld", chaos.faults.messages_lost),
                    format("%ld", chaos.faults.assignments_abandoned)}})
                  .c_str());
  std::printf("  fault-free result bit-identical: %s\n", identical ? "yes" : "NO");
  std::printf("  fault-free wall-clock overhead: %.2f%%\n\n", 100.0 * overhead);

  return format(
      "{\"fault_free_bit_identical\": %s, \"fault_free_overhead_fraction\": %.4f, "
      "\"chaos_total_joules\": %.6f, \"chaos_humans_detected\": %d, "
      "\"chaos_messages_lost\": %ld, \"chaos_assignments_abandoned\": %ld, "
      "\"chaos_cameras_failed\": %d, \"chaos_cameras_recovered\": %d}",
      identical ? "true" : "false", overhead, chaos.total_joules(), chaos.humans_detected,
      chaos.faults.messages_lost, chaos.faults.assignments_abandoned, chaos.faults.cameras_failed,
      chaos.faults.cameras_recovered);
}

}  // namespace

int main() {
  warn_if_debug_build();
  Stopwatch watch;
  const core::DetectorBank bank = detect::make_trained_detectors(kSeed);
  core::OfflineOptions options;
  options.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
  const core::OfflineKnowledge knowledge = core::run_offline_training(bank, {1}, 42, options);
  std::printf("offline training done (%.0fs)\n\n", watch.seconds());

  std::vector<RegimeEntry> entries;
  // Regime (a): budget admits HOG (our calibrated HOG ~1.1 J/frame + comm).
  run_regime(bank, knowledge, 3.0, "Fig. 5a: high budget (HOG affordable)",
             "paper Fig. 5a: baseline 333 J / 373 humans; subset ~75% energy at ~91% humans;\n"
             "subset+downgrade ~59% energy at ~86% humans",
             entries);
  // Regime (b): budget below HOG's cost -> only ACF affordable.
  run_regime(bank, knowledge, 0.80, "Fig. 5b: low budget (only ACF affordable)",
             "paper Fig. 5b: baseline 22 J / 307 humans; EECS ~68% energy at ~88% humans\n"
             "(no downgrade possible: ACF is already the cheapest algorithm)",
             entries);
  // Regime (c): regime (a) with the context gate on — the ground-plane
  // calibration prunes infeasible (scale, row band) tiles, shifting the whole
  // detections-vs-joules frontier left at a recorded windows-evaluated cost.
  run_regime(bank, knowledge, 3.0, "Fig. 5c: high budget + context gate",
             "context gate: same selection policy as Fig. 5a; savings beyond it come from\n"
             "pruned sliding windows (see windows_evaluated_fraction)",
             entries, /*context_gate=*/true);

  const std::string probe = threading_probe(bank, knowledge);
  const std::string context_gate = context_gate_probe(bank, knowledge);
  const std::string durability = durability_probe(bank, knowledge, entries);

  std::string json = "{\n  \"bench\": \"fig5_eecs_dataset1\",\n  \"runs\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    json += format(
        "%s\n    {\"regime\": \"%s\", \"mode\": \"%s\", \"budget_j\": %.2f, "
        "\"total_joules\": %.6f, \"humans_detected\": %d, "
        "\"windows_evaluated_fraction\": %.6f, \"timings\": %s}",
        i == 0 ? "" : ",", e.regime.c_str(), e.mode.c_str(), e.budget, e.total_joules,
        e.humans_detected, e.windows_evaluated_fraction, json_timings(e.timings).c_str());
  }
  json += "\n  ],\n  \"context\": {" + json_build_context() + "},\n  \"threading_probe\": " + probe +
          ",\n  \"context_gate_probe\": " + context_gate +
          ",\n  \"durability_probe\": " + durability + "\n}";
  write_bench_json("BENCH_fig5_eecs_dataset1.json", json);

  std::printf("total %.1fs\n", watch.seconds());
  return 0;
}
