// Smoke test of the full EECS closed loop (Fig. 5 prototype).
//
//   eecs_loop_report [dataset] [--checkpoint-every K] [--checkpoint PATH]
//                    [--resume PATH] [--stop-after-rounds N] [--context-gate]
//
// The runtime flags drive the durable-runtime layer: write a snapshot to
// PATH every K completed rounds, stop early to simulate a crash, and resume
// a later invocation from the snapshot (bit-identical to the uninterrupted
// run; see DESIGN.md "Durable runtime"). A resume whose snapshot is
// unreadable or was taken under a results-affecting config change exits 1
// with the reason, naming the field that differs. Unknown flags or a
// non-numeric dataset are rejected with the usage line and a nonzero exit.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include "common/stopwatch.hpp"
#include "core/simulation.hpp"
#include "obs/exposition.hpp"
#include "obs/telemetry.hpp"
#include "runtime/snapshot.hpp"
using namespace eecs;
using namespace eecs::core;

namespace {

/// Compact per-mode telemetry summary from the run's isolated obs session.
void print_metrics_summary(obs::Telemetry& session, const StageTimings& timings) {
  const auto snap = session.metrics().deterministic_snapshot();
  const auto get = [&](const char* name) {
    const auto it = snap.find(name);
    return it == snap.end() ? 0.0 : it->second;
  };
  std::printf("   detect: hog=%.0f acf=%.0f c4=%.0f lsvm=%.0f detections=%.0f downgrades=%.0f\n",
              get("detect.invocations.hog"), get("detect.invocations.acf"),
              get("detect.invocations.c4"), get("detect.invocations.lsvm"),
              get("detect.detections_per_invocation.sum"), get("controller.downgrades"));
  std::printf("   cache hit/miss: scaled=%.0f/%.0f grid=%.0f/%.0f acf=%.0f/%.0f census=%.0f/%.0f\n",
              get("detect.cache.scaled.hit"), get("detect.cache.scaled.miss"),
              get("detect.cache.block_grid.hit"), get("detect.cache.block_grid.miss"),
              get("detect.cache.acf_channels.hit"), get("detect.cache.acf_channels.miss"),
              get("detect.cache.census.hit"), get("detect.cache.census.miss"));
  std::printf("   net: rx delivered=%.0f dropped=%.0f | metadata sent=%.0f lost=%.0f"
              " | assignments sent=%.0f lost=%.0f\n",
              get("net.rx.delivered"), get("net.rx.dropped"),
              get("net.tx.detection_metadata.sent"), get("net.tx.detection_metadata.lost"),
              get("net.tx.algorithm_assignment.sent"), get("net.tx.algorithm_assignment.lost"));
  std::printf("   stage: render=%.1fs detect=%.1fs features=%.1fs controller=%.2fs net=%.2fs\n",
              timings.render_s, timings.detect_s, timings.features_s, timings.controller_s,
              timings.net_s);
  // Quantile columns, estimated from le buckets exactly like PromQL's
  // histogram_quantile (obs/exposition.hpp).
  const obs::Histogram* debits = session.metrics().find_histogram("energy.debit_joules");
  if (debits != nullptr && debits->count() > 0) {
    std::printf("   debits: n=%llu p50=%.3gJ p99=%.3gJ mean=%.3gJ\n",
                static_cast<unsigned long long>(debits->count()),
                obs::histogram_quantile(*debits, 0.5), obs::histogram_quantile(*debits, 0.99),
                debits->sum() / static_cast<double>(debits->count()));
  }
}

int usage() {
  std::printf(
      "usage: eecs_loop_report [dataset] [--checkpoint-every K] [--checkpoint PATH]\n"
      "                        [--resume PATH] [--stop-after-rounds N] [--context-gate]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int ds = 1;
  bool have_ds = false;
  bool context_gate = false;
  RuntimeOptions runtime;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (std::strcmp(argv[i], "--context-gate") == 0) {
      context_gate = true;
    } else if (std::strcmp(argv[i], "--checkpoint-every") == 0) {
      runtime.checkpoint_every_rounds = std::atoi(value());
    } else if (std::strcmp(argv[i], "--checkpoint") == 0) {
      runtime.checkpoint_path = value();
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      runtime.resume_from = value();
    } else if (std::strcmp(argv[i], "--stop-after-rounds") == 0) {
      runtime.stop_after_rounds = std::atol(value());
    } else if (argv[i][0] == '-' || have_ds) {
      return usage();  // Unknown flag or extra positional.
    } else {
      char* end = nullptr;
      ds = static_cast<int>(std::strtol(argv[i], &end, 10));
      if (end == argv[i] || *end != '\0') return usage();  // Non-numeric dataset.
      have_ds = true;
    }
  }
  Stopwatch watch;
  DetectorBank bank = detect::make_trained_detectors(1234);
  OfflineOptions opts;
  opts.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
  const OfflineKnowledge knowledge = run_offline_training(bank, {ds}, 42, opts);
  std::printf("offline %.1fs\n", watch.seconds());
  for (const auto& p : knowledge.profiles()) {
    std::printf("%s:", p.label.c_str());
    for (const auto& a : p.algorithms)
      std::printf("  %s f=%.2f thr=%.2f J=%.2f", detect::to_string(a.id), a.accuracy.f_score,
                  a.threshold, a.total_joules_per_frame());
    std::printf("\n");
  }
  // A snapshot binds to one configuration (resume refuses any change to its
  // config record), so the checkpoint/resume flags run the single AllBest
  // mode instead of the three-mode sweep.
  const bool durable = runtime.checkpoint_every_rounds > 0 || !runtime.resume_from.empty() ||
                       runtime.stop_after_rounds > 0;
  const std::vector<SelectionMode> modes =
      durable ? std::vector<SelectionMode>{SelectionMode::AllBest}
              : std::vector<SelectionMode>{SelectionMode::AllBest, SelectionMode::SubsetOnly,
                                           SelectionMode::SubsetDowngrade};
  for (auto mode : modes) {
    EecsSimulationConfig cfg;
    cfg.dataset = ds;
    cfg.mode = mode;
    cfg.budget_per_frame = 3.0;
    cfg.controller.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
    cfg.end_frame = 2000;  // short smoke run
    cfg.models = opts;
    cfg.runtime = runtime;
    cfg.context_gate.enabled = context_gate;
    watch.reset();
    obs::ScopedTelemetry telemetry;  // Per-mode metrics; see summary below.
    SimulationResult r;
    try {
      r = run_eecs_simulation(bank, knowledge, cfg);
    } catch (const runtime::SnapshotError& e) {
      std::fprintf(stderr, "eecs_loop_report: %s\n", e.what());
      return 1;
    }
    std::printf("mode %d: J=%.1f (cpu %.1f radio %.1f) humans %d/%d rate=%.2f frames=%d rounds=%zu [%.0fs]\n",
                static_cast<int>(mode), r.total_joules(), r.cpu_joules, r.radio_joules,
                r.humans_detected, r.humans_present, r.detection_rate(), r.gt_frames_processed,
                r.rounds.size(), watch.seconds());
    for (const auto& round : r.rounds)
      std::printf("   round@%d%s N*=%.1f P*=%.2f N=%.1f P=%.2f %s\n", round.start_frame,
                  round.midround_recovery ? " (recovery)" : "", round.stats.n_star,
                  round.stats.p_star, round.stats.n_est, round.stats.p_est,
                  round.stats.summary.c_str());
    std::printf("   windows: evaluated=%llu pruned=%llu fraction=%.4f\n",
                static_cast<unsigned long long>(r.windows_evaluated),
                static_cast<unsigned long long>(r.windows_pruned),
                r.windows_evaluated_fraction());
    std::printf("   protocol: sent=%ld lost=%ld retried=%ld abandoned=%ld dead=%d recovered=%d\n",
                r.faults.messages_sent, r.faults.messages_lost, r.faults.assignments_retried,
                r.faults.assignments_abandoned, r.faults.cameras_failed,
                r.faults.cameras_recovered);
    print_metrics_summary(telemetry.session(), r.timings);
  }
  return 0;
}
