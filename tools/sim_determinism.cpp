// Prints full-precision SimulationResult numbers for fixed configs so that
// refactors of the closed loop can be checked for bit-identical behaviour
// (same seeds -> same energy/detection numbers) against a saved reference —
// and proves two runtime invariances by diffing %.17g reports: thread-count
// (threads=1, the exact legacy serial path, vs threads=N) and SIMD dispatch
// (native packs vs scalar emulation), exiting nonzero on any mismatch. Each
// run executes in a fresh obs session and appends its deterministic metric
// snapshot (counters, cache hit/miss, per-camera energy gauges — everything
// but wall-clock), so a metric that diverges between modes fails the same
// string comparison. A second battery repeats the thread/SIMD/resume checks
// with the context gate on, proving the pruned sweep (and its evaluated/
// pruned window accounting) is just as deterministic. The set-up itself —
// detector training and the offline knowledge build — is built at width 1
// and at width N and diffed the same way before any loop runs.
#include <cstdio>
#include <string>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/simulation.hpp"
#include "obs/telemetry.hpp"
#include "loop_digest.hpp"
#include "setup_digest.hpp"

using namespace eecs;
using namespace eecs::core;

namespace {

/// Absolute %.17g "name=value" lines of the current deterministic snapshot
/// (diff against an empty baseline == the values themselves).
std::string metric_lines(obs::Telemetry& session) {
  return obs::MetricsRegistry::diff_report({}, session.metrics().deterministic_snapshot());
}

/// Conservation violations observed across every run; folded into the exit
/// code so a broken audit fails even when it breaks identically in all modes.
int g_conservation_failures = 0;

/// Energy-audit lines: the conservation verdict (the result's joules and
/// battery residuals are the energy book's, and the book's entries sum
/// exactly to its totals) plus the full %.17g per-entry ledger report, so a
/// mis-attributed joule diverges the cross-mode diff even when the totals
/// still balance.
std::string ledger_lines(obs::Telemetry& session, const SimulationResult& r) {
  const obs::EnergyLedger& ledger = session.ledger();
  const auto conservation = ledger.check(r.cpu_joules, r.radio_joules, r.battery_residual);
  if (!conservation.ok) ++g_conservation_failures;
  std::string out = "conservation=";
  out += conservation.ok ? "ok" : "VIOLATED";
  if (!conservation.detail.empty()) {
    out += " ";
    out += conservation.detail;
  }
  out += "\n";
  out += ledger.report();
  return out;
}

/// Full %.17g report (loop_digest::result, whose timings are wall-clock
/// observability and deliberately excluded) plus metrics and ledger, for all
/// fixed configs at the given parallel width and SIMD dispatch mode (1 =
/// native packs, 0 = scalar emulation).
std::string report(const DetectorBank& bank, const OfflineKnowledge& knowledge, int threads,
                   int simd, bool context_gate = false) {
  std::string out;
  for (auto mode :
       {SelectionMode::AllBest, SelectionMode::SubsetOnly, SelectionMode::SubsetDowngrade}) {
    EecsSimulationConfig cfg;
    cfg.dataset = 1;
    cfg.threads = threads;
    cfg.simd = simd;
    cfg.mode = mode;
    cfg.budget_per_frame = 3.0;
    cfg.controller.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
    cfg.models.algorithms = cfg.controller.algorithms;
    cfg.models.frames_per_item = 4;
    cfg.end_frame = 2200;
    cfg.context_gate.enabled = context_gate;
    obs::ScopedTelemetry telemetry;
    const SimulationResult r = run_eecs_simulation(bank, knowledge, cfg);
    out += "mode=" + std::to_string(static_cast<int>(mode)) + " " + loop_digest::result(r);
    out += metric_lines(telemetry.session());
    out += ledger_lines(telemetry.session(), r);
  }

  FixedCombo combo;
  combo.active = {{0, detect::AlgorithmId::Hog}, {1, detect::AlgorithmId::Acf}};
  FixedComboConfig fixed;
  fixed.dataset = 1;
  fixed.threads = threads;
  fixed.simd = simd;
  fixed.models.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
  fixed.models.frames_per_item = 4;
  fixed.end_frame = 1400;
  fixed.context_gate.enabled = context_gate;
  obs::ScopedTelemetry telemetry;
  const SimulationResult r = run_fixed_combo(bank, knowledge, combo, fixed);
  out += "fixed " + loop_digest::result(r);
  out += metric_lines(telemetry.session());
  out += ledger_lines(telemetry.session(), r);
  return out;
}

/// Shared config of the checkpoint/resume invariance check: short adaptive
/// run with lossy links, retry jitter, and a round deadline so the snapshot
/// has to carry non-trivial protocol and watchdog state.
EecsSimulationConfig resume_config(bool context_gate) {
  EecsSimulationConfig cfg;
  cfg.dataset = 1;
  cfg.threads = 1;
  cfg.mode = SelectionMode::AllBest;
  cfg.budget_per_frame = 3.0;
  cfg.controller.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
  cfg.models.algorithms = cfg.controller.algorithms;
  cfg.models.frames_per_item = 4;
  cfg.end_frame = 2200;
  cfg.uplink.loss_probability = 0.1;
  cfg.downlink.loss_probability = 0.2;
  cfg.protocol.retry_jitter_fraction = 0.25;
  cfg.runtime.round_deadline_gt_frames = 3.0;
  cfg.context_gate.enabled = context_gate;
  return cfg;
}

/// Proves checkpoint-at-round-k + resume is bit-identical to an
/// uninterrupted run: run once end-to-end, run again but stop ("crash")
/// right after the round-1 snapshot, then resume from the snapshot and diff
/// the %.17g reports.
int check_resume(const DetectorBank& bank, const OfflineKnowledge& knowledge,
                 const std::string& snapshot_path, bool context_gate) {
  const char* label = context_gate ? "gate-on" : "gate-off";
  const std::string uninterrupted = [&] {
    obs::ScopedTelemetry telemetry;
    const SimulationResult r = run_eecs_simulation(bank, knowledge, resume_config(context_gate));
    return loop_digest::result(r) + ledger_lines(telemetry.session(), r);
  }();

  {
    EecsSimulationConfig cfg = resume_config(context_gate);
    cfg.runtime.checkpoint_every_rounds = 1;
    cfg.runtime.checkpoint_path = snapshot_path;
    cfg.runtime.stop_after_rounds = 1;
    obs::ScopedTelemetry telemetry;
    // The crashed segment must balance too (partial result, partial ledger).
    const SimulationResult r = run_eecs_simulation(bank, knowledge, cfg);
    (void)ledger_lines(telemetry.session(), r);
  }

  const std::string resumed = [&] {
    // The resumed ledger is restored from the snapshot, so its report covers
    // the WHOLE run and must match the uninterrupted run entry for entry.
    EecsSimulationConfig cfg = resume_config(context_gate);
    cfg.runtime.resume_from = snapshot_path;
    obs::ScopedTelemetry telemetry;
    const SimulationResult r = run_eecs_simulation(bank, knowledge, cfg);
    return loop_digest::result(r) + ledger_lines(telemetry.session(), r);
  }();

  if (resumed == uninterrupted) {
    std::printf("PASS: %s checkpoint@round1 + resume is bit-identical to an uninterrupted run\n",
                label);
    return 0;
  }
  std::printf("FAIL: %s resumed run diverges from the uninterrupted run\n", label);
  std::fputs("---- uninterrupted ----\n", stdout);
  std::fputs(uninterrupted.c_str(), stdout);
  std::fputs("---- resumed ----\n", stdout);
  std::fputs(resumed.c_str(), stdout);
  return 1;
}

/// The detector bank and offline knowledge every leg runs on, built at the
/// given parallel width, with their %.17g digest.
struct Setup {
  DetectorBank bank;
  OfflineKnowledge knowledge;
  std::string digest;
};

Setup build_setup(int threads) {
  const common::ScopedThreads width(threads);
  DetectorBank bank = detect::make_trained_detectors(1234);
  OfflineKnowledge knowledge = setup_digest::reference_knowledge(bank, 4);
  std::string digest = setup_digest::training_set(1234) + setup_digest::detections(bank) +
                       setup_digest::knowledge(knowledge);
  return {std::move(bank), std::move(knowledge), std::move(digest)};
}

}  // namespace

int main(int argc, char** argv) {
  // No flags: every invocation runs the full invariance battery. Anything on
  // the command line is a mistake; reject it with the usage convention the
  // other tools follow (usage line + exit 2).
  if (argc > 1) {
    std::printf("usage: %s (takes no arguments)\n", argv[0]);
    return 2;
  }
  const int wide = common::max_threads() > 1 ? common::max_threads() : 4;
  int rc = 0;

  // Set-up fans out too: the set-up built at width 1 (the exact serial path)
  // and at width N must agree in every training patch, every detection on a
  // probe frame, every profile field and every comparator similarity. The
  // loop legs below run on the width-1 set-up.
  const Setup setup = build_setup(1);
  std::fputs(setup.digest.c_str(), stdout);
  const std::string setup_wide = build_setup(wide).digest;
  if (setup_wide == setup.digest) {
    std::printf("PASS: set-up at threads=1 and threads=%d is bit-identical\n", wide);
  } else {
    std::printf("FAIL: set-up at threads=%d diverges from threads=1\n", wide);
    std::fputs("---- threads=N set-up ----\n", stdout);
    std::fputs(setup_wide.c_str(), stdout);
    rc = 1;
  }
  const DetectorBank& bank = setup.bank;
  const OfflineKnowledge& knowledge = setup.knowledge;

  const std::string serial = report(bank, knowledge, 1, 1);
  std::fputs(serial.c_str(), stdout);

  const std::string parallel = report(bank, knowledge, wide, 1);
  if (parallel == serial) {
    std::printf("PASS: threads=1 and threads=%d reports are bit-identical\n", wide);
  } else {
    std::printf("FAIL: threads=%d diverges from threads=1\n", wide);
    std::fputs("---- threads=N report ----\n", stdout);
    std::fputs(parallel.c_str(), stdout);
    rc = 1;
  }

  // Every configured lane width — native tiers (128/256/512, falling back to
  // emulation where this build/CPU lacks them) and their forced-emulation
  // twins (-256/-512) — must reproduce the scalar baseline (0) and the
  // auto-native serial report bit for bit.
  for (int mode : {0, 128, 256, 512, -128, -256, -512}) {
    const std::string run = report(bank, knowledge, 1, mode);
    const char* name;
    {
      const simd::ScopedSimd scoped(mode);
      name = simd::dispatch_name();
    }
    if (run == serial) {
      std::printf("PASS: simd=%d (%s) report is bit-identical to auto-native (%s)\n", mode, name,
                  simd::isa_name());
    } else {
      std::printf("FAIL: simd=%d (%s) diverges from auto-native (backend %s)\n", mode, name,
                  simd::isa_name());
      std::printf("---- simd=%d report ----\n", mode);
      std::fputs(run.c_str(), stdout);
      rc = 1;
    }
  }

  // The pruned sweep must be exactly as deterministic as the full one: the
  // gate-on report (which embeds the windows evaluated/pruned accounting and
  // every metric) has to reproduce across thread widths and under forced
  // scalar SIMD emulation, and it must differ from gate-off — a gate that
  // prunes nothing would pass every invariance check vacuously.
  const std::string gated = report(bank, knowledge, 1, 1, /*context_gate=*/true);
  if (gated == serial) {
    std::printf("FAIL: gate-on report is identical to gate-off (gate never engaged)\n");
    rc = 1;
  } else {
    std::printf("PASS: gate-on report diverges from gate-off (context gate engaged)\n");
  }
  const std::string gated_parallel = report(bank, knowledge, wide, 1, /*context_gate=*/true);
  if (gated_parallel == gated) {
    std::printf("PASS: gate-on threads=1 and threads=%d reports are bit-identical\n", wide);
  } else {
    std::printf("FAIL: gate-on threads=%d diverges from threads=1\n", wide);
    rc = 1;
  }
  const std::string gated_scalar = report(bank, knowledge, 1, 0, /*context_gate=*/true);
  if (gated_scalar == gated) {
    std::printf("PASS: gate-on simd=0 (scalar) report is bit-identical to auto-native\n");
  } else {
    std::printf("FAIL: gate-on simd=0 diverges from auto-native\n");
    rc = 1;
  }

  rc |= check_resume(bank, knowledge, "sim_determinism_resume.snap", /*context_gate=*/false);
  rc |= check_resume(bank, knowledge, "sim_determinism_resume_gated.snap", /*context_gate=*/true);
  if (g_conservation_failures > 0) {
    std::printf("FAIL: %d run(s) violated ledger energy conservation\n", g_conservation_failures);
    rc = 1;
  } else {
    std::printf("PASS: ledger energy conservation held in every run\n");
  }
  return rc;
}
