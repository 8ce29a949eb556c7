// Benchmark harness for the closed EECS loop (core::run_eecs_simulation).
// perfbench/run.py builds and drives it; each process runs one workload:
//
//   --mode timed      build the detector bank and offline knowledge (several
//                     times), run the workload's loop over the run's scenes,
//                     check every output, and print the end-to-end figures.
//   --mode trace      per-layer figures: traced loop passes at threads=N
//                     and at threads=1, and a replay of the
//                     workload's frames through each layer's public
//                     functions under the benchmark's own spans. Writes a
//                     Chrome trace (with self times) and the
//                     model-vs-measured kernel table into --out-dir.
//   --mode untraced   in a build with EECS_OBS_OFF: the untraced passes the
//                     traced ones are compared with (tracing overhead).
//
// The last line of stdout is one JSON object; everything else goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "detect/acf_detector.hpp"
#include "detect/frame_cache.hpp"
#include "detect/hog_detector.hpp"
#include "detect/sweep_scheduler.hpp"
#include "features/color_feature.hpp"
#include "net/messages.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "runtime/checkpoint.hpp"

using namespace eecs;

namespace {

constexpr std::uint64_t kDefaultSceneSeed = 777;
constexpr std::uint64_t kOfflineSeed = 42;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  int dataset;
  core::SelectionMode mode;
  double budget;
  bool context_gate;
  /// Checkpoint every round, watchdog, ladder, chaos faults, and the run
  /// split into stop-after-half-the-rounds + resume.
  bool durable;
  int frames_per_item;  ///< Offline training sample per item.
  int gt_frame_step;
  int assessment_gt_frames;
  int operation_gt_frames;
  int end_frame;
  /// Output at the default scene seed, "%.6f" joules and humans detected.
  const char* ref_joules;
  int ref_humans;
  /// Scenes and set-ups of one timed run: enough loop passes to be steady
  /// while the run stays well inside three minutes on a 4-core x86-64 host.
  int scenes;
  int setups;
};

constexpr Workload kWorkloads[] = {
    {"ds1_adaptive", 1, core::SelectionMode::SubsetDowngrade, 3.0, false, false, 10, 1, 4, 20,
     2950, "184.649189", 300, 8, 2},
    {"ds1_gated_durable", 1, core::SelectionMode::AllBest, 3.0, true, true, 10, 1, 4, 20, 2950,
     "154.259621", 276, 6, 2},
    {"ds2_highres", 2, core::SelectionMode::AllBest, 8.0, false, false, 6, 4, 3, 12, 2900,
     "609.465894", 113, 2, 2},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<detect::AlgorithmId>& workload_algorithms() {
  static const std::vector<detect::AlgorithmId> algs = {detect::AlgorithmId::Hog,
                                                        detect::AlgorithmId::Acf};
  return algs;
}

core::OfflineOptions offline_options(const Workload& w) {
  core::OfflineOptions options;
  options.algorithms = workload_algorithms();
  options.frames_per_item = w.frames_per_item;
  return options;
}

/// The workload's loop configuration. `scratch` holds its snapshots.
core::EecsSimulationConfig make_config(const Workload& w, std::uint64_t seed, int threads,
                                       int end_frame, const std::string& scratch) {
  core::EecsSimulationConfig config;
  config.dataset = w.dataset;
  config.seed = seed;
  config.threads = threads;
  config.mode = w.mode;
  config.budget_per_frame = w.budget;
  config.controller.algorithms = workload_algorithms();
  config.models = offline_options(w);
  config.context_gate.enabled = w.context_gate;
  config.gt_frame_step = w.gt_frame_step;
  config.assessment_gt_frames = w.assessment_gt_frames;
  config.operation_gt_frames = w.operation_gt_frames;
  config.end_frame = end_frame > 0 ? end_frame : w.end_frame;
  if (w.durable) {
    // The fig5 durability probe's chaos plan.
    config.runtime.checkpoint_every_rounds = 1;
    config.runtime.checkpoint_path = scratch + "/" + w.name + ".snap";
    config.runtime.round_deadline_gt_frames = 3.0;
    config.runtime.degradation.enabled = true;
    config.faults.add_crash(2, 1600.0, 1900.0);
    config.faults.add_blackout(2200.0, 2260.0);
    config.faults.loss_windows.push_back({1100.0, 2950.0, 0.15, -1});
    config.protocol.retry_jitter_fraction = 0.25;
  }
  return config;
}

int gt_stride(const core::EecsSimulationConfig& config) {
  return video::dataset_by_id(config.dataset).ground_truth_stride * config.gt_frame_step;
}

/// Recalibration rounds the loop will run (mirrors its frame arithmetic).
int count_rounds(const core::EecsSimulationConfig& config) {
  const int stride = gt_stride(config);
  int frame = config.start_frame + config.upload_feature_frames * stride;
  int rounds = 0;
  while (frame + stride * config.assessment_gt_frames < config.end_frame) {
    ++rounds;
    frame += stride * (config.assessment_gt_frames + config.operation_gt_frames);
  }
  return rounds;
}

// ------------------------------------------------------------------ set-up

/// The detector bank and offline knowledge every loop pass runs on.
struct Setup {
  core::DetectorBank bank;
  std::unique_ptr<core::OfflineKnowledge> knowledge;
};

core::DetectorBank train_detectors() { return detect::make_trained_detectors(bench::kSeed); }

std::unique_ptr<core::OfflineKnowledge> build_knowledge(const Setup& setup, const Workload& w) {
  return std::make_unique<core::OfflineKnowledge>(
      core::run_offline_training(setup.bank, {w.dataset}, kOfflineSeed, offline_options(w)));
}

const detect::Detector& detector_of(const Setup& setup, detect::AlgorithmId id) {
  for (const auto& d : setup.bank) {
    if (d->id() == id) return *d;
  }
  throw ContractViolation("perfbench: algorithm not in the detector bank");
}

// ------------------------------------------------------------- loop legs

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) { return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec); };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

std::uint64_t counter_value(const char* name) {
  return obs::current().metrics().counter(name).value();
}

std::map<detect::AlgorithmId, std::uint64_t> invocation_counts() {
  return {{detect::AlgorithmId::Hog, counter_value("detect.invocations.hog")},
          {detect::AlgorithmId::Acf, counter_value("detect.invocations.acf")}};
}

struct LoopRun {
  core::SimulationResult result;
  core::StageTimings stages;  ///< Summed over the run's loop calls.
  double wall_s = 0.0;        ///< Wall time of the loop call(s).
  double cpu_s = 0.0;         ///< Process user+sys CPU over the loop call(s).
  std::map<detect::AlgorithmId, std::uint64_t> invocations;  ///< detect() calls made.
};

void add_stages(core::StageTimings& acc, const core::StageTimings& t) {
  acc.render_s += t.render_s;
  acc.detect_s += t.detect_s;
  acc.features_s += t.features_s;
  acc.controller_s += t.controller_s;
  acc.net_s += t.net_s;
}

/// One pass of the workload's loop into the current obs session. The durable
/// workload stops after half its rounds and resumes from the last snapshot;
/// `split` = false runs it uninterrupted instead.
LoopRun run_loop(const Setup& setup, const Workload& w, core::EecsSimulationConfig config,
                 bool split = true) {
  LoopRun run;
  const auto before = invocation_counts();
  const double cpu0 = process_cpu_seconds();
  Stopwatch watch;
  if (w.durable && split) {
    core::EecsSimulationConfig first = config;
    first.runtime.stop_after_rounds = std::max(1, count_rounds(config) / 2);
    const core::SimulationResult partial =
        core::run_eecs_simulation(setup.bank, *setup.knowledge, first);
    add_stages(run.stages, partial.timings);
    config.runtime.resume_from = config.runtime.checkpoint_path;
  }
  run.result = core::run_eecs_simulation(setup.bank, *setup.knowledge, config);
  run.wall_s = watch.seconds();
  run.cpu_s = process_cpu_seconds() - cpu0;
  add_stages(run.stages, run.result.timings);
  const auto after = invocation_counts();
  for (const auto& [id, count] : after) run.invocations[id] = count - before.at(id);
  return run;
}

/// %.17g report of every deterministic result field (as tools/sim_determinism
/// prints it), folded to a 64-bit FNV-1a digest.
std::string result_digest(const core::SimulationResult& r) {
  std::string out = format("%.17g %.17g %d %d %d %zu %llu %llu", r.cpu_joules, r.radio_joules,
                           r.humans_detected, r.humans_present, r.gt_frames_processed,
                           r.rounds.size(), static_cast<unsigned long long>(r.windows_evaluated),
                           static_cast<unsigned long long>(r.windows_pruned));
  for (const auto& round : r.rounds) {
    out += format(" %d %.17g %.17g %.17g %.17g %d %s", round.start_frame, round.stats.n_star,
                  round.stats.p_star, round.stats.n_est, round.stats.p_est,
                  round.stats.cameras_active, round.stats.summary.c_str());
  }
  for (double b : r.battery_residual) out += format(" %.17g", b);
  const core::FaultCounters& f = r.faults;
  out += format(" %ld %ld %ld %ld %ld %ld %ld %ld %ld %ld %ld %ld %ld %ld", f.messages_sent,
                f.messages_lost, f.assignments_retried, f.assignments_abandoned,
                f.assignments_pushed, f.assignments_acked, f.acks_late, f.assignments_dropped,
                f.assignments_replaced, f.assignments_pending_at_exit, f.deadline_misses,
                f.degradation_stepdowns, f.degradation_stepups, f.frames_parked);
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char ch : out) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return format("%016llx", static_cast<unsigned long long>(h));
}

/// Failed output checks, collected with their reasons.
struct Checks {
  bool ok = true;
  std::string detail;

  void require(bool cond, const std::string& what) {
    if (cond) return;
    ok = false;
    detail += (detail.empty() ? "" : "; ") + what;
  }
};

std::uint64_t full_sweep_windows(const Setup& setup, detect::AlgorithmId id, int width,
                                 int height) {
  static std::map<std::tuple<int, int, int>, std::uint64_t> cache;
  const auto key = std::make_tuple(static_cast<int>(id), width, height);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  // Window geometry depends on the frame size only, so a blank frame of the
  // dataset's size gives the ungated per-call count.
  const imaging::Image blank(width, height, 3);
  energy::CostCounter cost;
  obs::ScopedTelemetry isolated;  // Keep this call out of the measured counters.
  (void)detector_of(setup, id).detect(blank, &cost);
  return cache[key] = cost.windows_evaluated + cost.windows_pruned;
}

/// Output checks every loop pass must pass: the session's energy ledger
/// closes against the result, evaluated + pruned windows equal the
/// full-sweep count of the detect() calls made, and at the default seed on
/// the full segment the result equals the workload's reference.
Checks check_run(const Setup& setup, const Workload& w, const LoopRun& run, std::uint64_t seed,
                 bool full_segment) {
  Checks checks;
  const core::SimulationResult& r = run.result;
  const auto conservation =
      obs::current().ledger().check(r.cpu_joules, r.radio_joules, r.battery_residual);
  checks.require(conservation.ok, "ledger does not close: " + conservation.detail);
  if constexpr (obs::kEnabled) {
    const video::Environment env = video::dataset_by_id(w.dataset);
    std::uint64_t expected = 0;
    for (const auto& [id, calls] : run.invocations) {
      if (calls > 0) expected += calls * full_sweep_windows(setup, id, env.image_width, env.image_height);
    }
    checks.require(r.windows_evaluated + r.windows_pruned == expected,
                   format("windows evaluated %llu + pruned %llu != full sweep %llu",
                          static_cast<unsigned long long>(r.windows_evaluated),
                          static_cast<unsigned long long>(r.windows_pruned),
                          static_cast<unsigned long long>(expected)));
  }
  if (seed == kDefaultSceneSeed && full_segment && w.ref_humans >= 0) {
    const std::string joules = format("%.6f", r.total_joules());
    checks.require(joules == w.ref_joules && r.humans_detected == w.ref_humans,
                   format("reference %s J / %d humans, got %s J / %d", w.ref_joules,
                          w.ref_humans, joules.c_str(), r.humans_detected));
  }
  return checks;
}

// ------------------------------------------------------------ json output

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, std::isfinite(v) ? format("%.17g", v) : std::string("null"));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + common::json_escape(v) + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Build and host context of every result (bench::json_build_context plus the
/// loop's thread width and the host's core count).
std::string context_json(int threads) {
  return format("{%s, \"threads\": %d, \"nproc\": %d}", bench::json_build_context().c_str(),
                threads, common::hardware_threads());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------- benchmark spans

/// Microseconds since the harness started: the clock of every tracer the
/// harness records into, so the loop's and the replay's events share one
/// timeline.
std::uint64_t harness_us() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - origin)
                                        .count());
}

/// The benchmark's own span around one call into a layer. end() records it
/// as a Chrome 'X' event (with the call's op count, if given) into the
/// current obs session's tracer and returns its duration in ns.
class BenchSpan {
 public:
  BenchSpan(std::string name, const char* cat)
      : name_(std::move(name)), cat_(cat), start_us_(harness_us()) {}

  double end(double ops = -1.0) {
    const double ns = watch_.seconds() * 1e9;
    obs::TraceEvent event;
    event.phase = 'X';
    event.wall_us = start_us_;
    event.dur_us = harness_us() - start_us_;
    event.cat = cat_;
    event.name = std::move(name_);
    if (ops >= 0.0) event.num_args.emplace_back("ops", ops);
    obs::current().tracer().record(std::move(event));
    return ns;
  }

 private:
  std::string name_;
  const char* cat_;
  std::uint64_t start_us_;
  Stopwatch watch_;
};

/// Chrome trace of `events` with every complete event's self time (its
/// duration minus those of the events nested directly inside it, by ts/dur)
/// in args.self_us. Adds each event's self time to `self_us_by_name`.
std::string chrome_trace_with_self_times(std::vector<obs::TraceEvent> events,
                                         std::map<std::string, double>& self_us_by_name) {
  std::stable_sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.wall_us != b.wall_us ? a.wall_us < b.wall_us : a.dur_us > b.dur_us;
  });
  const auto end_us = [&](std::size_t i) { return events[i].wall_us + events[i].dur_us; };
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<std::size_t> open;  // Complete events enclosing the current one, innermost last.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].phase != 'X') continue;
    while (!open.empty() && end_us(open.back()) < end_us(i)) open.pop_back();
    if (!open.empty()) child_us[open.back()] += static_cast<double>(events[i].dur_us);
    open.push_back(i);
  }
  obs::Tracer out(std::max<std::size_t>(1, events.size()));
  out.set_clock([] { return std::uint64_t{0}; });  // Keep every event's own stamp.
  for (std::size_t i = 0; i < events.size(); ++i) {
    obs::TraceEvent e = std::move(events[i]);
    if (e.phase == 'X') {
      const double self_us = static_cast<double>(e.dur_us) - child_us[i];
      e.num_args.emplace_back("self_us", self_us);
      self_us_by_name[e.name] += self_us;
    }
    out.record(std::move(e));
  }
  return out.to_chrome_trace();
}

// ------------------------------------------------------------ replay

/// Pyramid rungs (scaled dims) a detector scans on a frame of the given size,
/// identity rung included. Cross-checked against the detector's own
/// precompute_plan so a geometry change cannot silently skew the table.
std::vector<std::pair<int, int>> pyramid_rungs(const detect::Detector& detector, int width,
                                               int height) {
  const std::vector<double> scales =
      detector.id() == detect::AlgorithmId::Hog
          ? detect::pyramid_scales(detect::HogDetectorParams{}.min_scale,
                                   detect::HogDetectorParams{}.max_scale,
                                   detect::HogDetectorParams{}.scale_factor)
          : detect::pyramid_scales(detect::AcfDetectorParams{}.min_scale,
                                   detect::AcfDetectorParams{}.max_scale,
                                   detect::AcfDetectorParams{}.scale_factor);
  std::vector<std::pair<int, int>> rungs, resized;
  for (double s : scales) {
    const int sw = static_cast<int>(std::lround(width * s));
    const int sh = static_cast<int>(std::lround(height * s));
    if (sw < detect::kWindowWidth || sh < detect::kWindowHeight) continue;
    rungs.emplace_back(sw, sh);
    if (sw != width || sh != height) resized.emplace_back(sw, sh);
  }
  if (resized != detector.precompute_plan(width, height)) {
    throw ContractViolation("perfbench: detector pyramid differs from its precompute_plan");
  }
  return rungs;
}

struct RungRow {
  double frames = 0.0;
  double resize_ns = 0.0, resize_ops = 0.0;
  double substrate_ns = 0.0, substrate_ops = 0.0;
};

struct DetectorRow {
  double frames = 0.0;
  double cold_ns = 0.0;         ///< Resize + substrates + scoring, cold cache.
  double compute_ops = 0.0;     ///< Counted ops of the standalone detect().
  double modelled_s = 0.0;      ///< CpuEnergyModel::seconds of those ops.
  double score_ns = 0.0;        ///< detect() on the warmed cache.
  double classifier_ops = 0.0;
};

struct Replay {
  std::map<std::string, double> ms;  ///< Per-layer figures, keyed by metric name.
  std::string model_table;
};

/// Replays `frames` multi-view ground-truth frames of the workload's test
/// segment through each layer's public functions, one span per call.
Replay replay_layers(const Setup& setup, const Workload& w, const core::EecsSimulationConfig& config,
                     int frames, const std::string& snapshot) {
  const common::ScopedThreads scoped_threads(config.threads);
  const core::OfflineKnowledge& knowledge = *setup.knowledge;
  const energy::CpuEnergyModel& cpu_model = config.models.cpu_model;
  video::SceneSimulator sim(video::dataset_by_id(config.dataset), config.seed);
  const int num_cameras = static_cast<int>(sim.cameras().size());
  const int width = sim.environment().image_width;
  const int height = sim.environment().image_height;
  const int stride = gt_stride(config);
  const detect::ContextGateOptions gate_opts = detect::resolve_context_gate(config.context_gate);

  reid::ReIdentifier reidentifier = core::make_reidentifier(sim);
  reidentifier.set_color_gate(core::fit_color_gate(config.dataset, config.seed + 17));

  std::map<std::pair<int, std::pair<int, int>>, RungRow> rung_rows;
  std::map<int, DetectorRow> detector_rows;
  std::vector<double> camera_detect_ns(static_cast<std::size_t>(num_cameras), 0.0);
  std::vector<std::vector<std::vector<float>>> camera_features(static_cast<std::size_t>(num_cameras));
  core::AssessmentData assessment;
  net::Network network(config.models.radio_model, config.seed ^ 0xabcd);
  (void)network.add_node(config.downlink);
  for (int c = 0; c < num_cameras; ++c) (void)network.add_node(config.uplink);

  double render_ns = 0.0, rendered = 0.0, sweep_ns = 0.0, frame_feature_ns = 0.0,
         color_ns = 0.0, group_ns = 0.0, send_ns = 0.0, match_ns = 0.0;
  double color_calls = 0.0, group_calls = 0.0, messages = 0.0, camera_frames = 0.0;
  double tiles_planned = 0.0, tiles_pruned = 0.0;
  double operating_ops = 0.0, operating_calls = 0.0;
  const auto next_frame = [&] {
    BenchSpan span("video.next_frame", "video");
    video::MultiViewFrame frame = sim.next_frame();
    render_ns += span.end();
    rendered += 1.0;
    return frame;
  };

  // Registration, as the loop runs it: frame features of the first
  // upload_feature_frames ground-truth frames, matched to a training item.
  sim.skip(config.start_frame);
  for (int f = 0; f < config.upload_feature_frames; ++f) {
    const video::MultiViewFrame frame = next_frame();
    for (int c = 0; c < num_cameras; ++c) {
      BenchSpan span("features.frame_feature", "features");
      camera_features[static_cast<std::size_t>(c)].push_back(
          knowledge.extractor().extract(frame.views[static_cast<std::size_t>(c)]));
      frame_feature_ns += span.end();
    }
    sim.skip(stride - 1);
  }
  core::EecsController controller(knowledge, reidentifier, config.controller);
  for (int c = 0; c < num_cameras; ++c) {
    const auto& rows = camera_features[static_cast<std::size_t>(c)];
    linalg::Matrix features(static_cast<int>(rows.size()), knowledge.extractor().dimension());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (int d = 0; d < features.cols(); ++d) {
        features(static_cast<int>(r), d) = rows[r][static_cast<std::size_t>(d)];
      }
    }
    BenchSpan span("domain.match", "domain");
    (void)knowledge.match(features);
    match_ns += span.end();
    controller.register_camera(c, features, config.budget_per_frame);
  }

  // Per camera, what the assessment sweep runs: every algorithm the
  // controller ranks affordable, in the configured order, with its threshold.
  // The operating algorithm is the camera's best entry.
  struct CameraAlg {
    detect::AlgorithmId id;
    double threshold;
    bool operating;
  };
  std::vector<std::vector<CameraAlg>> algs(static_cast<std::size_t>(num_cameras));
  for (int c = 0; c < num_cameras; ++c) {
    const core::AlgorithmProfile* best = controller.best_entry(c);
    for (detect::AlgorithmId id : config.controller.algorithms) {
      const core::AlgorithmProfile* profile = controller.entry(c, id);
      if (profile == nullptr) continue;
      algs[static_cast<std::size_t>(c)].push_back(
          {id, profile->threshold, best != nullptr && best->id == id});
    }
  }

  // Assessment-style sweeps over the following ground-truth frames.
  for (int f = 0; f < frames; ++f) {
    const video::MultiViewFrame frame = next_frame();

    // Stage-major plan + prewarm of the frame's work-list (the gate engages:
    // round 0 is never a recovery round).
    {
      BenchSpan span("sweep.plan_prewarm", "detect");
      detect::SweepScheduler batch(static_cast<std::size_t>(num_cameras), gate_opts, 0);
      for (int c = 0; c < num_cameras; ++c) {
        for (const CameraAlg& a : algs[static_cast<std::size_t>(c)]) {
          batch.plan(static_cast<std::size_t>(c), frame.views[static_cast<std::size_t>(c)],
                     detector_of(setup, a.id), &sim.cameras()[static_cast<std::size_t>(c)]);
        }
      }
      batch.prewarm();
      sweep_ns += span.end();
      tiles_planned += static_cast<double>(batch.tiles_planned());
      tiles_pruned += static_cast<double>(batch.tiles_pruned());
    }

    std::vector<reid::ViewDetection> frame_views;
    for (int c = 0; c < num_cameras; ++c) {
      const imaging::Image& view = frame.views[static_cast<std::size_t>(c)];
      BenchSpan camera_span("camera" + std::to_string(c), "replay");
      camera_frames += 1.0;
      for (const CameraAlg& a : algs[static_cast<std::size_t>(c)]) {
        const detect::Detector& detector = detector_of(setup, a.id);
        const std::string alg = detect::to_string(a.id);
        BenchSpan det_span("detect." + alg, "detect");
        detect::FramePrecompute pre(view);
        DetectorRow& drow = detector_rows[static_cast<int>(a.id)];
        for (const auto& [sw, sh] : pyramid_rungs(detector, width, height)) {
          RungRow& row = rung_rows[{static_cast<int>(a.id), {sw, sh}}];
          row.frames += 1.0;
          if (sw != width || sh != height) {
            BenchSpan span("kernel.resize", "kernel");
            (void)pre.scaled(sw, sh);
            const double ops = static_cast<double>(sw) * sh;
            row.resize_ns += span.end(ops);
            row.resize_ops += ops;
          }
          energy::CostCounter charge;
          const bool is_hog = a.id == detect::AlgorithmId::Hog;
          BenchSpan span(is_hog ? "kernel.block_grid" : "kernel.acf_channels", "kernel");
          if (is_hog) {
            (void)pre.block_grid(sw, sh, features::HogParams{}, &charge);
          } else {
            (void)pre.acf_channels(sw, sh, &charge);
          }
          const double ops = static_cast<double>(charge.compute_ops());
          row.substrate_ns += span.end(ops);
          row.substrate_ops += ops;
        }
        energy::CostCounter cost;
        BenchSpan score_span("detect." + alg + ".score", "detect");
        const std::vector<detect::Detection> raw = detector.detect(pre, &cost);
        const double score_ns = score_span.end(static_cast<double>(cost.classifier_ops));
        const double det_ns = det_span.end();
        drow.frames += 1.0;
        drow.cold_ns += det_ns;
        drow.compute_ops += static_cast<double>(cost.compute_ops());
        drow.modelled_s += cpu_model.seconds(cost);
        drow.score_ns += score_ns;
        drow.classifier_ops += static_cast<double>(cost.classifier_ops);
        camera_detect_ns[static_cast<std::size_t>(c)] += det_ns;
        if (a.operating) {
          operating_ops += static_cast<double>(cost.compute_ops());
          operating_calls += 1.0;
        }

        std::vector<reid::ViewDetection> views;
        for (const detect::Detection& det : raw) {
          if (det.score < a.threshold) continue;
          BenchSpan span("features.color_feature", "features");
          reid::ViewDetection vd;
          vd.camera = c;
          vd.detection = det;
          vd.color_feature = features::color_feature(view, det.box);
          color_ns += span.end();
          color_calls += 1.0;
          views.push_back(std::move(vd));
        }
        if (f < config.assessment_gt_frames) {
          auto& sample = assessment[c][a.id];
          sample.frames.resize(static_cast<std::size_t>(config.assessment_gt_frames));
          sample.frames[static_cast<std::size_t>(f)] = views;
        }
        if (a.operating) {
          net::DetectionMetadataMsg msg;
          msg.camera_id = c;
          msg.frame_index = frame.index;
          msg.algorithm = static_cast<std::uint8_t>(a.id);
          for (const reid::ViewDetection& vd : views) {
            net::ObjectMetadata obj;
            obj.x = static_cast<std::uint16_t>(std::clamp(vd.detection.box.x, 0.0, 65535.0));
            obj.y = static_cast<std::uint16_t>(std::clamp(vd.detection.box.y, 0.0, 65535.0));
            obj.w = static_cast<std::uint16_t>(std::clamp(vd.detection.box.w, 0.0, 65535.0));
            obj.h = static_cast<std::uint16_t>(std::clamp(vd.detection.box.h, 0.0, 65535.0));
            obj.probability = static_cast<float>(vd.detection.probability);
            obj.color_feature = vd.color_feature;
            msg.objects.push_back(std::move(obj));
          }
          BenchSpan span("net.send", "net");
          (void)network.send(c + 1, 0, net::encode(msg));
          (void)network.advance_to(frame.index + 0.5);
          send_ns += span.end();
          messages += 1.0;
          frame_views.insert(frame_views.end(), views.begin(), views.end());
        }
      }
      camera_span.end();
    }
    BenchSpan span("reid.group", "reid");
    (void)reidentifier.group(frame_views);
    group_ns += span.end();
    group_calls += 1.0;
    sim.skip(stride - 1);
  }

  // Controller selection over the replayed assessment frames.
  constexpr int kSelects = 5;
  std::vector<double> select_ns;
  for (int i = 0; i < kSelects; ++i) {
    BenchSpan span("controller.select", "core");
    (void)controller.select(assessment, config.mode);
    select_ns.push_back(span.end());
  }

  // Checkpoint encode + save and load + decode of the run's snapshot.
  constexpr int kSnapshotReps = 5;
  std::vector<double> save_ns, load_ns;
  double snapshot_bytes = 0.0;
  const std::string copy_path = snapshot + ".replay";
  for (int i = 0; i < kSnapshotReps; ++i) {
    BenchSpan load_span("runtime.load_decode", "runtime");
    const runtime::SimulationCheckpoint ck = runtime::SimulationCheckpoint::load(snapshot);
    load_ns.push_back(load_span.end());
    BenchSpan save_span("runtime.encode_save", "runtime");
    ck.save(copy_path);
    save_ns.push_back(save_span.end());
    snapshot_bytes = static_cast<double>(ck.encode().size());
  }
  std::filesystem::remove(copy_path);

  // Per-layer figures.
  Replay out;
  auto& m = out.ms;
  const auto per = [](double total, double count) { return count > 0.0 ? total / count : 0.0; };
  m["video.render_ms_per_step"] = per(render_ns, rendered) * 1e-6;
  double resize_ns = 0.0, resize_ops = 0.0;
  std::map<int, std::pair<double, double>> substrate;  // alg -> (ns, ops)
  for (const auto& [key, row] : rung_rows) {
    resize_ns += row.resize_ns;
    resize_ops += row.resize_ops;
    substrate[key.first].first += row.substrate_ns;
    substrate[key.first].second += row.substrate_ops;
  }
  m["kernel.resize.ms_per_frame"] = per(resize_ns, camera_frames) * 1e-6;
  m["kernel.resize.ns_per_op"] = per(resize_ns, resize_ops);
  const auto hog = static_cast<int>(detect::AlgorithmId::Hog);
  const auto acf = static_cast<int>(detect::AlgorithmId::Acf);
  m["kernel.block_grid.ms_per_frame"] = per(substrate[hog].first, camera_frames) * 1e-6;
  m["kernel.block_grid.ns_per_op"] = per(substrate[hog].first, substrate[hog].second);
  m["kernel.acf_channels.ms_per_frame"] = per(substrate[acf].first, camera_frames) * 1e-6;
  m["kernel.acf_channels.ns_per_op"] = per(substrate[acf].first, substrate[acf].second);
  const auto row_of = [&](int alg) {
    const auto it = detector_rows.find(alg);
    return it != detector_rows.end() ? it->second : DetectorRow{};
  };
  const DetectorRow hrow = row_of(hog);
  const DetectorRow arow = row_of(acf);
  m["detect.hog.score_ms_per_frame"] = per(hrow.score_ns, hrow.frames) * 1e-6;
  m["detect.hog.ns_per_classifier_op"] = per(hrow.score_ns, hrow.classifier_ops);
  m["detect.acf.score_ms_per_frame"] = per(arow.score_ns, arow.frames) * 1e-6;
  m["detect.acf.ns_per_classifier_op"] = per(arow.score_ns, arow.classifier_ops);
  m["sweep.plan_prewarm_ms_per_frame"] = per(sweep_ns, frames) * 1e-6;
  m["sweep.tiles_pruned_fraction"] = per(tiles_pruned, tiles_planned);
  m["features.frame_feature_ms"] =
      per(frame_feature_ns, static_cast<double>(config.upload_feature_frames) * num_cameras) * 1e-6;
  m["features.color_feature_us"] = per(color_ns, color_calls) * 1e-3;
  m["domain.match_ms"] = per(match_ns, num_cameras) * 1e-6;
  m["reid.group_us"] = per(group_ns, group_calls) * 1e-3;
  m["controller.select_ms"] = median(select_ns) * 1e-6;
  m["net.send_us"] = per(send_ns, messages) * 1e-3;
  m["runtime.checkpoint_ms"] = median(save_ns) * 1e-6;
  m["runtime.checkpoint_bytes"] = snapshot_bytes;
  m["runtime.resume_ms"] = median(load_ns) * 1e-6;
  double max_cam = 0.0, sum_cam = 0.0;
  for (double ns : camera_detect_ns) {
    max_cam = std::max(max_cam, ns);
    sum_cam += ns;
  }
  m["parallel.camera_imbalance"] = sum_cam > 0.0 ? max_cam / (sum_cam / num_cameras) : 0.0;
  m["energy.compute_ops_per_camera_frame"] = per(operating_ops, operating_calls);

  // Model-vs-measured table: counted ops against measured ns per kernel and
  // (detector, pyramid rung), and the op model's seconds per frame against
  // the measured cold detect() per detector.
  std::string& t = out.model_table;
  t += format("# Model vs measured: %s, seed %llu, %d frames x %d cameras\n\n", w.name,
              static_cast<unsigned long long>(config.seed), frames, num_cameras);
  t += "Per (detector, pyramid rung), mean per camera frame. Scoring is timed per detector\n"
       "(below): the public API scores all rungs in one call.\n\n";
  t += "| detector | rung | resize ops | resize ns | ns/op | substrate | substrate ops | "
       "substrate ns | ns/op |\n|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& [key, row] : rung_rows) {
    const char* name = detect::to_string(static_cast<detect::AlgorithmId>(key.first));
    const char* sub = key.first == hog ? "block grid" : "ACF channels";
    t += format("| %s | %dx%d | %.0f | %.0f | %.3f | %s | %.0f | %.0f | %.3f |\n", name,
                key.second.first, key.second.second, per(row.resize_ops, row.frames),
                per(row.resize_ns, row.frames), per(row.resize_ns, row.resize_ops), sub,
                per(row.substrate_ops, row.frames), per(row.substrate_ns, row.frames),
                per(row.substrate_ns, row.substrate_ops));
  }
  t += "\nPer detector, standalone detect() on a cold cache.\n\n";
  t += "| detector | counted ops/frame | modelled s/frame | measured s/frame | "
       "modelled / measured | scoring ns/frame | classifier ops/frame | scoring ns/op |\n"
       "|---|---|---|---|---|---|---|---|\n";
  for (const auto& [alg, row] : detector_rows) {
    const double measured = per(row.cold_ns, row.frames) * 1e-9;
    const double modelled = per(row.modelled_s, row.frames);
    t += format("| %s | %.0f | %.4f | %.6f | %.1f | %.0f | %.0f | %.3f |\n",
                detect::to_string(static_cast<detect::AlgorithmId>(alg)),
                per(row.compute_ops, row.frames), modelled, measured, per(modelled, measured),
                per(row.score_ns, row.frames), per(row.classifier_ops, row.frames),
                per(row.score_ns, row.classifier_ops));
  }
  if (hrow.frames > 0.0 && arow.frames > 0.0) {
    const double modelled = per(arow.modelled_s, arow.frames) / per(hrow.modelled_s, hrow.frames);
    const double measured = per(arow.cold_ns, arow.frames) / per(hrow.cold_ns, hrow.frames);
    t += format("\nACF / HOG cost per frame: counted ops (model) %.3f, measured time %.3f.\n",
                modelled, measured);
  }
  return out;
}

// ------------------------------------------------------------------ modes

struct Options {
  std::string workload;
  std::string mode = "timed";
  std::uint64_t seed = kDefaultSceneSeed;
  double seconds = 0.0;  ///< Minimum loop time of a timed run (whole scene cycles).
  /// > 0 shortens the segment to end there, with one scene and one set-up
  /// per timed run (self-check).
  int end_frame = 0;
  std::string out_dir = ".";
};

/// Scene seeds of one run: the run's seed first, so the default seed still
/// reproduces the workload's reference output.
constexpr std::uint64_t kSceneStride = 7919;

/// Timed loop passes of each leg of the tracing-overhead comparison: traced
/// in --mode trace, obs-off in --mode untraced.
constexpr int kOverheadPasses = 2;

int threads_for_load() { return std::min(4, common::hardware_threads()); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void set_up(Setup& setup, const Workload& w) {
  setup.bank = train_detectors();
  setup.knowledge = build_knowledge(setup, w);
}

/// End-to-end pass: set up several times, then cycle the loop over the run's
/// scenes until `seconds` of loop time have passed (whole cycles only, so
/// every cycle has the same scene mix), then run the first scene once more:
/// every scene's output must repeat exactly (for the durable workload the
/// repeat runs uninterrupted, so the resumed result must equal it). Timings
/// are medians over the cycles' passes, so a burst of load from outside the
/// process that hits a minority of passes does not move them; energy and
/// humans are means over the scenes.
int run_timed(const Options& opt, const Workload& w) {
  const int threads = threads_for_load();
  const bool full_segment = opt.end_frame <= 0;
  std::vector<double> setup_s;
  Setup setup;
  for (int i = 0; i < (full_segment ? w.setups : 1); ++i) {
    Stopwatch watch;
    set_up(setup, w);
    setup_s.push_back(watch.seconds());
  }

  std::vector<core::EecsSimulationConfig> configs;
  for (int i = 0; i < (full_segment ? w.scenes : 1); ++i) {
    configs.push_back(make_config(w, opt.seed + kSceneStride * static_cast<std::uint64_t>(i),
                                  threads, opt.end_frame, opt.out_dir));
  }
  std::vector<std::string> digests(configs.size());
  std::vector<double> energy(configs.size()), humans(configs.size());
  std::vector<double> wall_s, cpu_s;
  Checks checks;
  int attempted = 0, failed = 0;
  const auto record = [&](const Checks& pass) {
    ++attempted;
    if (!pass.ok) ++failed;
    checks.require(pass.ok, pass.detail);
  };
  const auto check_repeat = [&](Checks& pass, const LoopRun& run, std::size_t scene) {
    const std::string digest = result_digest(run.result);
    if (digests[scene].empty()) digests[scene] = digest;
    pass.require(digest == digests[scene], format("scene %zu: result differs between passes", scene));
  };
  double loop_s = 0.0;
  do {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const LoopRun run = run_loop(setup, w, configs[i]);
      wall_s.push_back(run.wall_s);
      cpu_s.push_back(run.cpu_s);
      loop_s += run.wall_s;
      Checks pass = check_run(setup, w, run, configs[i].seed, full_segment);
      check_repeat(pass, run, i);
      energy[i] = run.result.total_joules();
      humans[i] = run.result.humans_detected;
      record(pass);
    }
  } while (loop_s < opt.seconds);
  const double rss = peak_rss_mb();

  auto again = configs.front();
  if (w.durable) again.runtime.checkpoint_path += ".again";
  const LoopRun run = run_loop(setup, w, again, /*split=*/false);
  Checks pass = check_run(setup, w, run, again.seed, full_segment);
  check_repeat(pass, run, 0);
  record(pass);
  if (w.durable) {
    std::filesystem::remove(again.runtime.checkpoint_path);
    std::filesystem::remove(configs.front().runtime.checkpoint_path);
  }

  JsonObject out;
  out.str("mode", "timed")
      .str("workload", w.name)
      .raw("context", context_json(threads))
      .num("attempted", attempted)
      .num("failed", failed)
      .num("setup_s", median(setup_s))
      .num("run_s", median(wall_s))
      .num("cpu_s", median(cpu_s))
      .num("peak_rss_mb", rss)
      .num("energy_j", mean(energy))
      .num("humans_detected", mean(humans))
      .num("seed_scene_energy_j", energy.front())
      .num("seed_scene_humans_detected", humans.front())
      .boolean("ok", checks.ok)
      .str("detail", checks.detail);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// The obs-off leg of the tracing-overhead comparison (a build with
/// EECS_OBS_OFF): kOverheadPasses passes of the --seed scene. Prints their
/// median and the result digest, which must equal the traced build's.
int run_untraced(const Options& opt, const Workload& w) {
  const int threads = threads_for_load();
  Setup setup;
  set_up(setup, w);
  const auto config = make_config(w, opt.seed, threads, opt.end_frame, opt.out_dir);
  std::vector<double> wall_s;
  Checks checks;
  int attempted = 0, failed = 0;
  std::string digest;
  for (int i = 0; i < kOverheadPasses; ++i) {
    const LoopRun run = run_loop(setup, w, config);
    wall_s.push_back(run.wall_s);
    Checks pass = check_run(setup, w, run, opt.seed, opt.end_frame <= 0);
    if (digest.empty()) digest = result_digest(run.result);
    pass.require(result_digest(run.result) == digest, "result differs between passes");
    ++attempted;
    if (!pass.ok) ++failed;
    checks.require(pass.ok, pass.detail);
  }
  if (w.durable) std::filesystem::remove(config.runtime.checkpoint_path);

  JsonObject out;
  out.str("mode", "untraced")
      .str("workload", w.name)
      .raw("context", context_json(threads))
      .num("attempted", attempted)
      .num("failed", failed)
      .num("run_s", median(wall_s))
      .str("digest", digest)
      .boolean("ok", checks.ok)
      .str("detail", checks.detail);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// Per-layer figures: set-up and replay under the benchmark's own spans, and
/// loop passes of the --seed scene, each in its own obs session on the same
/// clock (the last threads=N pass's spans and counters give the stage
/// breakdown). Every pass must give the same result digest.
int run_trace(const Options& opt, const Workload& w) {
  const int threads = threads_for_load();
  obs::ScopedTelemetry bench;  // The benchmark's spans around set-up and replay.
  bench.session().tracer().set_clock(harness_us);
  JsonObject metrics;
  Checks checks;
  int attempted = 0, failed = 0;

  Setup setup;
  BenchSpan train_span("offline.make_trained_detectors", "offline");
  setup.bank = train_detectors();
  metrics.num("offline.train_detectors_s", train_span.end() * 1e-9);
  BenchSpan knowledge_span("offline.run_offline_training", "offline");
  setup.knowledge = build_knowledge(setup, w);
  metrics.num("offline.knowledge_s", knowledge_span.end() * 1e-9);

  const bool full_segment = opt.end_frame <= 0;
  const auto config = make_config(w, opt.seed, threads, opt.end_frame, opt.out_dir);
  std::string digest;
  struct TracedPass {
    LoopRun run;
    std::vector<obs::TraceEvent> events;
    std::map<std::string, double> counters;
  };
  const auto traced_pass = [&](const core::EecsSimulationConfig& c, bool split) {
    obs::ScopedTelemetry session(1 << 18);
    session.session().tracer().set_clock(harness_us);
    TracedPass out;
    BenchSpan span("loop", "core");
    out.run = run_loop(setup, w, c, split);
    span.end();
    Checks pass = check_run(setup, w, out.run, opt.seed, full_segment);
    const std::string d = result_digest(out.run.result);
    if (digest.empty()) digest = d;
    pass.require(d == digest, "result differs between passes");
    ++attempted;
    if (!pass.ok) ++failed;
    checks.require(pass.ok, pass.detail);
    out.events = session.session().tracer().events();
    for (const char* name :
         {"detect.cache.scaled.hit", "detect.cache.scaled.miss", "detect.cache.block_grid.hit",
          "detect.cache.block_grid.miss", "detect.cache.acf_channels.hit",
          "detect.cache.acf_channels.miss", "detect.cache.census.hit", "detect.cache.census.miss",
          "detect.windows.evaluated", "detect.windows.pruned", "net.rx.delivered",
          "net.messages.sent", "protocol.assignments.retried"}) {
      out.counters[name] = static_cast<double>(counter_value(name));
    }
    return out;
  };

  std::vector<double> traced_s;
  TracedPass traced;
  for (int i = 0; i < kOverheadPasses; ++i) {
    traced = traced_pass(config, true);
    traced_s.push_back(traced.run.wall_s);
  }
  const core::StageTimings& st = traced.run.stages;
  metrics.num("stage.render_s", st.render_s)
      .num("stage.detect_s", st.detect_s)
      .num("stage.features_s", st.features_s)
      .num("stage.controller_s", st.controller_s)
      .num("stage.net_s", st.net_s)
      .num("stage.other_s", traced.run.wall_s - st.total());
  std::map<std::string, double>& counters = traced.counters;
  const double windows = counters["detect.windows.evaluated"] + counters["detect.windows.pruned"];
  metrics.num("detect.windows_evaluated_fraction",
              windows > 0.0 ? counters["detect.windows.evaluated"] / windows : 0.0);
  const double hits = counters["detect.cache.scaled.hit"] + counters["detect.cache.block_grid.hit"] +
                      counters["detect.cache.acf_channels.hit"] + counters["detect.cache.census.hit"];
  const double misses = counters["detect.cache.scaled.miss"] +
                        counters["detect.cache.block_grid.miss"] +
                        counters["detect.cache.acf_channels.miss"] +
                        counters["detect.cache.census.miss"];
  metrics.num("detect.cache_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0)
      .num("net.delivery_ratio", counters["net.messages.sent"] > 0.0
                                     ? counters["net.rx.delivered"] / counters["net.messages.sent"]
                                     : 0.0)
      .num("net.assignments_retried", counters["protocol.assignments.retried"]);

  // A threads=1 pass over the whole segment, uninterrupted and
  // checkpointing every round, so the replay below has a snapshot of this
  // workload to load and save. It must equal the passes above (for the
  // durable workload: the resumed run equals the uninterrupted one).
  auto whole = config;
  whole.runtime.checkpoint_every_rounds = 1;
  whole.runtime.checkpoint_path = opt.out_dir + "/" + w.name + ".whole.snap";
  whole.threads = 1;
  const TracedPass serial = traced_pass(whole, /*split=*/false);
  whole.threads = threads;
  metrics.num("parallel.detect_speedup",
              st.detect_s > 0.0 ? serial.run.stages.detect_s / st.detect_s : 0.0);

  const int replay_frames = w.dataset == 1 ? 8 : 4;
  const Replay replay =
      replay_layers(setup, w, whole, replay_frames, whole.runtime.checkpoint_path);
  std::filesystem::remove(whole.runtime.checkpoint_path);
  if (w.durable) std::filesystem::remove(config.runtime.checkpoint_path);
  for (const auto& [name, value] : replay.ms) metrics.num(name, value);

  std::vector<obs::TraceEvent> events = bench.session().tracer().events();
  events.insert(events.end(), traced.events.begin(), traced.events.end());
  std::map<std::string, double> self_us_by_name;
  const std::string stem = opt.out_dir + "/" + w.name + "-seed" + std::to_string(opt.seed);
  std::ofstream(stem + ".trace.json") << chrome_trace_with_self_times(std::move(events),
                                                                      self_us_by_name);
  std::ofstream(stem + ".model_vs_measured.md") << replay.model_table;
  std::fputs(replay.model_table.c_str(), stderr);
  std::fputc('\n', stderr);
  for (const auto& [name, us] : self_us_by_name) {
    std::fprintf(stderr, "self %-34s %12.1f us\n", name.c_str(), us);
  }

  JsonObject out;
  out.str("mode", "trace")
      .str("workload", w.name)
      .raw("context", context_json(threads))
      .num("attempted", attempted)
      .num("failed", failed)
      .num("traced_run_s", median(traced_s))
      .str("digest", digest)
      .str("trace_file", stem + ".trace.json")
      .boolean("ok", checks.ok)
      .str("detail", checks.detail)
      .raw("metrics", metrics.dump());
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <ds1_adaptive|ds1_gated_durable|ds2_highres> "
               "[--mode timed|trace|untraced] [--seed N] [--seconds T] [--end-frame F] "
               "[--out-dir DIR]\n"
               "  --mode trace needs obs on; --mode untraced needs a build with EECS_OBS_OFF\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(argv[0]);
      return 2;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--mode") {
      opt.mode = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (flag == "--end-frame") {
      opt.end_frame = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage(argv[0]);
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      usage(argv[0]);
      return 2;
    }
  }
  const Workload* w = find_workload(opt.workload);
  const bool mode_ok = opt.mode == "timed" || (opt.mode == "trace" && obs::kEnabled) ||
                       (opt.mode == "untraced" && !obs::kEnabled);
  if (w == nullptr || !mode_ok) {
    usage(argv[0]);
    return 2;
  }
  if (bench::kAssertsCompiledIn) {
    // Timings from a build with assertions are not comparable: refuse them.
    std::fprintf(stderr, "perfbench: built without NDEBUG; results would be invalid\n");
    return 3;
  }
  if (opt.mode == "timed") return run_timed(opt, *w);
  if (opt.mode == "untraced") return run_untraced(opt, *w);
  return run_trace(opt, *w);
}
