#include "core/simulation.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <type_traits>

#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "detect/frame_cache.hpp"
#include "detect/sweep_scheduler.hpp"
#include "features/color_feature.hpp"
#include "net/messages.hpp"
#include "obs/flight.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/deadline.hpp"
#include "runtime/protocol.hpp"
#include "runtime/snapshot.hpp"

namespace eecs::core {

namespace {

using runtime::CameraNode;
using runtime::for_each_fault_field;

/// Record an instant ('i') trace event; compiled out under EECS_OBS_OFF.
void trace_instant(const char* name, const char* cat, double sim_time,
                   std::initializer_list<std::pair<const char*, double>> args = {}) {
  if constexpr (obs::kEnabled) {
    obs::TraceEvent event;
    event.phase = 'i';
    event.sim_time = sim_time;
    event.cat = cat;
    event.name = name;
    event.num_args.reserve(args.size());
    for (const auto& [key, value] : args) event.num_args.emplace_back(key, value);
    obs::current().tracer().record(std::move(event));
  }
}

// Canonical text of a config field's value for the config record: %.17g
// round-trips a double, so equal text means an equal value.
std::string config_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// open + parts joined by ',' + close, built by appends: GCC 12 at -O3
/// flags `"literal" + std::string` with a false -Wrestrict.
std::string joined(char open, const std::vector<std::string>& parts, char close) {
  std::string out(1, open);
  for (const std::string& part : parts) {
    if (out.size() > 1) out += ',';
    out += part;
  }
  out += close;
  return out;
}

template <typename T>
std::string config_text(const T& v) {
  if constexpr (std::is_enum_v<T>) {
    return std::to_string(static_cast<long long>(v));
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else if constexpr (std::is_same_v<T, net::LossWindow>) {
    const auto& [start, end, loss_probability, node] = v;  // Every member, or no build.
    return joined('{', {config_text(start), config_text(end), config_text(loss_probability),
                        config_text(node)}, '}');
  } else if constexpr (std::is_same_v<T, net::CrashWindow>) {
    const auto& [node, start, end] = v;
    return joined('{', {config_text(node), config_text(start), config_text(end)}, '}');
  } else {
    std::vector<std::string> parts;
    for (const auto& e : v) parts.push_back(config_text(e));
    return joined('[', parts, ']');
  }
}

/// Registry side of the SimulationResult façades. A run counts its
/// FaultCounters itself and publishes them to their named counters in the
/// current obs session at finalize(); StageTimings are the deltas of the
/// `stage.*_s` wall-clock gauges (fed by ScopedSpan) over the run. Runs that
/// share one session (the report/determinism tools) each see only their own
/// activity. Functional under EECS_OBS_OFF too — the façades keep their
/// semantics either way.
struct SimTelemetry {
  explicit SimTelemetry(obs::MetricsRegistry& metrics)
      : windows_evaluated(metrics.counter("detect.windows.evaluated")),
        windows_pruned(metrics.counter("detect.windows.pruned")),
        debit_joules(metrics.histogram("energy.debit_joules",
                                       {0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0})),
        render_s(metrics.gauge("stage.render_s", obs::Determinism::WallClock)),
        detect_s(metrics.gauge("stage.detect_s", obs::Determinism::WallClock)),
        features_s(metrics.gauge("stage.features_s", obs::Determinism::WallClock)),
        controller_s(metrics.gauge("stage.controller_s", obs::Determinism::WallClock)),
        net_s(metrics.gauge("stage.net_s", obs::Determinism::WallClock)) {
    for_each_fault_field(
        [&](const char* metric, auto) { fault_metrics_.push_back(&metrics.counter(metric)); });
    base_gauges_ = {render_s.value(), detect_s.value(), features_s.value(),
                    controller_s.value(), net_s.value()};
  }

  /// The single assignment point of the FaultCounters/StageTimings views:
  /// publishes the run's fault counts to the registry.
  void finalize(const FaultCounters& faults, SimulationResult& result) {
    std::size_t i = 0;
    for_each_fault_field([&](const char*, auto member) {
      fault_metrics_[i++]->inc(static_cast<std::uint64_t>(faults.*member));
    });
    result.faults = faults;
    result.timings.render_s = render_s.value() - base_gauges_[0];
    result.timings.detect_s = detect_s.value() - base_gauges_[1];
    result.timings.features_s = features_s.value() - base_gauges_[2];
    result.timings.controller_s = controller_s.value() - base_gauges_[3];
    result.timings.net_s = net_s.value() - base_gauges_[4];
  }

  /// Sliding-window work accounting (not a FaultCounters field: the result
  /// accumulates these directly from FrameOutcomes, the counters are
  /// session-wide telemetry).
  obs::Counter& windows_evaluated;
  obs::Counter& windows_pruned;
  /// Per-debit battery drain sizes (every camera battery debit across all
  /// stages); the source of the p50/p99 quantile columns in the report tools.
  obs::Histogram& debit_joules;
  obs::Gauge& render_s;
  obs::Gauge& detect_s;
  obs::Gauge& features_s;
  obs::Gauge& controller_s;
  obs::Gauge& net_s;

 private:
  std::vector<obs::Counter*> fault_metrics_;  ///< In for_each_fault_field order.
  std::array<double, 5> base_gauges_{};
};

/// O(1) algorithm -> detector resolution, hoisted out of the frame loops
/// (the bank scan used to run once per (frame, camera, algorithm)).
class DetectorLookup {
 public:
  explicit DetectorLookup(const DetectorBank& detectors) {
    by_id_.fill(nullptr);
    for (const auto& d : detectors) by_id_[static_cast<std::size_t>(d->id())] = d.get();
  }

  const detect::Detector& operator()(detect::AlgorithmId id) const {
    const detect::Detector* d = by_id_[static_cast<std::size_t>(id)];
    if (d == nullptr) throw ContractViolation("DetectorLookup: algorithm not in bank");
    return *d;
  }

 private:
  std::array<const detect::Detector*, detect::kNumAlgorithms> by_id_;
};

/// Training-item profile of a (dataset, camera) feed.
const TrainingItemProfile* find_profile(const OfflineKnowledge& knowledge, int dataset,
                                        int camera) {
  for (const auto& p : knowledge.profiles()) {
    if (p.dataset == dataset && p.camera == camera) return &p;
  }
  return nullptr;
}

/// One camera's processing of one frame: detect, extract color features,
/// size the metadata + JPEG crop upload, and count CPU energy. Pure compute
/// on const inputs — safe to fan out per camera. Detections and their color
/// features stay in parallel arrays so detect::Detection is never copied
/// through reid::ViewDetection and back (matching consumes `detections`
/// directly; assessment moves both into ViewDetections once).
struct FrameOutcome {
  std::vector<detect::Detection> detections;         ///< Thresholded, score order.
  std::vector<std::vector<float>> color_features;    ///< Aligned with detections.
  double cpu_joules = 0.0;
  std::size_t comm_bytes = 0;
  std::uint64_t windows_evaluated = 0;  ///< Sliding windows actually scored.
  std::uint64_t windows_pruned = 0;     ///< ... skipped by the context gate.
};

FrameOutcome process_camera_frame(const detect::Detector& detector, double threshold,
                                  detect::FramePrecompute& pre, const OfflineOptions& models) {
  FrameOutcome outcome;
  energy::CostCounter cost;
  auto raw = detector.detect(pre, &cost);
  outcome.windows_evaluated = cost.windows_evaluated;
  outcome.windows_pruned = cost.windows_pruned;
  const imaging::Image& frame = pre.frame();
  outcome.detections.reserve(raw.size());
  outcome.color_features.reserve(raw.size());
  for (auto& det : raw) {
    if (det.score < threshold) continue;
    outcome.color_features.push_back(features::color_feature(frame, det.box, &cost));
    outcome.comm_bytes += 172;  // §V-A metadata per object.
    outcome.comm_bytes += models.jpeg_model.region_bytes(frame, det.box);
    outcome.detections.push_back(det);
  }
  outcome.cpu_joules = models.cpu_model.joules(cost);
  return outcome;
}

/// Assemble the §IV-B assessment sample representation from an outcome,
/// moving (not copying) detections and color features.
std::vector<reid::ViewDetection> to_view_detections(int camera, FrameOutcome&& outcome) {
  std::vector<reid::ViewDetection> views;
  views.reserve(outcome.detections.size());
  for (std::size_t i = 0; i < outcome.detections.size(); ++i) {
    reid::ViewDetection vd;
    vd.camera = camera;
    vd.detection = outcome.detections[i];
    vd.color_feature = std::move(outcome.color_features[i]);
    views.push_back(std::move(vd));
  }
  return views;
}

/// Countable (per metrics defaults) ground truth person ids in one view.
std::set<int> countable_ids(const std::vector<video::GroundTruthBox>& truth) {
  const MatchOptions opts;
  std::set<int> ids;
  for (const auto& gt : truth) {
    if (gt.visibility >= opts.min_visibility && gt.in_image_fraction >= opts.min_in_image) {
      ids.insert(gt.person_id);
    }
  }
  return ids;
}

net::DetectionMetadataMsg make_metadata_msg(int camera, int frame_index,
                                            detect::AlgorithmId algorithm,
                                            const FrameOutcome& outcome) {
  net::DetectionMetadataMsg msg;
  msg.camera_id = camera;
  msg.frame_index = frame_index;
  msg.algorithm = static_cast<std::uint8_t>(algorithm);
  msg.objects.reserve(outcome.detections.size());
  for (std::size_t i = 0; i < outcome.detections.size(); ++i) {
    const detect::Detection& det = outcome.detections[i];
    net::ObjectMetadata obj;
    obj.x = static_cast<std::uint16_t>(std::clamp(det.box.x, 0.0, 65535.0));
    obj.y = static_cast<std::uint16_t>(std::clamp(det.box.y, 0.0, 65535.0));
    obj.w = static_cast<std::uint16_t>(std::clamp(det.box.w, 0.0, 65535.0));
    obj.h = static_cast<std::uint16_t>(std::clamp(det.box.h, 0.0, 65535.0));
    obj.probability = static_cast<float>(det.probability);
    obj.color_feature = outcome.color_features[i];
    msg.objects.push_back(std::move(obj));
  }
  return msg;
}

/// One detector run of a sweep slot.
struct SlotRun {
  detect::AlgorithmId algorithm = detect::AlgorithmId::Hog;
  double threshold = 0.0;
};

/// A slot of a sweep step: one camera's view and the runs made over its
/// shared cache, in order. A slot without runs is left unplanned.
struct SweepSlot {
  int camera = 0;
  std::vector<SlotRun> runs;
};

/// Human accounting of one operation frame, shared by both runners: the
/// countable persons present in any view, and those matched by detections
/// that reached the controller.
class HumanTally {
 public:
  explicit HumanTally(const video::MultiViewFrame& frame) : frame_(frame) {
    for (const auto& truth : frame.truth) {
      for (int id : countable_ids(truth)) present_.insert(id);
    }
  }

  void match(int camera, const std::vector<detect::Detection>& detections) {
    const MatchResult match =
        match_detections(detections, frame_.truth[static_cast<std::size_t>(camera)]);
    for (int id : match.matched_person_ids) detected_.insert(id);
  }

  /// Fold the frame into the result. Only persons actually present count (a
  /// matched ignore-region person cannot occur since matching skips them).
  void close(SimulationResult& result) const {
    result.humans_present += static_cast<int>(present_.size());
    for (int id : detected_) {
      if (present_.count(id) > 0) ++result.humans_detected;
    }
  }

 private:
  const video::MultiViewFrame& frame_;
  std::set<int> present_;
  std::set<int> detected_;
};

/// What both runners share: the scoped execution knobs, the scene, the
/// result with its telemetry, the energy book (every joule and every camera
/// battery), and the one camera-frame step — sweep, debit, human tally —
/// every frame goes through.
class FrameRunner {
 protected:
  /// `Config` is EecsSimulationConfig or FixedComboConfig (same field names).
  template <typename Config>
  FrameRunner(const DetectorBank& detectors, const Config& config)
      : scoped_threads_(config.threads),
        scoped_simd_(config.simd),
        detector_of_(detectors),
        models_(config.models),
        // Resolved once per run (config knob, EECS_CONTEXT_GATE override). The
        // loop drives the recovery cadence by rounds_completed, which the
        // checkpoint restores, so gating resumes bit-exactly.
        gate_opts_(detect::resolve_context_gate(config.context_gate)),
        sim_(video::dataset_by_id(config.dataset), config.seed),
        stride_(sim_.environment().ground_truth_stride * config.gt_frame_step),
        num_cameras_(static_cast<int>(sim_.cameras().size())),
        st_(obs::current().metrics()),
        ledger_(obs::current().ledger()),
        cpu_gauges_(static_cast<std::size_t>(num_cameras_), nullptr),
        residual_gauges_(static_cast<std::size_t>(num_cameras_), nullptr) {
    // Dispatch mode is a build/run-environment fact, not a run result:
    // WallClock so determinism snapshots (which diff SIMD-on vs SIMD-off
    // runs) skip it.
    obs::current()
        .metrics()
        .gauge("simd.dispatch.native", obs::Determinism::WallClock)
        .set(simd::enabled() && simd::kNativeBackend ? 1.0 : 0.0);
    // The energy book: every joule debited is attributed to a (camera,
    // round, stage, algorithm, cause) key and drained from the camera's
    // battery, which starts full; finish() reads the result's joules and
    // residuals from it (see obs/ledger.hpp).
    ledger_.begin_run(std::vector<double>(static_cast<std::size_t>(num_cameras_),
                                          config.battery_joules));
  }

  video::MultiViewFrame next_frame() {
    const obs::ScopedSpan span("stage.render", "stage", st_.render_s, sim_.frame_index());
    return sim_.next_frame();
  }

  /// The sweep step: plan every slot's tiles (the context gate prunes them
  /// when it engages at `round_phase`), fan `process_camera_frame` out one
  /// task per slot — a slot's runs share one FramePrecompute, which builds
  /// its resizes and substrates on demand inside that task, so several
  /// algorithms on one camera compute common substrates once — then fold the
  /// window accounting serially in slot order and trace the batch. Outcomes
  /// are indexed [slot][run].
  std::vector<std::vector<FrameOutcome>> sweep(const video::MultiViewFrame& frame,
                                               const std::vector<SweepSlot>& slots,
                                               std::uint64_t round_phase, bool assessment) {
    std::vector<std::vector<FrameOutcome>> outcomes;
    {
      const obs::ScopedSpan span("stage.detect", "stage", st_.detect_s, frame.index);
      detect::SweepScheduler batch(slots.size(), gate_opts_, round_phase);
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const auto c = static_cast<std::size_t>(slots[i].camera);
        for (const SlotRun& run : slots[i].runs) {
          batch.plan(i, frame.views[c], detector_of_(run.algorithm), &sim_.cameras()[c]);
        }
      }
      outcomes = common::parallel_map<std::vector<FrameOutcome>>(slots.size(), [&](std::size_t i) {
        std::vector<FrameOutcome> out;
        if (slots[i].runs.empty()) return out;
        detect::FramePrecompute& pre = batch.at(i);
        out.reserve(slots[i].runs.size());
        for (const SlotRun& run : slots[i].runs) {
          out.push_back(
              process_camera_frame(detector_of_(run.algorithm), run.threshold, pre, models_));
        }
        return out;
      });
    }
    double cameras = 0.0;
    for (const auto& slot_outcomes : outcomes) {
      cameras += slot_outcomes.empty() ? 0.0 : 1.0;
      for (const FrameOutcome& outcome : slot_outcomes) {
        result_.windows_evaluated += outcome.windows_evaluated;
        result_.windows_pruned += outcome.windows_pruned;
        st_.windows_evaluated.inc(outcome.windows_evaluated);
        st_.windows_pruned.inc(outcome.windows_pruned);
      }
    }
    trace_instant("detect.batch", "detect", frame.index,
                  {{"cameras", cameras},
                   {"assessment", assessment ? 1.0 : 0.0},
                   {"windows_evaluated", static_cast<double>(result_.windows_evaluated)},
                   {"windows_pruned", static_cast<double>(result_.windows_pruned)}});
    return outcomes;
  }

  /// The camera debit: CPU joules into the book and the camera's CPU gauge,
  /// then `drain_joules` (the CPU plus the step's radio charges) out of the
  /// camera's battery and into the debit histogram.
  void debit(int camera, obs::EnergyStage stage, int algorithm, obs::EnergyCause cause,
             double cpu_joules, double drain_joules) {
    ledger_.debit_cpu(camera, stage, algorithm, cause, cpu_joules);
    if (obs::Gauge* gauge = cpu_gauges_[static_cast<std::size_t>(camera)]) gauge->add(cpu_joules);
    ledger_.drain(camera, drain_joules);
    publish_residual(camera);
    st_.debit_joules.observe(drain_joules);
  }

  /// Copy the camera's residual from the book into its gauge, if bound.
  void publish_residual(int camera) {
    if (obs::Gauge* gauge = residual_gauges_[static_cast<std::size_t>(camera)]) {
      gauge->set(ledger_.residual(camera));
    }
  }

  /// Debit one processed operation frame: the detect CPU, and as one radio
  /// charge the uplink — the metadata message's `tx_joules` plus the JPEG
  /// crops at `joules_per_byte`. The drain sums (cpu + tx) + crop.
  void debit_frame(int camera, detect::AlgorithmId algorithm, const FrameOutcome& outcome,
                   double tx_joules, int frame_index) {
    const double crop_joules =
        models_.radio_model.joules_per_byte * static_cast<double>(outcome.comm_bytes);
    const double drain = outcome.cpu_joules + tx_joules + crop_joules;
    const int alg = static_cast<int>(algorithm);
    debit(camera, obs::EnergyStage::Operation, alg, obs::EnergyCause::Detect, outcome.cpu_joules,
          drain);
    ledger_.debit_radio(camera, obs::EnergyStage::Operation, alg, obs::EnergyCause::Tx,
                        tx_joules + crop_joules);
    trace_instant("battery.debit", "energy", frame_index,
                  {{"camera", static_cast<double>(camera)},
                   {"joules", drain},
                   {"residual", ledger_.residual(camera)}});
  }

  /// Close the run: publish this run's fault counters, report them plus
  /// `carried` (the counts a resumed run's snapshot brought along), and read
  /// the joules and battery residuals from the book.
  SimulationResult finish(const FaultCounters& carried = {}) {
    st_.finalize(faults_, result_);
    result_.faults += carried;
    result_.cpu_joules = ledger_.cpu_total();
    result_.radio_joules = ledger_.radio_total();
    result_.battery_residual = ledger_.residuals();
    return std::move(result_);
  }

  const common::ScopedThreads scoped_threads_;
  const simd::ScopedSimd scoped_simd_;
  const DetectorLookup detector_of_;
  const OfflineOptions& models_;
  const detect::ContextGateOptions gate_opts_;
  video::SceneSimulator sim_;
  const int stride_;
  const int num_cameras_;
  SimulationResult result_;
  FaultCounters faults_;  ///< This run's counts; published by finish().
  SimTelemetry st_;
  obs::EnergyLedger& ledger_;
  /// Per-camera CPU joules, accumulated at the serial debit points, and
  /// battery residuals, set after every drain; null entries (the fixed combo)
  /// skip the gauge.
  std::vector<obs::Gauge*> cpu_gauges_;
  std::vector<obs::Gauge*> residual_gauges_;
};

/// The closed EECS loop (§IV-B, §VI-E): registration, then recalibration
/// rounds of assessment window → round close (watchdog, ladder, selection)
/// → operation window → observability close (anomaly detector, flight
/// recorder) → round boundary (checkpoint, simulated-crash stop). A resumed
/// run restores the loop state from a snapshot instead of registering.
class RoundEngine : FrameRunner {
 public:
  RoundEngine(const DetectorBank& detectors, const OfflineKnowledge& knowledge,
              const EecsSimulationConfig& config);

  SimulationResult run();

 private:
  // Network: node 0 is the controller; nodes 1..M the cameras. The network
  // clock is driven with the video frame index (one frame = one clock unit).
  static int node_of(int camera) { return camera + 1; }
  static int camera_of(int node) { return node - 1; }

  EecsController make_controller();
  [[nodiscard]] std::vector<std::optional<SlotRun>> make_fallback() const;

  // ---- Phases.
  void register_cameras();
  bool run_round();
  void begin_round();
  void assessment_frame(const video::MultiViewFrame& frame, int slot);
  void close_assessment();
  void step_ladder();
  void operation_frame();
  void record_round();
  bool end_round();

  // ---- Controller <-> camera protocol.
  void mark_heard(int camera, double time);
  [[nodiscard]] std::set<int> eligible_set() const;
  void handle_controller_delivery(const net::Network::Delivery& d);
  void handle_camera_delivery(int camera, const net::Network::Delivery& d);
  void pump_network(double until);
  void send_heartbeat(int c, obs::EnergyStage stage);
  void push_assignments(const std::vector<CameraAssignment>& assignments);
  EecsController::Selection select(bool midround, double span_time);
  void retry_assignments();
  void check_liveness();
  [[nodiscard]] bool camera_down(int c) const;

  // ---- Checkpoint capture and resume.
  [[nodiscard]] runtime::SimulationCheckpoint capture_checkpoint() const;
  void resume();

  const OfflineKnowledge& knowledge_;
  const EecsSimulationConfig& config_;
  net::Network network_;
  std::vector<CameraNode> cameras_;
  obs::AnomalyDetector anomaly_detector_;
  const bool flight_enabled_;
  obs::FlightRecorder flight_;
  std::array<obs::Counter*, obs::kNumAnomalyKinds> anomaly_counters_{};
  EecsController controller_;
  // Controller-side protocol state (runtime layer).
  runtime::LivenessTracker liveness_;
  runtime::AssignmentRetryQueue retry_queue_;
  runtime::RoundWatchdog watchdog_;
  runtime::DegradationLadder ladder_;
  /// Camera-flash fallback for the ladder's CheapAlgorithm/SkipFrames rungs:
  /// the cheapest allowed in-budget profile of the camera's own feed (the
  /// profile data ships with the camera firmware, so no wire traffic is
  /// needed to degrade). Filled only when the ladder can engage.
  std::vector<std::optional<SlotRun>> fallback_;
  std::set<int> controller_active_;
  std::uint32_t next_sequence_ = 0;
  long rounds_completed_ = 0;
  AssessmentData assessment_;
  /// Assessment samples in flight: (camera, frame, algorithm) -> (window
  /// slot, full-fidelity detections). The wire carries the §V-A-sized
  /// payload for loss accounting; the simulator hands the lossless sample to
  /// the controller when (and only when) that payload is actually delivered.
  struct InFlightSample {
    int slot = 0;
    std::vector<reid::ViewDetection> detections;
  };
  std::map<std::tuple<int, int, int>, InFlightSample> in_flight_;
  /// Fault counts of the run segments before the snapshot this run resumed
  /// from (zero for a fresh run).
  FaultCounters resumed_faults_{};

  /// Per-round state: message and energy bases taken at the top of the round
  /// (so the round close sees this round's deltas), the watchdog's misses,
  /// whether the ladder descended, and the round's selection.
  struct Round {
    long sent_base = 0;
    long lost_base = 0;
    double cpu_base = 0.0;
    double radio_base = 0.0;
    std::vector<double> camera_base;
    std::set<int> missed;
    bool rung_descended = false;
    EecsController::Selection selection;
  };
  Round round_;
};

RoundEngine::RoundEngine(const DetectorBank& detectors, const OfflineKnowledge& knowledge,
                         const EecsSimulationConfig& config)
    : FrameRunner(detectors, config),
      knowledge_(knowledge),
      config_(config),
      network_(config.models.radio_model, config.seed ^ 0xabcd),
      cameras_(static_cast<std::size_t>(num_cameras_)),
      anomaly_detector_(config.runtime.anomaly, num_cameras_),
      flight_enabled_(obs::kEnabled && !config.runtime.flight_recorder_path.empty()),
      flight_(flight_enabled_
                  ? static_cast<std::size_t>(std::max(config.runtime.flight_recorder_rounds, 1))
                  : 0),
      controller_(make_controller()),
      liveness_(num_cameras_, config.protocol.liveness_timeout_gt_frames * stride_),
      retry_queue_(runtime::RetryPolicy{.max_retries = config.protocol.max_assignment_retries,
                                        .jitter_fraction = config.protocol.retry_jitter_fraction,
                                        .jitter_seed = config.seed}),
      watchdog_({config.runtime.round_deadline_gt_frames, config.runtime.deadline_strikes_to_fail},
                num_cameras_),
      ladder_(config.runtime.degradation, num_cameras_),
      fallback_(make_fallback()) {
  network_.set_fault_plan(config.faults);
  (void)network_.add_node(config.downlink);
  for (int c = 0; c < num_cameras_; ++c) (void)network_.add_node(config.uplink);
  // Full validation now that the node count is known (set_fault_plan could
  // only do the node-count-free checks).
  config.faults.validate(network_.node_count());
  if constexpr (obs::kEnabled) {
    obs::MetricsRegistry& metrics = obs::current().metrics();
    for (int k = 0; k < obs::kNumAnomalyKinds; ++k) {
      anomaly_counters_[static_cast<std::size_t>(k)] = &metrics.counter(
          std::string("anomaly.") + obs::to_string(static_cast<obs::Anomaly::Kind>(k)));
    }
    // Per-camera energy gauges: battery residual set from the book on every
    // drain, CPU joules accumulated at the serial debit points. Registered
    // once here so the per-frame paths never format metric names.
    for (int c = 0; c < num_cameras_; ++c) {
      const std::string cam = "cam" + std::to_string(c);
      residual_gauges_[static_cast<std::size_t>(c)] =
          &metrics.gauge("energy.battery.residual." + cam);
      publish_residual(c);
      cpu_gauges_[static_cast<std::size_t>(c)] = &metrics.gauge("energy.cpu_joules." + cam);
    }
  }
}

EecsController RoundEngine::make_controller() {
  reid::ReIdentifier reidentifier = make_reidentifier(sim_);
  {
    const obs::ScopedSpan span("stage.features", "stage", st_.features_s);
    reidentifier.set_color_gate(fit_color_gate(config_.dataset, config_.seed + 17));
  }
  return EecsController(knowledge_, std::move(reidentifier), config_.controller);
}

std::vector<std::optional<SlotRun>> RoundEngine::make_fallback() const {
  std::vector<std::optional<SlotRun>> fallback(static_cast<std::size_t>(num_cameras_));
  if (!ladder_.enabled()) return fallback;
  const std::vector<detect::AlgorithmId>& allowed = config_.controller.algorithms;
  for (int c = 0; c < num_cameras_; ++c) {
    const TrainingItemProfile* item = find_profile(knowledge_, config_.dataset, c);
    if (item == nullptr) continue;
    const AlgorithmProfile* cheapest = nullptr;
    for (const auto& profile : item->algorithms) {
      if (std::find(allowed.begin(), allowed.end(), profile.id) == allowed.end() ||
          profile.total_joules_per_frame() > config_.budget_per_frame) {
        continue;
      }
      if (cheapest == nullptr ||
          profile.total_joules_per_frame() < cheapest->total_joules_per_frame()) {
        cheapest = &profile;
      }
    }
    if (cheapest != nullptr) {
      fallback[static_cast<std::size_t>(c)] = SlotRun{cheapest->id, cheapest->threshold};
    }
  }
  return fallback;
}

SimulationResult RoundEngine::run() {
  if (config_.runtime.resume_from.empty()) {
    register_cameras();
  } else {
    resume();
  }
  bool stopped_early = false;
  while (sim_.frame_index() + stride_ * config_.assessment_gt_frames < config_.end_frame) {
    if (!run_round()) {
      stopped_early = true;
      break;
    }
  }
  if (stopped_early) {
    trace_instant("runtime.stop", "runtime", sim_.frame_index(),
                  {{"rounds_completed", static_cast<double>(rounds_completed_)}});
  }
  // Assignments still awaiting an ack close the accounting identity:
  // pushed == acked + abandoned + dropped + replaced + pending_at_exit.
  faults_.assignments_pending_at_exit += static_cast<long>(retry_queue_.size());
  // Receiver-side drops count as lost protocol messages, exactly like the
  // legacy `faults.messages_lost += rx_dropped` accounting. On a resumed run
  // the restored network state carries the full rx_dropped tally, so this
  // single end-of-run increment never double counts (checkpoint counter
  // snapshots exclude it by construction).
  faults_.messages_lost += static_cast<long>(network_.rx_dropped());
  return finish(resumed_faults_);
}

// §IV-B.1: feature upload + registration. Uses early test-segment frames.
// The upload is retried immediately on loss (the camera sees the missing
// link-layer ack); a camera whose upload never arrives stays unregistered
// and is simply never selected.
void RoundEngine::register_cameras() {
  sim_.skip(config_.start_frame);
  std::vector<std::vector<imaging::Image>> reg_frames(static_cast<std::size_t>(num_cameras_));
  for (int f = 0; f < config_.upload_feature_frames; ++f) {
    const video::MultiViewFrame frame = next_frame();
    for (int c = 0; c < num_cameras_; ++c) {
      reg_frames[static_cast<std::size_t>(c)].push_back(frame.views[static_cast<std::size_t>(c)]);
    }
    sim_.skip(stride_ - 1);
  }
  // Feature extraction fans out per camera (const extractor, disjoint
  // outputs); the uploads below stay in camera order so the network's
  // RNG/event sequence matches the serial path exactly.
  struct Registration {
    net::FeatureUploadMsg msg;
    double cpu_joules = 0.0;
  };
  std::vector<Registration> registrations;
  {
    const obs::ScopedSpan span("stage.features", "stage", st_.features_s, sim_.frame_index());
    const features::FrameFeatureExtractor& extractor = knowledge_.extractor();
    registrations = common::parallel_map<Registration>(
        static_cast<std::size_t>(num_cameras_), [&](std::size_t c) {
          energy::CostCounter cost;
          const auto& frames = reg_frames[c];
          Registration reg;
          reg.msg.camera_id = static_cast<int>(c);
          reg.msg.feature_dim = extractor.dimension();
          reg.msg.energy_budget = config_.budget_per_frame;
          reg.msg.features.reserve(frames.size() * static_cast<std::size_t>(reg.msg.feature_dim));
          for (const imaging::Image& frame : frames) {
            const auto f = extractor.extract(frame, &cost);
            for (int d = 0; d < reg.msg.feature_dim; ++d) {
              reg.msg.features.push_back(f[static_cast<std::size_t>(d)]);
            }
          }
          reg.cpu_joules = models_.cpu_model.joules(cost);
          return reg;
        });
  }
  const obs::ScopedSpan span("stage.net", "stage", st_.net_s, sim_.frame_index());
  for (int c = 0; c < num_cameras_; ++c) {
    const Registration& reg = registrations[static_cast<std::size_t>(c)];
    const std::vector<std::uint8_t> payload = encode(reg.msg);
    double tx_joules = 0.0;
    net::TxResult tx;
    int attempts = 0;
    do {
      ++attempts;
      // First attempt is ordinary tx; every further attempt is retry
      // energy, attributed as such and debited per attempt.
      const obs::EnergyCause cause = attempts == 1 ? obs::EnergyCause::Tx : obs::EnergyCause::Retry;
      ++faults_.messages_sent;
      tx = network_.send(node_of(c), 0, payload, net::TxClass::Data, cause);
      tx_joules += tx.tx_joules;
      ledger_.debit_radio(c, obs::EnergyStage::Registration, -1, cause, tx.tx_joules);
      if (!tx.delivered) ++faults_.messages_lost;
    } while (!tx.delivered && attempts <= config_.protocol.registration_retries &&
             !network_.node_down(node_of(c)));
    if (!tx.delivered) ++faults_.registrations_lost;
    debit(c, obs::EnergyStage::Registration, -1, obs::EnergyCause::Features, reg.cpu_joules,
          reg.cpu_joules + tx_joules);
  }
}

/// One recalibration round. Returns false once a simulated crash stops the
/// run at the round boundary.
bool RoundEngine::run_round() {
  begin_round();
  // --- Assessment window: every camera runs every affordable algorithm on
  // the next GT frames. (Bookkeeping cost only; the paper's Fig. 5 energy
  // covers the operation phase — see EXPERIMENTS.md.) Each sample travels
  // as a control message: a lost one leaves a hole and the controller
  // estimates from the partial assessment data it actually received.
  for (int f = 0; f < config_.assessment_gt_frames; ++f) {
    pump_network(sim_.frame_index() + 0.5);
    assessment_frame(next_frame(), f);
    sim_.skip(stride_ - 1);
    if (sim_.frame_index() >= config_.end_frame) break;
  }
  // Collect the window's remaining uploads before selecting (everything
  // sent by frame t is delivered well before t + stride).
  pump_network(sim_.frame_index());
  close_assessment();
  // --- Operation window.
  for (int f = 0; f < config_.operation_gt_frames; ++f) {
    if (sim_.frame_index() >= config_.end_frame) break;
    operation_frame();
  }
  record_round();
  return !end_round();
}

void RoundEngine::begin_round() {
  assessment_.clear();
  in_flight_.clear();
  round_ = Round{};
  // Per-round message tallies for fault-storm detection, plus the book's
  // round context and energy bases, so the flight recorder and the anomaly
  // detector see this round's deltas at close.
  round_.sent_base = faults_.messages_sent;
  round_.lost_base = faults_.messages_lost;
  ledger_.set_round(rounds_completed_);
  round_.cpu_base = ledger_.cpu_total();
  round_.radio_base = ledger_.radio_total();
  round_.camera_base.resize(static_cast<std::size_t>(num_cameras_));
  for (int c = 0; c < num_cameras_; ++c) {
    round_.camera_base[static_cast<std::size_t>(c)] = ledger_.camera_joules(c);
  }
  // The round deadline: cameras owing assessment metadata must land it
  // before `deadline_gt_frames` ground-truth frames elapse.
  if (watchdog_.enabled()) {
    std::set<int> expected;
    for (int c : eligible_set()) {
      if (controller_.best_entry(c) != nullptr) expected.insert(c);
    }
    watchdog_.arm(sim_.frame_index(), stride_, expected);
  }
}

void RoundEngine::assessment_frame(const video::MultiViewFrame& frame, int slot) {
  // Gating depends only on state fixed before any of this frame's
  // transmissions (node_down is clock-driven, batteries are not drained
  // here), so the slots are built up front: one per camera, running each
  // affordable algorithm over one shared cache.
  std::vector<SweepSlot> slots(static_cast<std::size_t>(num_cameras_));
  std::vector<char> camera_up(static_cast<std::size_t>(num_cameras_), 0);
  for (int c = 0; c < num_cameras_; ++c) {
    slots[static_cast<std::size_t>(c)].camera = c;
    if (camera_down(c)) continue;
    const runtime::DegradationRung rung = ladder_.rung(c);
    if (rung == runtime::DegradationRung::Parked) continue;  // Radio dark.
    camera_up[static_cast<std::size_t>(c)] = 1;
    // MetadataOnly and deeper: heartbeats keep liveness, but the camera
    // spends nothing on assessment detection.
    if (rung >= runtime::DegradationRung::MetadataOnly) continue;
    for (detect::AlgorithmId alg : config_.controller.algorithms) {
      const AlgorithmProfile* profile = controller_.entry(c, alg);
      if (profile == nullptr) continue;  // Over budget or not ranked.
      slots[static_cast<std::size_t>(c)].runs.push_back({alg, profile->threshold});
    }
  }
  std::vector<std::vector<FrameOutcome>> outcomes =
      sweep(frame, slots, static_cast<std::uint64_t>(rounds_completed_), /*assessment=*/true);
  // Sequential transmission phase, in the exact serial-path order:
  // heartbeat(c), then one metadata message per assessed algorithm.
  const obs::ScopedSpan span("stage.net", "stage", st_.net_s, frame.index);
  for (int c = 0; c < num_cameras_; ++c) {
    if (!camera_up[static_cast<std::size_t>(c)]) continue;
    send_heartbeat(c, obs::EnergyStage::Assessment);
    const std::vector<SlotRun>& runs = slots[static_cast<std::size_t>(c)].runs;
    for (std::size_t t = 0; t < runs.size(); ++t) {
      FrameOutcome& outcome = outcomes[static_cast<std::size_t>(c)][t];
      const int alg = static_cast<int>(runs[t].algorithm);
      ++faults_.messages_sent;
      const auto tx = network_.send(node_of(c), 0,
                                    encode(make_metadata_msg(c, frame.index, runs[t].algorithm,
                                                             outcome)),
                                    net::TxClass::Control);
      // Assessment metadata rides the control plane (zero joules today);
      // the debit keeps the sample traffic visible in the audit.
      ledger_.debit_radio(c, obs::EnergyStage::Assessment, alg, obs::EnergyCause::Tx,
                          tx.tx_joules);
      if (tx.delivered) {
        in_flight_[{c, frame.index, alg}] = {slot, to_view_detections(c, std::move(outcome))};
      } else {
        ++faults_.messages_lost;
      }
    }
  }
}

// Close the assessment at the watchdog: cameras whose assessment metadata
// never landed inside the deadline take a strike; enough strikes fail them
// out of the selection below and the round closes with the surviving
// coverage. Then step the ladder and select.
void RoundEngine::close_assessment() {
  for (const runtime::RoundWatchdog::Miss& miss : watchdog_.close()) {
    round_.missed.insert(miss.camera);
    ++faults_.deadline_misses;
    trace_instant("deadline.miss", "runtime", sim_.frame_index(),
                  {{"camera", static_cast<double>(miss.camera)},
                   {"strikes", static_cast<double>(miss.strikes)},
                   {"failed", miss.failed ? 1.0 : 0.0}});
  }
  if (ladder_.enabled()) step_ladder();
  round_.selection = select(/*midround=*/false, sim_.frame_index());
}

void RoundEngine::step_ladder() {
  // Fault storm: a large fraction of this round's offered messages were
  // lost (both tallies are deterministic, so the flag is too).
  const auto& policy = config_.runtime.degradation;
  const long round_sent = faults_.messages_sent - round_.sent_base;
  const long round_lost = faults_.messages_lost - round_.lost_base;
  const bool storm = round_sent >= policy.storm_min_messages &&
                     static_cast<double>(round_lost) >=
                         policy.storm_loss_ratio * static_cast<double>(round_sent);
  for (int c = 0; c < num_cameras_; ++c) {
    const double fraction = ledger_.residual(c) / ledger_.capacity(c);
    // The advisory is last round's burn-rate finding for this camera
    // (observed at the previous round close, restored on resume).
    for (const runtime::DegradationLadder::Transition& t :
         ladder_.on_round(c, fraction, round_.missed.count(c) > 0, storm,
                          anomaly_detector_.flagged(c))) {
      if (t.to > t.from) {
        ++faults_.degradation_stepdowns;
        round_.rung_descended = true;
      } else {
        ++faults_.degradation_stepups;
      }
      trace_instant("degradation.step", "runtime", sim_.frame_index(),
                    {{"camera", static_cast<double>(c)},
                     {"from", static_cast<double>(t.from)},
                     {"to", static_cast<double>(t.to)},
                     {"trigger", static_cast<double>(t.trigger)}});
    }
  }
}

void RoundEngine::operation_frame() {
  pump_network(sim_.frame_index() + 0.5);
  retry_assignments();
  check_liveness();
  const video::MultiViewFrame frame = next_frame();
  ++result_.gt_frames_processed;
  HumanTally humans(frame);

  // Gate each camera exactly as the serial loop would (a camera only drains
  // its own battery, so camera c's gate never depends on c' < c), fan the
  // frame processing out, then replay transmissions and energy accounting
  // sequentially in camera order.
  enum class Act : char { Silent, HeartbeatOnly, Process };
  std::vector<Act> acts(static_cast<std::size_t>(num_cameras_), Act::Silent);
  std::vector<SweepSlot> slots;
  for (int c = 0; c < num_cameras_; ++c) {
    const CameraNode& cam = cameras_[static_cast<std::size_t>(c)];
    if (ledger_.empty(c)) {
      // Exhausted: the node is dark — no detection, no transmission.
      if (cam.has_assignment && cam.active) ++faults_.frames_skipped_exhausted;
      continue;
    }
    if (network_.node_down(node_of(c))) continue;
    const runtime::DegradationRung rung = ladder_.rung(c);
    if (rung == runtime::DegradationRung::Parked) {
      // Deepest rung: radio and detector both off until recovery.
      ++faults_.frames_parked;
      continue;
    }
    // The detector/threshold the camera actually runs: its controller
    // assignment, or the camera-local fallback once the ladder has pushed it
    // to CheapAlgorithm or deeper.
    SlotRun run{cam.algorithm, cam.threshold};
    const std::optional<SlotRun>& fallback = fallback_[static_cast<std::size_t>(c)];
    if (rung >= runtime::DegradationRung::CheapAlgorithm && fallback) run = *fallback;
    // SkipFrames halves the duty cycle: odd GT slots become heartbeats.
    const bool skip_slot =
        rung == runtime::DegradationRung::SkipFrames && ((frame.index / stride_) & 1) != 0;
    if (cam.has_assignment && cam.active && rung < runtime::DegradationRung::MetadataOnly &&
        !skip_slot) {
      acts[static_cast<std::size_t>(c)] = Act::Process;
      slots.push_back({c, {run}});
    } else {
      acts[static_cast<std::size_t>(c)] = Act::HeartbeatOnly;
    }
  }
  const std::vector<std::vector<FrameOutcome>> outcomes =
      sweep(frame, slots, static_cast<std::uint64_t>(rounds_completed_), /*assessment=*/false);

  const obs::ScopedSpan span("stage.net", "stage", st_.net_s, frame.index);
  std::size_t next = 0;
  for (int c = 0; c < num_cameras_; ++c) {
    if (acts[static_cast<std::size_t>(c)] == Act::Silent) continue;
    send_heartbeat(c, obs::EnergyStage::Operation);
    if (acts[static_cast<std::size_t>(c)] != Act::Process) continue;
    const detect::AlgorithmId algorithm = slots[next].runs.front().algorithm;
    const FrameOutcome& outcome = outcomes[next++].front();
    ++faults_.messages_sent;
    const auto tx =
        network_.send(node_of(c), 0, encode(make_metadata_msg(c, frame.index, algorithm, outcome)));
    debit_frame(c, algorithm, outcome, tx.tx_joules, frame.index);
    if (tx.delivered) {
      humans.match(c, outcome.detections);
    } else {
      // The controller never sees these detections: they don't count.
      ++faults_.messages_lost;
    }
  }
  humans.close(result_);
  sim_.skip(stride_ - 1);
}

// Round close, observability: fold the round into the anomaly detector
// (whose burn-rate flags advise next round's ladder pass, in every build),
// then count and trace its findings, record the round in the flight recorder
// and dump the black box if the round tripped a watchdog strike or a ladder
// descent.
void RoundEngine::record_round() {
  obs::RoundObservation ob;
  ob.round = rounds_completed_;
  ob.messages_sent = static_cast<std::uint64_t>(faults_.messages_sent - round_.sent_base);
  ob.messages_lost = static_cast<std::uint64_t>(faults_.messages_lost - round_.lost_base);
  ob.deadline_misses = static_cast<std::uint32_t>(round_.missed.size());
  ob.camera_joules.resize(static_cast<std::size_t>(num_cameras_));
  for (int c = 0; c < num_cameras_; ++c) {
    ob.camera_joules[static_cast<std::size_t>(c)] =
        ledger_.camera_joules(c) - round_.camera_base[static_cast<std::size_t>(c)];
  }
  static constexpr const char* kAnomalyEvent[obs::kNumAnomalyKinds] = {
      "anomaly.burn_rate", "anomaly.loss_rate", "anomaly.latency"};
  int round_anomalies = 0;
  for (const obs::Anomaly& a : anomaly_detector_.observe(ob)) {
    ++round_anomalies;
    if constexpr (obs::kEnabled) anomaly_counters_[static_cast<std::size_t>(a.kind)]->inc();
    trace_instant(kAnomalyEvent[static_cast<int>(a.kind)], "anomaly", sim_.frame_index(),
                  {{"camera", static_cast<double>(a.camera)},
                   {"round", static_cast<double>(a.round)},
                   {"value", a.value},
                   {"threshold", a.threshold}});
  }
  if (!flight_enabled_) return;
  obs::FlightRound fr;
  fr.round = rounds_completed_;
  fr.sim_time_s = network_.now();
  fr.selected = round_.selection.stats.cameras_active;
  fr.assignments = static_cast<std::int32_t>(round_.selection.assignments.size());
  fr.pending = static_cast<std::int32_t>(retry_queue_.size());
  fr.deadline_misses = static_cast<std::int32_t>(round_.missed.size());
  for (int c = 0; c < num_cameras_; ++c) fr.watchdog_strikes += watchdog_.strikes(c);
  fr.messages_sent = ob.messages_sent;
  fr.messages_lost = ob.messages_lost;
  fr.cpu_joules = ledger_.cpu_total() - round_.cpu_base;
  fr.radio_joules = ledger_.radio_total() - round_.radio_base;
  fr.anomalies = round_anomalies;
  fr.rungs.reserve(static_cast<std::size_t>(num_cameras_));
  for (int c = 0; c < num_cameras_; ++c) {
    fr.rungs.push_back(static_cast<std::int8_t>(ladder_.rung(c)));
  }
  fr.residual_j = ledger_.residuals();
  flight_.record(fr);
  if (!round_.missed.empty()) {
    (void)flight_.dump(config_.runtime.flight_recorder_path, "watchdog_strike");
  } else if (round_.rung_descended) {
    (void)flight_.dump(config_.runtime.flight_recorder_path, "ladder_descent");
  }
}

// Round boundary: snapshot every K completed rounds, then honour a
// simulated-crash stop. Nothing runs between here and the top of the next
// round, so a resumed run re-enters the loop at exactly this program point.
// Returns true when the run stops here.
bool RoundEngine::end_round() {
  ++rounds_completed_;
  const RuntimeOptions& rt = config_.runtime;
  if (rt.checkpoint_every_rounds > 0 && rounds_completed_ % rt.checkpoint_every_rounds == 0 &&
      !rt.checkpoint_path.empty()) {
    capture_checkpoint().save(rt.checkpoint_path);
    trace_instant("runtime.checkpoint", "runtime", sim_.frame_index(),
                  {{"rounds_completed", static_cast<double>(rounds_completed_)}});
    if (flight_enabled_) (void)flight_.dump(rt.flight_recorder_path, "checkpoint");
  }
  if (rt.stop_after_rounds > 0 && rounds_completed_ >= rt.stop_after_rounds) {
    if (flight_enabled_) (void)flight_.dump(rt.flight_recorder_path, "crash");
    return true;
  }
  return false;
}

void RoundEngine::mark_heard(int camera, double time) {
  if (camera < 0 || camera >= num_cameras_) return;
  if (liveness_.mark_heard(camera, time)) {
    ++faults_.cameras_recovered;
    trace_instant("camera.recovered", "liveness", time, {{"camera", static_cast<double>(camera)}});
  }
}

// Selection eligibility: alive cameras minus those failed by the round
// watchdog and those degraded past useful detection. With the watchdog and
// ladder disabled (the defaults) this is exactly the legacy alive set.
std::set<int> RoundEngine::eligible_set() const {
  std::set<int> eligible = liveness_.alive_set();
  for (int camera : watchdog_.failed_set()) eligible.erase(camera);
  if (ladder_.enabled()) {
    for (int c = 0; c < num_cameras_; ++c) {
      if (ladder_.rung(c) >= runtime::DegradationRung::MetadataOnly) eligible.erase(c);
    }
  }
  return eligible;
}

void RoundEngine::handle_controller_delivery(const net::Network::Delivery& d) {
  switch (net::peek_type(d.payload)) {
    case net::MessageType::FeatureUpload: {
      const auto msg = net::decode_feature_upload(d.payload);
      if (msg.camera_id < 0 || msg.camera_id >= num_cameras_ || msg.feature_dim <= 0 ||
          msg.features.empty()) {
        return;
      }
      const int rows = static_cast<int>(msg.features.size()) / msg.feature_dim;
      linalg::Matrix features(rows, msg.feature_dim);
      for (int r = 0; r < rows; ++r) {
        for (int col = 0; col < msg.feature_dim; ++col) {
          features(r, col) = msg.features[static_cast<std::size_t>(r * msg.feature_dim + col)];
        }
      }
      controller_.register_camera(msg.camera_id, features, msg.energy_budget);
      mark_heard(msg.camera_id, d.time);
      return;
    }
    case net::MessageType::DetectionMetadata: {
      const auto msg = net::decode_detection_metadata(d.payload);
      if (msg.camera_id < 0 || msg.camera_id >= num_cameras_) return;
      mark_heard(msg.camera_id, d.time);
      watchdog_.report(msg.camera_id, d.time);
      const auto it =
          in_flight_.find({msg.camera_id, msg.frame_index, static_cast<int>(msg.algorithm)});
      if (it != in_flight_.end()) {
        auto& sample = assessment_[msg.camera_id][static_cast<detect::AlgorithmId>(msg.algorithm)];
        sample.frames.resize(static_cast<std::size_t>(config_.assessment_gt_frames));
        sample.frames[static_cast<std::size_t>(it->second.slot)] =
            std::move(it->second.detections);
        in_flight_.erase(it);
      }
      return;
    }
    case net::MessageType::EnergyReport: {
      const auto msg = net::decode_energy_report(d.payload);
      mark_heard(msg.camera_id, d.time);
      return;
    }
    case net::MessageType::AssignmentAck: {
      const auto msg = net::decode_assignment_ack(d.payload);
      mark_heard(msg.camera_id, d.time);
      switch (retry_queue_.ack(msg.camera_id, msg.sequence)) {
        case runtime::AssignmentRetryQueue::AckOutcome::Acked:
          ++faults_.assignments_acked;
          break;
        case runtime::AssignmentRetryQueue::AckOutcome::Late:
          // The assignment was already closed (acked, abandoned, or
          // dropped): count the straggler, apply nothing.
          ++faults_.acks_late;
          break;
        case runtime::AssignmentRetryQueue::AckOutcome::Stale:
          break;  // Ack for a superseded sequence; the newer push retries on.
      }
      return;
    }
    default:
      return;  // An assignment addressed to the controller is a stray.
  }
}

void RoundEngine::handle_camera_delivery(int camera, const net::Network::Delivery& d) {
  if (camera < 0 || camera >= num_cameras_) return;
  if (ledger_.empty(camera)) return;  // Powered off: cannot receive.
  if (net::peek_type(d.payload) != net::MessageType::AlgorithmAssignment) return;
  const auto msg = net::decode_algorithm_assignment(d.payload);
  CameraNode& cam = cameras_[static_cast<std::size_t>(camera)];
  if (msg.sequence > cam.applied_sequence || !cam.has_assignment) {
    cam.has_assignment = true;
    cam.applied_sequence = msg.sequence;
    cam.active = msg.active != 0;
    cam.algorithm = static_cast<detect::AlgorithmId>(msg.algorithm);
    cam.threshold = msg.threshold;
  }
  // Always ack — also for stale duplicates, so retransmissions stop. The
  // ack rides the link layer (no application radio energy); cause-tagged as
  // heartbeat traffic for the audit counters.
  net::AssignmentAckMsg ack;
  ack.camera_id = camera;
  ack.sequence = msg.sequence;
  ++faults_.messages_sent;
  const auto tx = network_.send(node_of(camera), 0, encode(ack), net::TxClass::Control,
                                obs::EnergyCause::Heartbeat);
  if (!tx.delivered) ++faults_.messages_lost;
}

// Drain the network up to `until` and route deliveries. Malformed payloads
// are rejected by the decoders (DecodeError) without killing the loop.
void RoundEngine::pump_network(double until) {
  const obs::ScopedSpan span("stage.net", "stage", st_.net_s, until);
  for (const auto& d : network_.advance_to(until)) {
    try {
      if (d.to_node == 0) {
        handle_controller_delivery(d);
      } else {
        handle_camera_delivery(camera_of(d.to_node), d);
      }
    } catch (const ByteReader::DecodeError&) {
      ++faults_.decode_errors;
    }
  }
}

void RoundEngine::send_heartbeat(int c, obs::EnergyStage stage) {
  net::EnergyReportMsg msg;
  msg.camera_id = c;
  msg.residual_joules = ledger_.residual(c);
  ++faults_.messages_sent;
  const auto tx = network_.send(node_of(c), 0, encode(msg), net::TxClass::Control,
                                obs::EnergyCause::Heartbeat);
  // Control-class: zero joules today, but the debit records the attempt in
  // the book so heartbeat cost shows up the day the model charges it.
  ledger_.debit_radio(c, stage, -1, obs::EnergyCause::Heartbeat, tx.tx_joules);
  if (!tx.delivered) ++faults_.messages_lost;
}

void RoundEngine::push_assignments(const std::vector<CameraAssignment>& assignments) {
  for (const auto& a : assignments) {
    net::AlgorithmAssignmentMsg msg;
    msg.camera_id = a.camera;
    msg.sequence = ++next_sequence_;
    msg.algorithm = static_cast<std::uint8_t>(a.algorithm);
    msg.threshold = a.threshold;
    msg.active = a.active ? 1 : 0;
    std::vector<std::uint8_t> payload = encode(msg);
    ++faults_.messages_sent;
    const auto tx = network_.send(0, node_of(a.camera), payload);
    if (!tx.delivered) ++faults_.messages_lost;
    trace_instant("camera.assign", "round", network_.now(),
                  {{"camera", static_cast<double>(a.camera)},
                   {"algorithm", static_cast<double>(msg.algorithm)},
                   {"active", a.active ? 1.0 : 0.0}});
    ++faults_.assignments_pushed;
    if (retry_queue_.push(a.camera, std::move(payload), msg.sequence, network_.now(), stride_)) {
      ++faults_.assignments_replaced;
    }
  }
}

// Select over the eligible cameras from this round's assessment data, log
// the round, and push the assignments to the cameras over the network
// (sequence-numbered; acked on delivery, retried with backoff while unacked).
EecsController::Selection RoundEngine::select(bool midround, double span_time) {
  const std::set<int> alive = eligible_set();
  EecsController::Selection selection;
  {
    const obs::ScopedSpan span("stage.controller", "stage", st_.controller_s, span_time);
    selection = controller_.select(assessment_, config_.mode, &alive);
  }
  result_.rounds.push_back({sim_.frame_index(), selection.stats, midround});
  if (midround) ++faults_.midround_reselections;
  trace_instant("round.select", "round", sim_.frame_index(),
                {{"midround", midround ? 1.0 : 0.0},
                 {"cameras_active", static_cast<double>(selection.stats.cameras_active)},
                 {"n_est", selection.stats.n_est},
                 {"p_est", selection.stats.p_est}});
  controller_active_.clear();
  for (const auto& a : selection.assignments) {
    if (a.active) controller_active_.insert(a.camera);
  }
  push_assignments(selection.assignments);
  return selection;
}

void RoundEngine::retry_assignments() {
  const obs::ScopedSpan span("stage.net", "stage", st_.net_s, network_.now());
  retry_queue_.process_due(
      network_.now(), stride_,
      [&](int camera, const runtime::AssignmentRetryQueue::Entry& entry) {
        ++faults_.assignments_retried;
        ++faults_.messages_sent;
        trace_instant("assignment.retry", "protocol", network_.now(),
                      {{"camera", static_cast<double>(camera)},
                       {"attempt", static_cast<double>(entry.attempts + 1)}});
        const auto tx = network_.send(0, node_of(camera), entry.payload, net::TxClass::Data,
                                      obs::EnergyCause::Retry);
        if (!tx.delivered) ++faults_.messages_lost;
      },
      [&](int camera, const runtime::AssignmentRetryQueue::Entry& entry) {
        // Retry budget exhausted: the camera keeps its last-known-good
        // assignment until the next recalibration round reaches it.
        ++faults_.assignments_abandoned;
        trace_instant("assignment.abandoned", "protocol", network_.now(),
                      {{"camera", static_cast<double>(camera)},
                       {"attempts", static_cast<double>(entry.attempts)}});
      });
}

void RoundEngine::check_liveness() {
  bool lost_active_camera = false;
  for (int c : liveness_.sweep(network_.now())) {
    ++faults_.cameras_failed;
    trace_instant("camera.dead", "liveness", network_.now(),
                  {{"camera", static_cast<double>(c)}, {"last_heard", liveness_.last_heard(c)}});
    if (retry_queue_.drop(c)) ++faults_.assignments_dropped;  // Stop retrying into the void.
    if (controller_active_.count(c) > 0) lost_active_camera = true;
  }
  // Mid-round recovery: re-select over the surviving cameras with this
  // round's assessment data and push fresh assignments.
  if (lost_active_camera) (void)select(/*midround=*/true, network_.now());
}

bool RoundEngine::camera_down(int c) const {
  return ledger_.empty(c) || network_.node_down(node_of(c));
}

// A full snapshot of the loop state, taken at a round boundary (assessment
// data and in-flight samples are empty there).
runtime::SimulationCheckpoint RoundEngine::capture_checkpoint() const {
  runtime::SimulationCheckpoint ck;
  ck.num_cameras = num_cameras_;
  ck.config = config_record(config_);
  ck.frame_index = sim_.frame_index();
  ck.rounds_completed = rounds_completed_;
  ck.humans_detected = result_.humans_detected;
  ck.humans_present = result_.humans_present;
  ck.gt_frames_processed = result_.gt_frames_processed;
  ck.windows_evaluated = result_.windows_evaluated;
  ck.windows_pruned = result_.windows_pruned;
  ck.rounds = result_.rounds;
  // A resumed run's own counts start at zero; the snapshot carries the whole
  // run's, so a later resume from it adds back every earlier segment too.
  ck.faults = faults_;
  ck.faults += resumed_faults_;
  ck.cameras = cameras_;
  ck.deadline_strikes = watchdog_.state();
  ck.ladder = ladder_.state();
  ck.registrations = controller_.registrations();
  ck.liveness = liveness_.state();
  ck.controller_active.assign(controller_active_.begin(), controller_active_.end());
  ck.pending.assign(retry_queue_.entries().begin(), retry_queue_.entries().end());
  ck.next_sequence = next_sequence_;
  ck.network = network_.export_state();
  ck.ledger = ledger_.export_state();
  ck.anomaly = anomaly_detector_.export_state();
  return ck;
}

// Resume from a snapshot written by a previous run with an identical
// configuration: the registration phase is skipped and the loop re-enters
// at the round boundary the snapshot was taken at.
void RoundEngine::resume() {
  const runtime::SimulationCheckpoint ck =
      runtime::SimulationCheckpoint::load(config_.runtime.resume_from);
  ck.check_config(num_cameras_, config_record(config_));
  // The scene is a pure function of (environment, seed, #advances):
  // replaying the advances restores its RNG stream exactly.
  sim_.skip(ck.frame_index);
  network_.import_state(ck.network);
  // A matched item indexes this run's knowledge base, which decode cannot see.
  const auto items = static_cast<int>(knowledge_.profiles().size());
  for (const runtime::Registration& reg : ck.registrations) {
    if (reg.matched_item < 0 || reg.matched_item >= items) {
      throw runtime::SnapshotError("resume: registration names an unknown training item");
    }
    controller_.restore_camera(reg);
  }
  cameras_ = ck.cameras;
  watchdog_.restore(ck.deadline_strikes);
  ladder_.restore(ck.ladder);
  liveness_.restore(ck.liveness);
  controller_active_ = std::set<int>(ck.controller_active.begin(), ck.controller_active.end());
  retry_queue_.restore({ck.pending.begin(), ck.pending.end()});
  next_sequence_ = ck.next_sequence;
  result_.humans_detected = ck.humans_detected;
  result_.humans_present = ck.humans_present;
  result_.gt_frames_processed = ck.gt_frames_processed;
  result_.windows_evaluated = ck.windows_evaluated;
  result_.windows_pruned = ck.windows_pruned;
  result_.rounds = ck.rounds;
  resumed_faults_ = ck.faults;
  rounds_completed_ = ck.rounds_completed;
  // Restore the energy book and anomaly windows captured with the snapshot,
  // so the resumed run's joules, residuals and ledger cover the whole run
  // and the detector replays identical findings.
  ledger_.import_state(ck.ledger);
  for (int c = 0; c < num_cameras_; ++c) publish_residual(c);
  anomaly_detector_.import_state(ck.anomaly);
  trace_instant("runtime.resume", "runtime", sim_.frame_index(),
                {{"rounds_completed", static_cast<double>(rounds_completed_)}});
}

/// A fixed (camera, algorithm) combination over the test segment: no
/// network, no rounds — each entry runs every frame until its camera's
/// battery is empty.
class FixedComboRunner : FrameRunner {
 public:
  FixedComboRunner(const DetectorBank& detectors, const OfflineKnowledge& knowledge,
                   const FixedCombo& combo, const FixedComboConfig& config)
      : FrameRunner(detectors, config), config_(config) {
    // One slot per entry, thresholds from the offline profile of the same
    // (dataset, camera) — a camera listed twice keeps two independent
    // caches, matching the per-entry work profile.
    entries_.reserve(combo.active.size());
    for (const auto& [camera, algorithm] : combo.active) {
      EECS_EXPECTS(camera >= 0 && camera < num_cameras_);
      const TrainingItemProfile* item = find_profile(knowledge, config.dataset, camera);
      EECS_EXPECTS(item != nullptr);
      const AlgorithmProfile* profile = item->find(algorithm);
      EECS_EXPECTS(profile != nullptr);
      entries_.push_back({camera, {{algorithm, profile->threshold}}});
    }
  }

  SimulationResult run() {
    sim_.skip(config_.start_frame);
    while (sim_.frame_index() < config_.end_frame) {
      const video::MultiViewFrame frame = next_frame();
      ++result_.gt_frames_processed;
      HumanTally humans(frame);
      // Fan out the entries whose battery holds charge at the top of the
      // frame; the replay below re-checks each battery at its sequence
      // point, so an entry drained dark mid-frame (a camera listed twice)
      // discards its speculative outcome. No rounds: the gate's recovery
      // cadence ticks per GT frame.
      std::vector<SweepSlot> slots = entries_;
      for (SweepSlot& slot : slots) {
        if (ledger_.empty(slot.camera)) slot.runs.clear();
      }
      const std::vector<std::vector<FrameOutcome>> outcomes =
          sweep(frame, slots, static_cast<std::uint64_t>(result_.gt_frames_processed),
                /*assessment=*/false);
      for (std::size_t e = 0; e < entries_.size(); ++e) {
        const int camera = entries_[e].camera;
        if (ledger_.empty(camera)) {
          // Exhausted camera: contributes no detections and no radio energy.
          ++faults_.frames_skipped_exhausted;
          continue;
        }
        // The uplink is priced like the loop's: the encoded metadata
        // message plus the JPEG crops; every upload is delivered.
        const detect::AlgorithmId algorithm = entries_[e].runs.front().algorithm;
        const FrameOutcome& outcome = outcomes[e].front();
        const std::size_t msg_bytes =
            encode(make_metadata_msg(camera, frame.index, algorithm, outcome)).size();
        debit_frame(camera, algorithm, outcome, models_.radio_model.tx_joules(msg_bytes),
                    frame.index);
        humans.match(camera, outcome.detections);
      }
      humans.close(result_);
      sim_.skip(stride_ - 1);
    }
    return finish();
  }

 private:
  const FixedComboConfig& config_;
  std::vector<SweepSlot> entries_;
};

}  // namespace

runtime::ConfigRecord config_record(const EecsSimulationConfig& config) {
  EecsSimulationConfig resolved = config;
  resolved.context_gate = detect::resolve_context_gate(config.context_gate);
  runtime::ConfigRecord record;
  for_each_config_field(resolved, [&](const char* name, const auto& field) {
    record.push_back({name, config_text(field)});
  });
  return record;
}

reid::ColorGate fit_color_gate(int dataset, std::uint64_t seed, int calibration_frames) {
  video::SceneSimulator sim(video::dataset_by_id(dataset), seed);
  std::vector<std::vector<float>> features;
  std::vector<int> labels;
  for (int f = 0; f < calibration_frames; ++f) {
    const video::MultiViewFrame frame = sim.next_frame();
    for (std::size_t cam = 0; cam < frame.views.size(); ++cam) {
      for (const auto& gt : frame.truth[cam]) {
        if (gt.visibility < 0.7 || gt.in_image_fraction < 0.8) continue;
        features.push_back(features::color_feature(frame.views[cam], gt.box));
        // Distinct label per (frame, person): appearance pairs must come from
        // simultaneous views, not the same person at different times.
        labels.push_back(f * 1000 + gt.person_id);
      }
    }
    sim.skip(sim.environment().ground_truth_stride - 1);
  }
  return reid::ColorGate(features, labels);
}

reid::ReIdentifier make_reidentifier(const video::SceneSimulator& sim,
                                     const reid::ReIdParams& params) {
  std::vector<geometry::Homography> image_to_ground;
  image_to_ground.reserve(sim.cameras().size());
  for (const auto& cam : sim.cameras()) {
    image_to_ground.push_back(cam.ground_homography().inverse());
  }
  return reid::ReIdentifier(std::move(image_to_ground), params);
}

SimulationResult run_eecs_simulation(const DetectorBank& detectors,
                                     const OfflineKnowledge& knowledge,
                                     const EecsSimulationConfig& config) {
  EECS_EXPECTS(config.start_frame < config.end_frame);
  return RoundEngine(detectors, knowledge, config).run();
}

SimulationResult run_fixed_combo(const DetectorBank& detectors, const OfflineKnowledge& knowledge,
                                 const FixedCombo& combo, const FixedComboConfig& config) {
  EECS_EXPECTS(!combo.active.empty());
  return FixedComboRunner(detectors, knowledge, combo, config).run();
}

}  // namespace eecs::core
