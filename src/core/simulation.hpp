// Closed-loop EECS simulation (§VI-E, Figs. 5 and 6) plus the fixed
// camera/algorithm combination runner behind Fig. 4: camera nodes render
// frames from the scene simulator, detect with their assigned algorithm,
// upload metadata over the simulated network, and the controller
// periodically re-selects cameras and algorithms from assessment metadata.
// Both runners push every camera frame through one step (sweep, debit, human
// tally), so a fixed combination is priced exactly like a loop frame.
//
// The loop is message-driven and failure-aware: the controller consumes only
// what the network actually delivers, assignments are sequence-numbered with
// ack + bounded retry, silent cameras are declared dead by a liveness tracker
// (triggering mid-round re-selection over the survivors), and an exhausted
// battery stops a camera from detecting and transmitting. With a zero-loss
// link and an empty FaultPlan the results are bit-identical to the original
// fire-and-forget loop.
#pragma once

#include <concepts>
#include <string>
#include <type_traits>

#include "core/controller.hpp"
#include "detect/sweep_scheduler.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "obs/anomaly.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/degradation.hpp"
#include "runtime/loop_state.hpp"

namespace eecs::core {

/// Reliable-delivery and liveness knobs of the controller<->camera protocol.
struct ProtocolOptions {
  /// Resends of an unacked AlgorithmAssignment after the initial attempt.
  int max_assignment_retries = 3;
  /// Immediate resends of a lost §IV-B.1 feature upload (the camera sees the
  /// missing link-layer ack right away during registration).
  int registration_retries = 3;
  /// Ground-truth frames of silence before a camera is presumed dead.
  double liveness_timeout_gt_frames = 2.5;
  /// Deterministic jitter on the assignment retry backoff (see
  /// runtime::RetryPolicy); 0 keeps the exact legacy schedule.
  double retry_jitter_fraction = 0.0;
};

/// Durable-runtime knobs: round deadlines, graceful degradation, and
/// checkpoint/resume. Every default is "off" and leaves the simulation
/// bit-identical to a build without the runtime layer.
struct RuntimeOptions {
  /// Virtual-time budget per recalibration round, in ground-truth frames;
  /// cameras whose assessment metadata misses it take a strike and enough
  /// strikes fail them out of selection (like a heartbeat loss). 0 disables.
  double round_deadline_gt_frames = 0.0;
  int deadline_strikes_to_fail = 2;
  /// Graceful-degradation ladder (disabled by default).
  runtime::DegradationPolicy degradation;
  /// Write a snapshot to `checkpoint_path` every K completed rounds
  /// (captured at the round boundary, before the assessment window). 0
  /// disables checkpointing.
  int checkpoint_every_rounds = 0;
  std::string checkpoint_path;
  /// Resume from a snapshot written by a previous run with an identical
  /// configuration; the registration phase is skipped and the result is
  /// bit-identical to the uninterrupted run. Empty = start fresh.
  std::string resume_from;
  /// Stop (simulated crash) once this many rounds completed; 0 = run to the
  /// end. The partial result covers only the rounds actually run.
  long stop_after_rounds = 0;
  /// Flight recorder: when `flight_recorder_path` is non-empty the loop keeps
  /// a bounded ring of per-round summaries and dumps it there as a JSONL
  /// black box on watchdog strike, ladder descent, or checkpoint write (see
  /// obs/flight.hpp; replay with tools/eecs_flight). Recording itself never
  /// alters simulation results. No-op under EECS_OBS_OFF.
  std::string flight_recorder_path;
  int flight_recorder_rounds = 64;  ///< Ring capacity (rounds retained).
  /// Anomaly detection over per-round telemetry (obs/anomaly.hpp). Findings
  /// are counted and traced; they only feed back into behaviour when
  /// `degradation.anomaly_advisory` is also set.
  obs::AnomalyOptions anomaly;
};

struct EecsSimulationConfig {
  int dataset = 1;
  std::uint64_t seed = 777;
  /// Parallel width for the per-camera fan-out and the row-partitioned
  /// kernels. 0 = global default (EECS_THREADS env, else hardware
  /// concurrency); 1 = the exact serial legacy path. Results are
  /// bit-identical at every setting (see DESIGN.md "Execution model").
  int threads = 0;
  /// SIMD kernel dispatch. -1 = global default (EECS_SIMD env, else on when a
  /// native backend was compiled in); 0 = scalar packs; 1 = auto-native;
  /// 128/256/512 pick a lane width (native when available, else its
  /// bit-identical emulation twin); -128/-256/-512 force the emulation twin.
  /// Results are bit-identical at every setting (see DESIGN.md "SIMD &
  /// portability").
  int simd = -1;
  /// Context-aware scale/region pruning (off by default; overridable with the
  /// EECS_CONTEXT_GATE env var — see detect::resolve_context_gate). When
  /// enabled, each camera's ground-plane homography bounds the feasible
  /// person scales per image row and whole tiles of the sliding-window sweep
  /// are pruned before any channel work; every `recovery_every`-th round runs
  /// ungated as a full-sweep recovery pass. Gate-off runs are bit-identical
  /// to builds without the gate.
  detect::ContextGateOptions context_gate;
  SelectionMode mode = SelectionMode::SubsetDowngrade;
  /// Per-frame energy budget B_j (identical cameras); algorithms that do not
  /// fit are not even assessed (§IV).
  double budget_per_frame = 1e9;
  ControllerParams controller;
  /// Test segment (paper: frames 1001..2950).
  int start_frame = 1000;
  int end_frame = 2950;
  /// Ground-truth frames per assessment window (paper: 100 frames at GT
  /// stride 25 -> 4) and per operation window (500 frames -> 20).
  int assessment_gt_frames = 4;
  int operation_gt_frames = 20;
  /// Process every k-th ground-truth frame (runtime knob; 1 = all).
  int gt_frame_step = 1;
  /// Number of frames whose features form the §IV-B.1 upload.
  int upload_feature_frames = 12;
  OfflineOptions models;  ///< Energy/radio/JPEG models shared with offline.

  /// Battery capacity per camera node.
  double battery_joules = 1.0e5;
  /// Camera -> controller link quality (applied to every camera uplink).
  net::LinkQuality uplink;
  /// Controller -> camera link quality.
  net::LinkQuality downlink;
  /// Fault-injection schedule. Times are video frame indices; camera c is
  /// network node c + 1 (node 0 is the controller).
  net::FaultPlan faults;
  ProtocolOptions protocol;
  RuntimeOptions runtime;
};

/// The loop configuration's field list: calls `fn(name, field)` for every
/// field of EecsSimulationConfig and its nested structs, except the
/// execution-only ones in kExecutionOnlyConfigFields. `Config` is
/// EecsSimulationConfig, const or not. The snapshot's config record is built
/// from this list, so resume refuses a change to any field it names.
template <typename Config, typename Fn>
  requires std::same_as<std::remove_const_t<Config>, EecsSimulationConfig>
void for_each_config_field(Config& c, Fn&& fn) {
  fn("dataset", c.dataset);
  fn("seed", c.seed);
  fn("context_gate.enabled", c.context_gate.enabled);
  fn("context_gate.min_height_ratio", c.context_gate.min_height_ratio);
  fn("context_gate.max_height_ratio", c.context_gate.max_height_ratio);
  fn("context_gate.person_min_m", c.context_gate.person_min_m);
  fn("context_gate.person_max_m", c.context_gate.person_max_m);
  fn("context_gate.band_rows", c.context_gate.band_rows);
  fn("context_gate.recovery_every", c.context_gate.recovery_every);
  fn("mode", c.mode);
  fn("budget_per_frame", c.budget_per_frame);
  fn("controller.gamma_n", c.controller.gamma_n);
  fn("controller.gamma_p", c.controller.gamma_p);
  fn("controller.algorithms", c.controller.algorithms);
  fn("start_frame", c.start_frame);
  fn("end_frame", c.end_frame);
  fn("assessment_gt_frames", c.assessment_gt_frames);
  fn("operation_gt_frames", c.operation_gt_frames);
  fn("gt_frame_step", c.gt_frame_step);
  fn("upload_feature_frames", c.upload_feature_frames);
  fn("models.frames_per_item", c.models.frames_per_item);
  fn("models.feature_frames_per_item", c.models.feature_frames_per_item);
  fn("models.algorithms", c.models.algorithms);
  fn("models.cpu_model.joules_per_pixel_op", c.models.cpu_model.joules_per_pixel_op);
  fn("models.cpu_model.joules_per_feature_op", c.models.cpu_model.joules_per_feature_op);
  fn("models.cpu_model.joules_per_classifier_op", c.models.cpu_model.joules_per_classifier_op);
  fn("models.cpu_model.joules_fixed_per_frame", c.models.cpu_model.joules_fixed_per_frame);
  fn("models.cpu_model.ops_per_second", c.models.cpu_model.ops_per_second);
  fn("models.radio_model.joules_per_byte", c.models.radio_model.joules_per_byte);
  fn("models.radio_model.joules_per_message", c.models.radio_model.joules_per_message);
  fn("models.radio_model.bytes_per_second", c.models.radio_model.bytes_per_second);
  fn("models.jpeg_model.base_bpp", c.models.jpeg_model.base_bpp);
  fn("models.jpeg_model.activity_bpp", c.models.jpeg_model.activity_bpp);
  fn("models.jpeg_model.header_bytes", c.models.jpeg_model.header_bytes);
  fn("models.comparator.subspace_dim", c.models.comparator.subspace_dim);
  fn("models.comparator.distance_scale", c.models.comparator.distance_scale);
  fn("battery_joules", c.battery_joules);
  fn("uplink.bandwidth_bytes_per_s", c.uplink.bandwidth_bytes_per_s);
  fn("uplink.latency_s", c.uplink.latency_s);
  fn("uplink.loss_probability", c.uplink.loss_probability);
  fn("downlink.bandwidth_bytes_per_s", c.downlink.bandwidth_bytes_per_s);
  fn("downlink.latency_s", c.downlink.latency_s);
  fn("downlink.loss_probability", c.downlink.loss_probability);
  fn("faults.uplink_loss", c.faults.uplink_loss);
  fn("faults.downlink_loss", c.faults.downlink_loss);
  fn("faults.loss_windows", c.faults.loss_windows);
  fn("faults.crashes", c.faults.crashes);
  fn("protocol.max_assignment_retries", c.protocol.max_assignment_retries);
  fn("protocol.registration_retries", c.protocol.registration_retries);
  fn("protocol.liveness_timeout_gt_frames", c.protocol.liveness_timeout_gt_frames);
  fn("protocol.retry_jitter_fraction", c.protocol.retry_jitter_fraction);
  fn("runtime.round_deadline_gt_frames", c.runtime.round_deadline_gt_frames);
  fn("runtime.deadline_strikes_to_fail", c.runtime.deadline_strikes_to_fail);
  fn("runtime.degradation.enabled", c.runtime.degradation.enabled);
  fn("runtime.degradation.battery_low", c.runtime.degradation.battery_low);
  fn("runtime.degradation.battery_critical", c.runtime.degradation.battery_critical);
  fn("runtime.degradation.battery_severe", c.runtime.degradation.battery_severe);
  fn("runtime.degradation.battery_park", c.runtime.degradation.battery_park);
  fn("runtime.degradation.storm_loss_ratio", c.runtime.degradation.storm_loss_ratio);
  fn("runtime.degradation.storm_min_messages", c.runtime.degradation.storm_min_messages);
  fn("runtime.degradation.recovery_rounds", c.runtime.degradation.recovery_rounds);
  fn("runtime.degradation.anomaly_advisory", c.runtime.degradation.anomaly_advisory);
  fn("runtime.anomaly.enabled", c.runtime.anomaly.enabled);
  fn("runtime.anomaly.window_rounds", c.runtime.anomaly.window_rounds);
  fn("runtime.anomaly.burn_rate_milli", c.runtime.anomaly.burn_rate_milli);
  fn("runtime.anomaly.loss_rate_milli", c.runtime.anomaly.loss_rate_milli);
  fn("runtime.anomaly.loss_min_messages", c.runtime.anomaly.loss_min_messages);
  fn("runtime.anomaly.latency_miss_rounds", c.runtime.anomaly.latency_miss_rounds);
}

/// The fields for_each_config_field leaves out: results are bit-identical
/// under any setting of them.
inline constexpr const char* kExecutionOnlyConfigFields[] = {
    "threads",
    "simd",
    "runtime.checkpoint_every_rounds",
    "runtime.checkpoint_path",
    "runtime.resume_from",
    "runtime.stop_after_rounds",
    "runtime.flight_recorder_path",
    "runtime.flight_recorder_rounds",
};

/// The snapshot's config record: each for_each_config_field field as text
/// (doubles as %.17g), with the context gate as detect::resolve_context_gate
/// resolves it, since EECS_CONTEXT_GATE changes results too.
[[nodiscard]] runtime::ConfigRecord config_record(const EecsSimulationConfig& config);

using runtime::FaultCounters;
using runtime::RoundLog;

/// Wall-clock seconds per pipeline stage, for bench observability only.
/// Excluded from determinism comparisons: every other SimulationResult field
/// is bit-identical across runs and thread counts, these are not. A view over
/// the obs registry's `stage.*_s` wall-clock gauges (fed by ScopedSpan),
/// assigned once per run from the gauge deltas.
struct StageTimings {
  double render_s = 0.0;      ///< Scene rendering (sim.next_frame and skips).
  double detect_s = 0.0;      ///< Detection + color features (camera fan-out).
  double features_s = 0.0;    ///< §IV-B.1 registration feature extraction.
  double controller_s = 0.0;  ///< Selection / re-selection.
  double net_s = 0.0;         ///< Network pump, sends, protocol bookkeeping.

  [[nodiscard]] double total() const {
    return render_s + detect_s + features_s + controller_s + net_s;
  }
};

struct SimulationResult {
  /// Read, like `battery_residual`, from the run's energy book
  /// (obs::EnergyLedger) when the run finishes.
  double cpu_joules = 0.0;
  double radio_joules = 0.0;
  int humans_detected = 0;  ///< Unique (frame, person) pairs detected.
  int humans_present = 0;   ///< Countable (frame, person) pairs in the scene.
  int gt_frames_processed = 0;
  /// Sliding-window accounting across every operation-phase detect call:
  /// windows actually scored vs. pruned by the context gate. Their sum is
  /// invariant under gating (it always equals the full-sweep window count),
  /// so `windows_evaluated_fraction()` reports the gate's pruning power.
  std::uint64_t windows_evaluated = 0;
  std::uint64_t windows_pruned = 0;
  std::vector<RoundLog> rounds;
  FaultCounters faults;
  std::vector<double> battery_residual;  ///< Per camera, at simulation end.
  StageTimings timings;                  ///< Observability only; see StageTimings.

  [[nodiscard]] double total_joules() const { return cpu_joules + radio_joules; }
  [[nodiscard]] double detection_rate() const {
    return humans_present > 0 ? static_cast<double>(humans_detected) / humans_present : 0.0;
  }
  [[nodiscard]] double windows_evaluated_fraction() const {
    const std::uint64_t total = windows_evaluated + windows_pruned;
    return total > 0 ? static_cast<double>(windows_evaluated) / static_cast<double>(total) : 1.0;
  }
};

/// Fit the controller's appearance gate from annotated training-segment
/// frames (offline calibration, §IV-C).
[[nodiscard]] reid::ColorGate fit_color_gate(int dataset, std::uint64_t seed,
                                             int calibration_frames = 6);

/// Build the re-identifier from the dataset's provided calibration (the
/// analytic ground homographies of the simulator's cameras).
[[nodiscard]] reid::ReIdentifier make_reidentifier(const video::SceneSimulator& sim,
                                                   const reid::ReIdParams& params = {});

/// Run the full adaptive loop.
[[nodiscard]] SimulationResult run_eecs_simulation(const DetectorBank& detectors,
                                                   const OfflineKnowledge& knowledge,
                                                   const EecsSimulationConfig& config);

/// A fixed (camera, algorithm) combination, e.g. Fig. 4's "2HOG+2ACF".
struct FixedCombo {
  std::vector<std::pair<int, detect::AlgorithmId>> active;
};

struct FixedComboConfig {
  int dataset = 1;
  std::uint64_t seed = 777;
  /// Parallel width; see EecsSimulationConfig::threads.
  int threads = 0;
  /// SIMD dispatch; see EecsSimulationConfig::simd.
  int simd = -1;
  /// Context-aware pruning; see EecsSimulationConfig::context_gate.
  detect::ContextGateOptions context_gate;
  int start_frame = 1000;
  int end_frame = 2950;
  int gt_frame_step = 1;
  OfflineOptions models;
  /// Battery capacity per camera node; an exhausted camera contributes no
  /// detections and no radio energy. The default never empties in practice.
  double battery_joules = 1.0e9;
};

/// Run a fixed combination over the test segment; thresholds come from the
/// offline profiles of the same (dataset, camera).
[[nodiscard]] SimulationResult run_fixed_combo(const DetectorBank& detectors,
                                               const OfflineKnowledge& knowledge,
                                               const FixedCombo& combo,
                                               const FixedComboConfig& config);

}  // namespace eecs::core
