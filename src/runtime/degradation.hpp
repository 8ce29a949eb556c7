// Graceful-degradation ladder. Under stress a camera steps down through
// progressively cheaper operating modes instead of failing outright:
//
//   Full -> CheapAlgorithm -> SkipFrames -> MetadataOnly -> Parked
//
// Two independent pressures select the rung and the effective rung is the
// deeper of the two:
//  - Battery: a monotone floor derived from the residual-charge fraction.
//    Batteries only drain, so the battery floor never steps a camera back
//    up (enforced by contract; the chaos harness asserts it end to end).
//  - Stress: deadline misses and per-round fault storms push one rung down
//    per trigger; `recovery_rounds` consecutive clean rounds step one rung
//    back up.
//
// The ladder is disabled by default: with `enabled == false` every camera
// reports Full forever and the simulation is bit-identical to a build
// without the ladder.
#pragma once

#include <cstdint>
#include <vector>

namespace eecs::runtime {

enum class DegradationRung : std::uint8_t {
  Full = 0,        ///< Assigned algorithm at full frame rate.
  CheapAlgorithm,  ///< Cheapest affordable detector from camera flash.
  SkipFrames,      ///< Cheap detector on every other ground-truth frame.
  MetadataOnly,    ///< Heartbeats and energy reports only; no detection.
  Parked,          ///< Radio and CPU dark; the node rides out the storm.
};
inline constexpr int kNumDegradationRungs = 5;

[[nodiscard]] const char* to_string(DegradationRung rung);

struct DegradationPolicy {
  /// Master switch; false keeps every camera at Full unconditionally.
  bool enabled = false;
  /// Battery-fraction thresholds for the monotone battery floor. A residual
  /// fraction strictly below a threshold selects at least that rung.
  double battery_low = 0.25;       ///< Below: CheapAlgorithm.
  double battery_critical = 0.10;  ///< Below: SkipFrames.
  double battery_severe = 0.05;    ///< Below: MetadataOnly.
  double battery_park = 0.02;      ///< Below: Parked.
  /// Per-round message-loss ratio at or above which the round counts as a
  /// fault storm for every camera (requires storm_min_messages offered).
  double storm_loss_ratio = 0.5;
  long storm_min_messages = 8;
  /// Consecutive clean rounds before one stress rung is recovered.
  int recovery_rounds = 2;
  /// Feed the obs anomaly detector's advisory into the stress rung: a flagged
  /// camera takes one stress step down, exactly like a deadline miss. Off by
  /// default — the advisory is opt-in so existing runs stay bit-identical.
  bool anomaly_advisory = false;
};

class DegradationLadder {
 public:
  enum class Trigger : std::uint8_t { Battery, Deadline, FaultStorm, Anomaly, Recovery };

  struct Transition {
    int camera = 0;
    DegradationRung from = DegradationRung::Full;
    DegradationRung to = DegradationRung::Full;
    Trigger trigger = Trigger::Battery;
  };

  DegradationLadder(const DegradationPolicy& policy, int num_cameras);

  [[nodiscard]] bool enabled() const { return policy_.enabled; }

  /// Effective rung right now: max(battery floor, stress rung). Always Full
  /// when disabled.
  [[nodiscard]] DegradationRung rung(int camera) const;

  /// Rung the battery floor alone selects for a residual fraction.
  [[nodiscard]] DegradationRung battery_rung(double battery_fraction) const;

  /// Round-close update for one camera. Applies the battery floor, then one
  /// stress step down per trigger (deadline miss first, then storm, then the
  /// anomaly advisory — the latter only when `policy.anomaly_advisory` is
  /// set), or one recovery step up after enough clean rounds. Returns every
  /// effective-rung transition in application order; battery transitions
  /// never step up.
  std::vector<Transition> on_round(int camera, double battery_fraction, bool deadline_miss,
                                   bool fault_storm, bool anomaly = false);

  struct CameraState {
    int battery_floor = 0;
    int stress_rung = 0;
    int clean_rounds = 0;

    [[nodiscard]] bool operator==(const CameraState&) const = default;
  };
  [[nodiscard]] const std::vector<CameraState>& state() const { return cameras_; }
  void restore(const std::vector<CameraState>& cameras) { cameras_ = cameras; }

 private:
  DegradationPolicy policy_;
  std::vector<CameraState> cameras_;
};

}  // namespace eecs::runtime
