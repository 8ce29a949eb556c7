// Deterministic anomaly detection over the loop's per-round telemetry.
// Three rolling-window rules, all driven by simulation state only (never the
// wall clock, so findings are bit-identical across thread widths and SIMD
// modes and safe to feed back into the degradation ladder):
//
//  - burn rate:  a camera's round energy exceeds `burn_rate_milli`/1000 times
//    its rolling-window mean (needs a full window of history first);
//  - loss rate:  window-wide lost/sent exceeds `loss_rate_milli`/1000, once
//    at least `loss_min_messages` were sent in the window;
//  - latency:    deadline misses in the window reach `latency_miss_rounds`
//    (round "latency" in loop time — wall-clock stage timings stay in
//    WallClock metrics and never reach this detector).
//
// Thresholds are integer milli-units so configurations serialize exactly and
// comparisons cross-multiply in integers where possible — no epsilon tuning.
// The window state is checkpointable (State) so chaos crash/resume replays
// identical findings. The detector runs in every build, EECS_OBS_OFF
// included; only the loop's anomaly counters and trace events compile out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace eecs::obs {

struct AnomalyOptions {
  bool enabled = true;
  std::int32_t window_rounds = 8;        ///< Rolling window length.
  std::uint32_t burn_rate_milli = 3000;  ///< Flag burn > 3.0x window mean.
  std::uint32_t loss_rate_milli = 500;   ///< Flag window loss ratio > 0.5.
  std::uint32_t loss_min_messages = 8;   ///< Ratio needs this many sends.
  std::int32_t latency_miss_rounds = 3;  ///< Misses in window to flag.
};

/// Everything the detector sees about one round (deltas, not totals).
struct RoundObservation {
  std::int64_t round = -1;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_lost = 0;
  std::uint32_t deadline_misses = 0;       ///< Cameras that missed this round.
  std::vector<double> camera_joules;       ///< Per-camera energy this round.
};

struct Anomaly {
  enum class Kind : std::uint8_t { BurnRate = 0, LossRate, Latency };
  Kind kind = Kind::BurnRate;
  std::int32_t camera = -1;  ///< -1 for network-wide findings.
  std::int64_t round = -1;
  double value = 0.0;      ///< Observed magnitude (joules, ratio, misses).
  double threshold = 0.0;  ///< Effective threshold it crossed.
};

inline constexpr int kNumAnomalyKinds = 3;

[[nodiscard]] const char* to_string(Anomaly::Kind kind);

class AnomalyDetector {
 public:
  AnomalyDetector(const AnomalyOptions& options, int num_cameras);

  [[nodiscard]] const AnomalyOptions& options() const { return options_; }

  /// Fold one round in and return this round's findings (deterministic
  /// order: burn-rate by camera, then loss rate, then latency).
  [[nodiscard]] std::vector<Anomaly> observe(const RoundObservation& obs);

  /// True when the most recent observe() flagged `camera` with a burn-rate
  /// anomaly — the per-camera advisory the degradation ladder consumes on the
  /// following round. Network-wide findings (loss rate, latency) never set
  /// it: those pressures already reach the ladder via fault-storm and
  /// deadline triggers. Part of State so resume replays the same advisories.
  [[nodiscard]] bool flagged(int camera) const;

  /// Checkpointable rolling-window state, serialized by runtime/checkpoint
  /// so resumed runs replay identical findings. The windows are parallel
  /// per-round FIFOs, oldest first, at most window_rounds long.
  struct State {
    std::vector<std::uint64_t> window_sent;
    std::vector<std::uint64_t> window_lost;
    std::vector<std::uint32_t> window_misses;
    std::vector<double> window_joules;  ///< Flattened [round][camera].
    std::vector<std::uint8_t> last_flags;  ///< Per-camera advisory flags.
    std::int64_t rounds_seen = 0;

    [[nodiscard]] bool operator==(const State&) const = default;
  };
  [[nodiscard]] const State& export_state() const { return state_; }
  /// `state` must be shaped like this detector's: windows of one length, at
  /// most window_rounds, with num_cameras joules per round and one flag per
  /// camera.
  void import_state(const State& state);

 private:
  AnomalyOptions options_;
  int num_cameras_;
  State state_;
};

}  // namespace eecs::obs
