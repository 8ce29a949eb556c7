// The closed loop's own records that a checkpoint persists as they are: the
// round log, the robustness counters, what each camera device knows and the
// controller's registrations. They live below core so the runtime layer's
// SimulationCheckpoint can hold them without a mirror; core uses them in
// place (core::RoundLog, core::FaultCounters and core::SelectionStats name
// the same types).
#pragma once

#include <cstdint>
#include <string>

#include "detect/detection.hpp"

namespace eecs::runtime {

/// The controller's view of one selection (§IV-B.3/4).
struct SelectionStats {
  double n_star = 0.0;  ///< Objects detected with all cameras at best algs.
  double p_star = 0.0;  ///< Mean fused probability, same configuration.
  double n_est = 0.0;   ///< Estimate for the chosen configuration.
  double p_est = 0.0;
  int cameras_active = 0;
  std::string summary;  ///< Human-readable, e.g. "cam2:HOG cam0:ACF".

  [[nodiscard]] bool operator==(const SelectionStats&) const = default;
};

struct RoundLog {
  int start_frame = 0;
  SelectionStats stats;
  /// True when this entry is a mid-round re-selection around a dead camera
  /// rather than a scheduled recalibration.
  bool midround_recovery = false;

  [[nodiscard]] bool operator==(const RoundLog&) const = default;
};

/// Robustness counters surfaced by the runners. A run counts them itself and,
/// at its end, publishes each field to its named counter in the current
/// telemetry session (`net.messages.sent`, `liveness.cameras.failed`, ...),
/// so the registry holds the same values.
struct FaultCounters {
  long messages_sent = 0;      ///< Protocol messages offered to the network.
  long messages_lost = 0;      ///< ... that the network failed to deliver.
  long assignments_retried = 0;
  long assignments_abandoned = 0;  ///< Retry budget exhausted; the camera
                                   ///< keeps its last-known-good assignment.
  long registrations_lost = 0;     ///< Feature uploads never delivered.
  long decode_errors = 0;          ///< Malformed payloads rejected on receipt.
  int cameras_failed = 0;          ///< Declared dead by the liveness tracker.
  int cameras_recovered = 0;       ///< Heard from again after being presumed dead.
  int midround_reselections = 0;
  long frames_skipped_exhausted = 0;  ///< Camera-frames skipped on empty battery.

  // Durable-runtime accounting. Every pushed assignment ends in exactly one
  // of {acked, abandoned, dropped, replaced} or is still pending at exit:
  //   pushed == acked + abandoned + dropped + replaced + pending_at_exit
  // (the chaos harness asserts this "no lost-forever assignments" identity).
  long assignments_pushed = 0;
  long assignments_acked = 0;
  long acks_late = 0;             ///< Ack arrived after the entry was closed;
                                  ///< counted here, never re-applied.
  long assignments_dropped = 0;   ///< Camera presumed dead; retries stopped.
  long assignments_replaced = 0;  ///< Superseded by a newer push while unacked.
  long assignments_pending_at_exit = 0;
  long deadline_misses = 0;          ///< Round-watchdog misses (per camera-round).
  long degradation_stepdowns = 0;    ///< Ladder transitions to a deeper rung.
  long degradation_stepups = 0;      ///< Recovery transitions back up.
  long frames_parked = 0;            ///< Camera-frames spent at the Parked rung.

  [[nodiscard]] bool operator==(const FaultCounters&) const = default;
};

/// The FaultCounters field list: each field's registry counter and member,
/// in the order of a snapshot's "counters" section.
template <typename Fn>
void for_each_fault_field(Fn&& fn) {
  fn("net.messages.sent", &FaultCounters::messages_sent);
  fn("net.messages.lost", &FaultCounters::messages_lost);
  fn("protocol.assignments.retried", &FaultCounters::assignments_retried);
  fn("protocol.assignments.abandoned", &FaultCounters::assignments_abandoned);
  fn("protocol.registrations.lost", &FaultCounters::registrations_lost);
  fn("protocol.decode_errors", &FaultCounters::decode_errors);
  fn("liveness.cameras.failed", &FaultCounters::cameras_failed);
  fn("liveness.cameras.recovered", &FaultCounters::cameras_recovered);
  fn("liveness.midround_reselections", &FaultCounters::midround_reselections);
  fn("battery.frames_skipped", &FaultCounters::frames_skipped_exhausted);
  fn("protocol.assignments.pushed", &FaultCounters::assignments_pushed);
  fn("protocol.assignments.acked", &FaultCounters::assignments_acked);
  fn("protocol.acks.late", &FaultCounters::acks_late);
  fn("protocol.assignments.dropped", &FaultCounters::assignments_dropped);
  fn("protocol.assignments.replaced", &FaultCounters::assignments_replaced);
  fn("protocol.assignments.pending_at_exit", &FaultCounters::assignments_pending_at_exit);
  fn("runtime.deadline.misses", &FaultCounters::deadline_misses);
  fn("runtime.degradation.stepdowns", &FaultCounters::degradation_stepdowns);
  fn("runtime.degradation.stepups", &FaultCounters::degradation_stepups);
  fn("battery.frames_parked", &FaultCounters::frames_parked);
}

/// Adds `other`'s counts field by field (a resumed run adds back the counts
/// of the segments before its snapshot).
inline FaultCounters& operator+=(FaultCounters& counters, const FaultCounters& other) {
  for_each_fault_field([&](const char*, auto member) { counters.*member += other.*member; });
  return counters;
}

/// What the camera device itself knows. Assignments are applied only when the
/// controller's message is actually delivered; the last-known-good one
/// survives lost updates and crash/reboot cycles (kept in flash).
struct CameraNode {
  bool has_assignment = false;
  bool active = false;
  detect::AlgorithmId algorithm = detect::AlgorithmId::Hog;
  double threshold = 0.0;
  std::uint32_t applied_sequence = 0;

  [[nodiscard]] bool operator==(const CameraNode&) const = default;
};

/// One camera's controller registration: (camera, matched item, budget) is
/// enough to rebuild its affordable list deterministically.
struct Registration {
  int camera = 0;
  int matched_item = -1;
  double budget = 0.0;

  [[nodiscard]] bool operator==(const Registration&) const = default;
};

}  // namespace eecs::runtime
