// Full-simulation checkpoint: everything the closed loop needs to resume
// bit-identically from a round boundary — the run's identity (camera count
// and config record), progress counters, result accumulators, per-camera
// device state, controller registrations, liveness and retry-queue state,
// the complete network state (clock, RNG stream, event queue), the
// durable-runtime extensions (watchdog strikes, degradation ladder), the
// energy book (every joule total and battery residual) and the anomaly
// detector's windows. The struct holds the loop's own records as they are
// (runtime/loop_state.hpp and the states its subsystems export), so core
// fills and applies it with whole-record copies.
//
// Serialized through the snapshot container, one CRC-checked section per
// subsystem. Each persisted struct has one field list in checkpoint.cpp that
// both encode() and decode() walk (FaultCounters' is for_each_fault_field),
// so its wire format is stated once; any change to a list changes the
// encoding and bumps kSnapshotVersion, and decode() accepts only that
// version.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "obs/anomaly.hpp"
#include "obs/ledger.hpp"
#include "runtime/degradation.hpp"
#include "runtime/loop_state.hpp"
#include "runtime/protocol.hpp"

namespace eecs::runtime {

/// One results-affecting field of the loop configuration as canonical text
/// (core::config_record builds the record from core::for_each_config_field).
struct ConfigField {
  std::string name;
  std::string value;

  [[nodiscard]] bool operator==(const ConfigField&) const = default;
};
using ConfigRecord = std::vector<ConfigField>;

struct SimulationCheckpoint {
  // ---- Identity of the run this snapshot belongs to. A checkpoint is only
  // bit-exact against the same camera count and config record, so resume
  // refuses any difference (check_config).
  std::int32_t num_cameras = 0;
  ConfigRecord config;

  // ---- Progress: the snapshot is taken at the top of a recalibration round.
  std::int32_t frame_index = 0;  ///< Scene frames advanced; resume = skip(n).
  std::int64_t rounds_completed = 0;

  // ---- Result accumulators at the checkpoint instant (the joules are in
  // the energy book below).
  std::int32_t humans_detected = 0;
  std::int32_t humans_present = 0;
  std::int32_t gt_frames_processed = 0;
  /// Sliding-window accounting (context gate).
  std::uint64_t windows_evaluated = 0;
  std::uint64_t windows_pruned = 0;

  std::vector<RoundLog> rounds;
  /// FaultCounters accumulated before the checkpoint.
  FaultCounters faults;

  // ---- Per-camera device + runtime state, one entry per camera each.
  std::vector<CameraNode> cameras;
  std::vector<int> deadline_strikes;  ///< RoundWatchdog::state().
  std::vector<DegradationLadder::CameraState> ladder;

  /// Controller registration state, in camera order.
  std::vector<Registration> registrations;

  // ---- Controller-side protocol state.
  LivenessTracker::State liveness;
  std::vector<std::int32_t> controller_active;
  /// The retry queue's unacked entries, in camera order.
  std::vector<std::pair<int, AssignmentRetryQueue::Entry>> pending;
  std::uint32_t next_sequence = 0;

  // ---- Network substrate.
  net::Network::State network;

  // ---- The energy book (joule totals, battery residuals, per-key entries)
  // and the anomaly-detector windows, so a resumed run's joules, residuals
  // and ledger cover the whole run and the detector replays identical
  // findings. The flight-recorder ring is NOT checkpointed: dumps written
  // before the crash already persist its history, and a resumed recorder
  // refills within one window of rounds.
  obs::EnergyLedger::State ledger;
  obs::AnomalyDetector::State anomaly;

  [[nodiscard]] bool operator==(const SimulationCheckpoint&) const = default;

  /// Throws SnapshotError naming the first field where this snapshot's
  /// identity differs from the resuming run's camera count and config record.
  void check_config(std::int32_t run_cameras, const ConfigRecord& run) const;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Throws SnapshotError on any malformed input (bad framing, bytes after
  /// the last section, another snapshot version, CRC mismatch, a section
  /// shorter or longer than its field list, a count larger than its section,
  /// a per-camera array not sized to the camera count, an algorithm id or a
  /// camera out of range, anomaly windows of unequal lengths).
  [[nodiscard]] static SimulationCheckpoint decode(std::span<const std::uint8_t> bytes);

  void save(const std::string& path) const;
  [[nodiscard]] static SimulationCheckpoint load(const std::string& path);
};

}  // namespace eecs::runtime
