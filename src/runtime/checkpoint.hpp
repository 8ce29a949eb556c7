// Full-simulation checkpoint: everything the closed loop needs to resume
// bit-identically from a round boundary — the run's identity (camera count
// and config record), progress counters, result accumulators, per-camera
// device state, controller registrations, liveness and retry-queue state,
// the complete network state (clock, RNG stream, event queue), the
// durable-runtime extensions (watchdog strikes, degradation ladder), the
// energy book (every joule total and battery residual) and the anomaly
// detector's windows. The struct mirrors the loop's state with plain data
// so the runtime layer stays independent of core; core fills and applies it.
//
// Serialized through the snapshot container, one CRC-checked section per
// subsystem. Each persisted struct has one field list in checkpoint.cpp that
// both encode() and decode() walk, so its wire format is stated once; any
// change to a list changes the encoding and bumps kSnapshotVersion, and
// decode() accepts only that version.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/anomaly.hpp"
#include "obs/ledger.hpp"
#include "runtime/degradation.hpp"
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

  struct RoundLogState {
    std::int32_t start_frame = 0;
    double n_star = 0.0;
    double p_star = 0.0;
    double n_est = 0.0;
    double p_est = 0.0;
    std::int32_t cameras_active = 0;
    std::string summary;
    std::uint8_t midround_recovery = 0;
  };
  std::vector<RoundLogState> rounds;

  /// FaultCounters accumulated before the checkpoint, in the field order of
  /// core::FaultCounters (the simulation owns the ordering and the count).
  std::vector<std::int64_t> fault_counters;

  // ---- Per-camera device + runtime state.
  struct CameraState {
    std::uint8_t has_assignment = 0;
    std::uint8_t active = 0;
    std::int32_t algorithm = 0;
    double threshold = 0.0;
    std::uint32_t applied_sequence = 0;
    std::int32_t deadline_strikes = 0;
    DegradationLadder::CameraState ladder;
  };
  std::vector<CameraState> cameras;

  /// Controller registration state: (camera, matched item, budget) is enough
  /// to rebuild the affordable list deterministically.
  struct Registration {
    std::int32_t camera = 0;
    std::int32_t matched_item = -1;
    double budget = 0.0;
  };
  std::vector<Registration> registrations;

  // ---- Controller-side protocol state.
  LivenessTracker::State liveness;
  std::vector<std::int32_t> controller_active;
  struct PendingEntry {
    std::int32_t camera = 0;
    AssignmentRetryQueue::Entry entry;
  };
  std::vector<PendingEntry> pending;
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

  /// Throws SnapshotError naming the first field where this snapshot's
  /// identity differs from the resuming run's camera count and config record.
  void check_config(std::int32_t run_cameras, const ConfigRecord& run) const;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Throws SnapshotError on any malformed input (bad framing, another
  /// snapshot version, CRC mismatch, truncated section, a count larger than
  /// its section, a per-camera array not sized to the camera count, an
  /// algorithm id out of range).
  [[nodiscard]] static SimulationCheckpoint decode(std::span<const std::uint8_t> bytes);

  void save(const std::string& path) const;
  [[nodiscard]] static SimulationCheckpoint load(const std::string& path);
};

}  // namespace eecs::runtime
