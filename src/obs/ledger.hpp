// Energy audit ledger: attributes every joule the simulation debits to a
// (camera, round, stage, algorithm, cause) key, with a hard conservation
// invariant against the SimulationResult accumulators and the per-camera
// battery residuals (see DESIGN.md "Observability" / "Energy ledger").
//
// Bit-exactness contract. Floating-point addition is not associative, so the
// ledger never re-derives totals from its entries with doubles. Instead it
// keeps three mutually checking views:
//
//  1. Running double totals (`cpu_total_`, `radio_total_`) incremented with
//     the *same double values in the same order* as the simulation's
//     `result.cpu_joules`/`result.radio_joules` accumulators — so the totals
//     are bit-identical to the result by construction, and any debit that
//     bypasses the ledger (or is double-counted) breaks the equality.
//  2. Per-camera battery mirrors applying the identical clamped drain
//     sequence as energy::Battery, so `mirror == battery.residual()` holds
//     bitwise at every instant.
//  3. A 192-bit fixed-point exact accumulator (LSB = 2^-128) per entry and
//     globally. Integer addition commutes, so "sum over entries equals the
//     debited total" holds exactly and independently of iteration order —
//     this is what makes the per-key attribution itself auditable rather
//     than approximately-summing.
//
// Debits happen only at the loop's serial replay points (like the energy
// gauges), so no locking is needed. Under EECS_OBS_OFF every mutator is a
// no-op and check() vacuously passes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace eecs::obs {

/// Why a joule was spent. `render` and `idle` are reserved: scene rendering
/// is simulator-side work (never charged to a camera battery), and the SoC
/// fixed per-frame idle charge rides inside the detect debit because
/// splitting one accounting point into two doubles would break the bit-exact
/// totals contract (a+b rounds; see header comment).
enum class EnergyCause : std::uint8_t {
  Detect = 0,  ///< Operation-window detection + color features (incl. SoC fixed charge).
  Features,    ///< §IV-B.1 registration feature extraction.
  Render,      ///< Reserved (simulator-side; never charged today).
  Tx,          ///< First-attempt application radio energy (metadata + crops).
  Retry,       ///< Re-transmission attempts beyond the first.
  Heartbeat,   ///< Liveness traffic (control class: zero joules today).
  Idle,        ///< Reserved (folded into Detect's fixed per-frame charge).
};
inline constexpr int kNumEnergyCauses = 7;

/// Which loop phase debited.
enum class EnergyStage : std::uint8_t { Registration = 0, Assessment, Operation };
inline constexpr int kNumEnergyStages = 3;

[[nodiscard]] const char* to_string(EnergyCause cause);
[[nodiscard]] const char* to_string(EnergyStage stage);

/// 192-bit unsigned fixed-point accumulator, LSB = 2^-128. Exact for any
/// finite non-negative double in [2^-75, 2^63) — every energy debit the
/// models can produce (the smallest nonzero debit is ~1e-7 J). Values outside
/// that range (or negative/non-finite) set `inexact` instead of corrupting
/// the sum; conservation then reports the flag.
struct ExactJoules {
  std::uint64_t limb[3] = {0, 0, 0};  ///< limb[0] holds the lowest bits.
  bool inexact = false;

  void add(double v);
  void add(const ExactJoules& other);
  [[nodiscard]] bool operator==(const ExactJoules&) const = default;
  /// Closest double (diagnostics only — never used for conservation checks).
  [[nodiscard]] double to_double() const;
};

struct LedgerKey {
  std::int32_t camera = -1;
  std::int64_t round = -1;  ///< -1 = registration phase / no round structure.
  EnergyStage stage = EnergyStage::Operation;
  std::int8_t algorithm = -1;  ///< detect::AlgorithmId value, or -1.
  EnergyCause cause = EnergyCause::Detect;

  [[nodiscard]] bool operator==(const LedgerKey&) const = default;
  [[nodiscard]] bool operator<(const LedgerKey& o) const {
    if (camera != o.camera) return camera < o.camera;
    if (round != o.round) return round < o.round;
    if (stage != o.stage) return stage < o.stage;
    if (algorithm != o.algorithm) return algorithm < o.algorithm;
    return cause < o.cause;
  }
};

struct LedgerEntry {
  double joules = 0.0;       ///< Plain double sum (display; entry-local order).
  std::uint64_t debits = 0;  ///< Number of debit calls folded in.
  ExactJoules exact;         ///< Order-independent exact sum.
};

class EnergyLedger {
 public:
  /// Arm the ledger for one run: drops all entries/totals and initializes the
  /// per-camera battery mirrors at full capacity. A telemetry session's
  /// ledger always describes the session's most recent armed run.
  void begin_run(const std::vector<double>& battery_capacity);

  /// Round id attached to subsequent debits (-1 outside round structure).
  void set_round(std::int64_t round);

  void debit_cpu(int camera, EnergyStage stage, int algorithm, EnergyCause cause, double joules);
  void debit_radio(int camera, EnergyStage stage, int algorithm, EnergyCause cause, double joules);

  /// Mirror of energy::Battery::drain — identical clamp, applied at the same
  /// call points with the same double, so mirrors track residuals bitwise.
  void drain(int camera, double joules);

  [[nodiscard]] double cpu_total() const { return cpu_total_; }
  [[nodiscard]] double radio_total() const { return radio_total_; }
  /// Per-camera cpu+radio debit stream total (burn-rate input).
  [[nodiscard]] double camera_joules(int camera) const;
  [[nodiscard]] double mirror_residual(int camera) const;
  [[nodiscard]] int num_cameras() const { return static_cast<int>(mirror_residual_.size()); }
  [[nodiscard]] const std::map<LedgerKey, LedgerEntry>& entries() const { return entries_; }

  struct Conservation {
    bool ok = true;
    std::string detail;  ///< Empty when ok; otherwise every violated clause.
  };
  /// The hard invariant: ledger totals bit-equal the result accumulators,
  /// battery mirrors bit-equal the per-camera residuals, and the exact sum
  /// over entries equals the exact debited total (order-independent).
  [[nodiscard]] Conservation check(double result_cpu_joules, double result_radio_joules,
                                   const std::vector<double>& battery_residual) const;

  /// Canonical %.17g dump, one line per entry in key order plus a totals
  /// line — what sim_determinism appends to its cross-mode reports.
  [[nodiscard]] std::string report() const;
  /// JSON array of entries plus totals (tools).
  [[nodiscard]] std::string to_json() const;

  /// Checkpointable state (serialized by runtime/checkpoint as a snapshot
  /// section so chaos resume keeps conservation bit-exact).
  struct State {
    double cpu_total = 0.0;
    double radio_total = 0.0;
    ExactJoules exact_total;
    std::uint64_t debits = 0;
    std::vector<double> camera_joules;
    std::vector<double> mirror_residual;
    std::vector<double> mirror_capacity;
    std::vector<std::pair<LedgerKey, LedgerEntry>> entries;
  };
  [[nodiscard]] State export_state() const;
  void import_state(const State& state);

 private:
  void debit(int camera, EnergyStage stage, int algorithm, EnergyCause cause, double joules,
             double& total);

  std::int64_t round_ = -1;
  double cpu_total_ = 0.0;
  double radio_total_ = 0.0;
  ExactJoules exact_total_;
  std::uint64_t debits_ = 0;
  std::vector<double> camera_joules_;
  std::vector<double> mirror_residual_;
  std::vector<double> mirror_capacity_;
  std::map<LedgerKey, LedgerEntry> entries_;
};

}  // namespace eecs::obs
