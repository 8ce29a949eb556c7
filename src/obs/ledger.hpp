// Energy book: the run's one accumulator of joules. Every joule the
// simulation spends is debited here and attributed to a (camera, round,
// stage, algorithm, cause) key, and every camera battery lives here as a
// capacity and a residual. SimulationResult reads its CPU and radio totals
// and its per-camera residuals from the book when a run finishes (see
// DESIGN.md "Energy audit ledger"). The book is on in every build,
// EECS_OBS_OFF included.
//
// Bit-exactness contract. Floating-point addition is not associative, so the
// book never re-derives totals from its entries with doubles. It keeps:
//
//  1. Running double totals (`cpu_total_`, `radio_total_`) added in debit
//     order: the run's reported joules.
//  2. Per-camera residuals, drained with one clamp at empty.
//  3. A 192-bit fixed-point exact accumulator (LSB = 2^-128) per entry and
//     globally. Integer addition commutes, so "sum over entries equals the
//     debited total" holds exactly and independently of iteration order —
//     this is what makes the per-key attribution itself auditable rather
//     than approximately-summing.
//
// Debits and drains happen only at the loop's serial replay points, so no
// locking is needed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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

  [[nodiscard]] bool operator==(const LedgerEntry&) const = default;
};

class EnergyLedger {
 public:
  /// Arm the book for one run: drops all entries and totals and fills each
  /// camera's battery to its capacity, which must be positive. A telemetry
  /// session's book always describes the session's most recent armed run.
  void begin_run(const std::vector<double>& battery_capacity);

  /// Round id attached to subsequent debits (-1 outside round structure).
  void set_round(std::int64_t round);

  void debit_cpu(int camera, EnergyStage stage, int algorithm, EnergyCause cause, double joules);
  void debit_radio(int camera, EnergyStage stage, int algorithm, EnergyCause cause, double joules);

  /// Take `joules` (non-negative) out of the camera's battery, clamped at
  /// empty.
  void drain(int camera, double joules);

  [[nodiscard]] double cpu_total() const { return cpu_total_; }
  [[nodiscard]] double radio_total() const { return radio_total_; }
  /// Per-camera cpu+radio debit stream total (burn-rate input).
  [[nodiscard]] double camera_joules(int camera) const;
  [[nodiscard]] double residual(int camera) const;
  [[nodiscard]] double capacity(int camera) const;
  [[nodiscard]] bool empty(int camera) const { return residual(camera) <= 0.0; }
  [[nodiscard]] const std::vector<double>& residuals() const { return residual_; }
  [[nodiscard]] const std::map<LedgerKey, LedgerEntry>& entries() const { return entries_; }

  struct Conservation {
    bool ok = true;
    std::string detail;  ///< Empty when ok; otherwise every violated clause.
  };
  /// The hard invariant: the result's totals and residuals passed in are
  /// bit-equal to this book's (the result came from this book), and the exact
  /// sum over entries equals the exact debited total (order-independent).
  [[nodiscard]] Conservation check(double result_cpu_joules, double result_radio_joules,
                                   const std::vector<double>& battery_residual) const;

  /// Canonical %.17g dump, one line per entry in key order plus a totals
  /// line — what sim_determinism appends to its cross-mode reports.
  [[nodiscard]] std::string report() const;
  /// JSON array of entries plus totals (tools).
  [[nodiscard]] std::string to_json() const;

  /// Checkpointable state (serialized by runtime/checkpoint as a snapshot
  /// section, so a resumed run carries the whole run's joules and
  /// residuals). Capacities are not part of it: begin_run sets them from the
  /// run's config.
  struct State {
    double cpu_total = 0.0;
    double radio_total = 0.0;
    ExactJoules exact_total;
    std::uint64_t debits = 0;
    std::vector<double> camera_joules;
    std::vector<double> residual;
    std::vector<std::pair<LedgerKey, LedgerEntry>> entries;

    [[nodiscard]] bool operator==(const State&) const = default;
  };
  [[nodiscard]] State export_state() const;
  /// Restore an armed book: `state` must hold one entry per camera, and each
  /// residual is clamped to [0, capacity].
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
  std::vector<double> residual_;
  std::vector<double> capacity_;
  std::map<LedgerKey, LedgerEntry> entries_;
};

}  // namespace eecs::obs
