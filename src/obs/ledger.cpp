#include "obs/ledger.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/contracts.hpp"

namespace eecs::obs {

const char* to_string(EnergyCause cause) {
  switch (cause) {
    case EnergyCause::Detect: return "detect";
    case EnergyCause::Features: return "features";
    case EnergyCause::Render: return "render";
    case EnergyCause::Tx: return "tx";
    case EnergyCause::Retry: return "retry";
    case EnergyCause::Heartbeat: return "heartbeat";
    case EnergyCause::Idle: return "idle";
  }
  return "?";
}

const char* to_string(EnergyStage stage) {
  switch (stage) {
    case EnergyStage::Registration: return "registration";
    case EnergyStage::Assessment: return "assessment";
    case EnergyStage::Operation: return "operation";
  }
  return "?";
}

void ExactJoules::add(double v) {
  if (v == 0.0) return;  // Common case (control-class sends): nothing to fold.
  if (!std::isfinite(v) || v < 0.0) {
    inexact = true;
    return;
  }
  int exp = 0;
  const double frac = std::frexp(v, &exp);       // v = frac * 2^exp, frac in [0.5, 1).
  const auto mant = static_cast<std::uint64_t>(  // 53-bit integer mantissa.
      std::ldexp(frac, 53));
  // v = mant * 2^(exp-53); the fixed-point LSB is 2^-128, so the mantissa
  // lands at bit offset (exp - 53) + 128 from the bottom of the 192-bit word.
  const int offset = exp - 53 + 128;
  if (offset < 0 || offset + 53 > 192) {
    inexact = true;
    return;
  }
  ExactJoules addend;
  const int limb = offset / 64;
  const int shift = offset % 64;
  addend.limb[limb] = mant << shift;
  if (shift != 0 && limb + 1 < 3) addend.limb[limb + 1] = mant >> (64 - shift);
  add(addend);
}

void ExactJoules::add(const ExactJoules& other) {
  inexact = inexact || other.inexact;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 3; ++i) {
    const unsigned __int128 sum =
        static_cast<unsigned __int128>(limb[i]) + other.limb[i] + carry;
    limb[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  if (carry != 0) inexact = true;  // > 2^64 J total: beyond any simulated run.
}

double ExactJoules::to_double() const {
  return std::ldexp(static_cast<double>(limb[2]), 0) +
         std::ldexp(static_cast<double>(limb[1]), -64) +
         std::ldexp(static_cast<double>(limb[0]), -128);
}

void EnergyLedger::begin_run(const std::vector<double>& battery_capacity) {
  for (const double capacity : battery_capacity) EECS_EXPECTS(capacity > 0.0);
  round_ = -1;
  cpu_total_ = 0.0;
  radio_total_ = 0.0;
  exact_total_ = ExactJoules{};
  debits_ = 0;
  camera_joules_.assign(battery_capacity.size(), 0.0);
  residual_ = battery_capacity;
  capacity_ = battery_capacity;
  entries_.clear();
}

void EnergyLedger::set_round(std::int64_t round) { round_ = round; }

void EnergyLedger::debit(int camera, EnergyStage stage, int algorithm, EnergyCause cause,
                         double joules, double& total) {
  total += joules;
  exact_total_.add(joules);
  ++debits_;
  if (camera >= 0 && camera < static_cast<int>(camera_joules_.size())) {
    camera_joules_[static_cast<std::size_t>(camera)] += joules;
  }
  LedgerKey key;
  key.camera = camera;
  key.round = round_;
  key.stage = stage;
  key.algorithm = static_cast<std::int8_t>(algorithm);
  key.cause = cause;
  LedgerEntry& entry = entries_[key];
  entry.joules += joules;
  ++entry.debits;
  entry.exact.add(joules);
}

void EnergyLedger::debit_cpu(int camera, EnergyStage stage, int algorithm, EnergyCause cause,
                             double joules) {
  debit(camera, stage, algorithm, cause, joules, cpu_total_);
}

void EnergyLedger::debit_radio(int camera, EnergyStage stage, int algorithm, EnergyCause cause,
                               double joules) {
  debit(camera, stage, algorithm, cause, joules, radio_total_);
}

void EnergyLedger::drain(int camera, double joules) {
  EECS_EXPECTS(joules >= 0.0);
  EECS_EXPECTS(camera >= 0 && camera < static_cast<int>(residual_.size()));
  double& residual = residual_[static_cast<std::size_t>(camera)];
  residual -= std::min(joules, residual);
}

double EnergyLedger::camera_joules(int camera) const {
  if (camera < 0 || camera >= static_cast<int>(camera_joules_.size())) return 0.0;
  return camera_joules_[static_cast<std::size_t>(camera)];
}

double EnergyLedger::residual(int camera) const {
  EECS_EXPECTS(camera >= 0 && camera < static_cast<int>(residual_.size()));
  return residual_[static_cast<std::size_t>(camera)];
}

double EnergyLedger::capacity(int camera) const {
  EECS_EXPECTS(camera >= 0 && camera < static_cast<int>(capacity_.size()));
  return capacity_[static_cast<std::size_t>(camera)];
}

namespace {

// Bitwise double equality (distinguishes -0.0/0.0 and compares NaN payloads);
// %.17g round-trips doubles, but comparing bits directly is stricter still.
bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void append_g17(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

EnergyLedger::Conservation EnergyLedger::check(double result_cpu_joules,
                                               double result_radio_joules,
                                               const std::vector<double>& battery_residual) const {
  Conservation out;
  auto violate = [&out](const std::string& clause) {
    out.ok = false;
    if (!out.detail.empty()) out.detail += "; ";
    out.detail += clause;
  };
  auto describe = [](double got, double want) {
    std::string s = "got ";
    append_g17(s, got);
    s += " want ";
    append_g17(s, want);
    return s;
  };
  // The result's energy fields are read from this book at the end of a run;
  // any difference means the result came from another run or another book.
  if (!bit_equal(result_cpu_joules, cpu_total_)) {
    violate("result.cpu_joules != book cpu total (" + describe(result_cpu_joules, cpu_total_) +
            ")");
  }
  if (!bit_equal(result_radio_joules, radio_total_)) {
    violate("result.radio_joules != book radio total (" +
            describe(result_radio_joules, radio_total_) + ")");
  }
  if (battery_residual.size() != residual_.size()) {
    violate("result battery count != book camera count");
  } else {
    for (std::size_t c = 0; c < battery_residual.size(); ++c) {
      if (!bit_equal(battery_residual[c], residual_[c])) {
        violate("camera " + std::to_string(c) + " result residual != book residual (" +
                describe(battery_residual[c], residual_[c]) + ")");
      }
    }
  }
  // Order-independent attribution audit: the fixed-point sum over entries
  // must equal the fixed-point total fed by the debit stream.
  ExactJoules entry_sum;
  std::uint64_t entry_debits = 0;
  for (const auto& [key, entry] : entries_) {
    entry_sum.add(entry.exact);
    entry_debits += entry.debits;
  }
  if (!(entry_sum == exact_total_)) violate("exact entry sum != exact debit total");
  if (entry_debits != debits_) violate("entry debit count != total debit count");
  if (exact_total_.inexact) violate("exact accumulator overflowed (inexact)");
  return out;
}

std::string EnergyLedger::report() const {
  std::string out;
  for (const auto& [key, entry] : entries_) {
    out += "ledger camera=" + std::to_string(key.camera) +
           " round=" + std::to_string(key.round) + " stage=" + to_string(key.stage) +
           " algorithm=" + std::to_string(key.algorithm) + " cause=" + to_string(key.cause) +
           " joules=";
    append_g17(out, entry.joules);
    out += " debits=" + std::to_string(entry.debits) + "\n";
  }
  out += "ledger total cpu=";
  append_g17(out, cpu_total_);
  out += " radio=";
  append_g17(out, radio_total_);
  out += " debits=" + std::to_string(debits_) + " entries=" + std::to_string(entries_.size()) +
         "\n";
  return out;
}

std::string EnergyLedger::to_json() const {
  std::ostringstream out;
  out << "{\n  \"entries\": [\n";
  bool first = true;
  char buf[64];
  for (const auto& [key, entry] : entries_) {
    if (!first) out << ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", entry.joules);
    out << "    {\"camera\": " << key.camera << ", \"round\": " << key.round << ", \"stage\": \""
        << to_string(key.stage) << "\", \"algorithm\": " << static_cast<int>(key.algorithm)
        << ", \"cause\": \"" << to_string(key.cause) << "\", \"joules\": " << buf
        << ", \"debits\": " << entry.debits << "}";
  }
  out << "\n  ],\n";
  std::snprintf(buf, sizeof(buf), "%.17g", cpu_total_);
  out << "  \"cpu_total\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.17g", radio_total_);
  out << "  \"radio_total\": " << buf << ",\n";
  out << "  \"debits\": " << debits_ << "\n}\n";
  return out.str();
}

EnergyLedger::State EnergyLedger::export_state() const {
  State state;
  state.cpu_total = cpu_total_;
  state.radio_total = radio_total_;
  state.exact_total = exact_total_;
  state.debits = debits_;
  state.camera_joules = camera_joules_;
  state.residual = residual_;
  state.entries.assign(entries_.begin(), entries_.end());
  return state;
}

void EnergyLedger::import_state(const State& state) {
  EECS_EXPECTS(state.camera_joules.size() == capacity_.size() &&
               state.residual.size() == capacity_.size());
  cpu_total_ = state.cpu_total;
  radio_total_ = state.radio_total;
  exact_total_ = state.exact_total;
  debits_ = state.debits;
  camera_joules_ = state.camera_joules;
  for (std::size_t c = 0; c < residual_.size(); ++c) {
    residual_[c] = std::clamp(state.residual[c], 0.0, capacity_[c]);
  }
  entries_.clear();
  for (const auto& [key, entry] : state.entries) entries_.emplace(key, entry);
}

}  // namespace eecs::obs
