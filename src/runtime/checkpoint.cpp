#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <iterator>
#include <tuple>
#include <type_traits>

#include "detect/detection.hpp"
#include "runtime/snapshot.hpp"

namespace eecs::runtime {

namespace {

using Ck = SimulationCheckpoint;

// ---- Field lists, one per persisted struct, in wire order. The generic
// transfer below walks the same list to write and to read, so each struct's
// encoding is stated once.

template <typename T>
using Of = std::type_identity<T>;

constexpr auto fields(Of<ConfigField>) {
  return std::tuple{&ConfigField::name, &ConfigField::value};
}
constexpr auto fields(Of<RoundLog>) {
  return std::tuple{&RoundLog::start_frame, &RoundLog::stats, &RoundLog::midround_recovery};
}
constexpr auto fields(Of<SelectionStats>) {
  using S = SelectionStats;
  return std::tuple{&S::n_star, &S::p_star, &S::n_est, &S::p_est, &S::cameras_active, &S::summary};
}
constexpr auto fields(Of<CameraNode>) {
  using S = CameraNode;
  return std::tuple{&S::has_assignment, &S::active, &S::algorithm, &S::threshold,
                    &S::applied_sequence};
}
constexpr auto fields(Of<DegradationLadder::CameraState>) {
  using S = DegradationLadder::CameraState;
  return std::tuple{&S::battery_floor, &S::stress_rung, &S::clean_rounds};
}
constexpr auto fields(Of<Registration>) {
  return std::tuple{&Registration::camera, &Registration::matched_item, &Registration::budget};
}
constexpr auto fields(Of<LivenessTracker::State>) {
  return std::tuple{&LivenessTracker::State::last_heard, &LivenessTracker::State::presumed_alive};
}
constexpr auto fields(Of<AssignmentRetryQueue::Entry>) {
  using S = AssignmentRetryQueue::Entry;
  return std::tuple{&S::sequence, &S::attempts, &S::next_retry, &S::payload};
}
constexpr auto fields(Of<Rng::State>) {
  return std::tuple{&Rng::State::words, &Rng::State::have_cached_normal,
                    &Rng::State::cached_normal};
}
constexpr auto fields(Of<net::Network::State>) {
  using S = net::Network::State;
  return std::tuple{&S::now, &S::sequence, &S::rx_dropped, &S::rng, &S::queue};
}
constexpr auto fields(Of<net::Network::QueuedMessage>) {
  using S = net::Network::QueuedMessage;
  return std::tuple{&S::time, &S::sequence, &S::from_node, &S::to_node, &S::payload};
}
constexpr auto fields(Of<obs::EnergyLedger::State>) {
  using S = obs::EnergyLedger::State;
  return std::tuple{&S::cpu_total,     &S::radio_total, &S::exact_total, &S::debits,
                    &S::camera_joules, &S::residual,    &S::entries};
}
constexpr auto fields(Of<obs::ExactJoules>) {
  return std::tuple{&obs::ExactJoules::limb, &obs::ExactJoules::inexact};
}
constexpr auto fields(Of<obs::LedgerKey>) {
  using S = obs::LedgerKey;
  return std::tuple{&S::camera, &S::round, &S::stage, &S::algorithm, &S::cause};
}
constexpr auto fields(Of<obs::LedgerEntry>) {
  return std::tuple{&obs::LedgerEntry::joules, &obs::LedgerEntry::debits, &obs::LedgerEntry::exact};
}
constexpr auto fields(Of<obs::AnomalyDetector::State>) {
  using S = obs::AnomalyDetector::State;
  return std::tuple{&S::rounds_seen,   &S::window_sent,   &S::window_lost,
                    &S::window_misses, &S::window_joules, &S::last_flags};
}

/// The section table: each section's name and the checkpoint members it
/// holds, in wire order.
template <typename Fn>
void for_each_section(Fn&& fn) {
  fn("config", &Ck::num_cameras, &Ck::config);
  fn("progress", &Ck::frame_index, &Ck::rounds_completed, &Ck::humans_detected,
     &Ck::humans_present, &Ck::gt_frames_processed);
  fn("context_gate", &Ck::windows_evaluated, &Ck::windows_pruned);
  fn("rounds", &Ck::rounds);
  fn("counters", &Ck::faults);
  fn("cameras", &Ck::cameras, &Ck::deadline_strikes, &Ck::ladder);
  fn("registrations", &Ck::registrations);
  fn("liveness", &Ck::liveness, &Ck::controller_active);
  fn("pending", &Ck::next_sequence, &Ck::pending);
  fn("network", &Ck::network);
  fn("obs.ledger", &Ck::ledger);
  fn("obs.anomaly", &Ck::anomaly);
}

// The wire format: integers (bool and enums included) little-endian at their
// own width, doubles as IEEE bits, strings and vectors behind a u32 count,
// fixed-size arrays and pairs element by element, structs field by field
// (FaultCounters in for_each_fault_field order). `io` is a Writer (T const)
// or a Reader.
template <typename Io, typename T>
void transfer(Io& io, T& v) {
  using U = std::remove_const_t<T>;
  if constexpr (std::is_arithmetic_v<U> || std::is_enum_v<U>) {
    io.scalar(v);
  } else if constexpr (std::is_same_v<U, std::string>) {
    io.string(v);
  } else if constexpr (requires(U& u) { u.resize(0); }) {
    io.count(v);
    for (auto& e : v) transfer(io, e);
  } else if constexpr (requires(U& u) { std::size(u); }) {
    for (auto& e : v) transfer(io, e);
  } else if constexpr (requires(U& u) { u.second; }) {
    transfer(io, v.first);
    transfer(io, v.second);
  } else if constexpr (std::is_same_v<U, FaultCounters>) {
    for_each_fault_field([&](const char*, auto member) { transfer(io, v.*member); });
  } else {
    std::apply([&](auto... member) { (transfer(io, v.*member), ...); }, fields(Of<U>{}));
  }
}

struct Writer {
  ByteWriter& out;

  template <typename T>
  void scalar(T v) {
    static_assert(!std::is_floating_point_v<T> || std::is_same_v<T, double>);
    static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
    if constexpr (std::is_same_v<T, double>) out.write_f64(v);
    else if constexpr (sizeof(T) == 1) out.write_u8(static_cast<std::uint8_t>(v));
    else if constexpr (sizeof(T) == 4) out.write_u32(static_cast<std::uint32_t>(v));
    else out.write_u64(static_cast<std::uint64_t>(v));
  }
  void string(const std::string& s) { out.write_string(s); }
  template <typename V>
  void count(const V& v) { out.write_u32(static_cast<std::uint32_t>(v.size())); }
};

/// Smallest encoding of a T: that of a default-constructed one (every
/// vector and string empty).
template <typename T>
std::size_t min_encoded_size() {
  static const std::size_t size = [] {
    ByteWriter out;
    Writer writer{out};
    const T value{};
    transfer(writer, value);
    return out.size();
  }();
  return size;
}

struct Reader {
  ByteReader& in;

  template <typename T>
  void scalar(T& v) {
    if constexpr (std::is_same_v<T, double>) v = in.read_f64();
    else if constexpr (sizeof(T) == 1) v = static_cast<T>(in.read_u8());
    else if constexpr (sizeof(T) == 4) v = static_cast<T>(in.read_u32());
    else v = static_cast<T>(in.read_u64());
  }
  void string(std::string& s) { s = in.read_string(); }
  /// Reads a vector's count and sizes it, bounding the count by the bytes
  /// its elements need before allocating anything.
  template <typename V>
  void count(V& v) {
    const std::uint32_t n = in.read_u32();
    if (std::size_t{n} * min_encoded_size<typename V::value_type>() > in.remaining()) {
      throw SnapshotError("checkpoint: element count exceeds section size");
    }
    v.resize(n);
  }
};

void require(bool ok, const char* what) {
  if (!ok) throw SnapshotError(std::string("checkpoint: ") + what);
}

}  // namespace

std::vector<std::uint8_t> SimulationCheckpoint::encode() const {
  SnapshotWriter snapshot;
  for_each_section([&](const char* name, auto... members) {
    Writer writer{snapshot.section(name)};
    (transfer(writer, this->*members), ...);
  });
  return snapshot.finish();
}

SimulationCheckpoint SimulationCheckpoint::decode(std::span<const std::uint8_t> bytes) {
  const SnapshotReader snapshot(bytes);
  SimulationCheckpoint ck;
  std::vector<std::string> table;
  for_each_section([&](const char* name, auto... members) {
    table.emplace_back(name);
    ByteReader in = snapshot.open(name);
    Reader reader{in};
    try {
      (transfer(reader, ck.*members), ...);
    } catch (const ByteReader::DecodeError& e) {
      throw SnapshotError(std::string("checkpoint: section '") + name +
                          "' is malformed: " + e.what());
    }
    if (in.remaining() != 0) {
      throw SnapshotError(std::string("checkpoint: section '") + name +
                          "' has bytes past its fields");
    }
  });
  // This version's writer emits exactly the table's sections, so any other
  // is neither read nor trusted.
  for (const std::string& name : snapshot.names()) {
    if (std::find(table.begin(), table.end(), name) == table.end()) {
      throw SnapshotError("checkpoint: section '" + name + "' is not in this version's table");
    }
  }

  const std::int32_t num_cameras = ck.num_cameras;
  require(num_cameras >= 0 && num_cameras <= 4096, "implausible camera count");
  const auto cameras = static_cast<std::size_t>(num_cameras);
  require(ck.cameras.size() == cameras && ck.deadline_strikes.size() == cameras &&
              ck.ladder.size() == cameras,
          "camera state count disagrees with config");
  for (const CameraNode& cam : ck.cameras) {
    const auto algorithm = static_cast<int>(cam.algorithm);
    require(algorithm >= 0 && algorithm < detect::kNumAlgorithms,
            "camera algorithm id out of range");
  }
  for (const Registration& reg : ck.registrations) {
    require(reg.camera >= 0 && reg.camera < num_cameras,
            "registration references unknown camera");
  }
  require(ck.liveness.last_heard.size() == cameras &&
              ck.liveness.presumed_alive.size() == cameras,
          "liveness arrays disagree with camera count");
  for (const auto& [camera, entry] : ck.pending) {
    require(camera >= 0 && camera < num_cameras, "pending assignment references unknown camera");
  }
  require(ck.ledger.camera_joules.size() == cameras && ck.ledger.residual.size() == cameras,
          "energy book arrays disagree with camera count");
  const obs::AnomalyDetector::State& anomaly = ck.anomaly;
  const std::size_t rounds = anomaly.window_sent.size();
  require(anomaly.window_lost.size() == rounds && anomaly.window_misses.size() == rounds &&
              anomaly.window_joules.size() == rounds * cameras &&
              anomaly.last_flags.size() == cameras,
          "anomaly windows disagree with each other or with camera count");
  return ck;
}

void SimulationCheckpoint::check_config(std::int32_t run_cameras, const ConfigRecord& run) const {
  if (num_cameras != run_cameras) {
    throw SnapshotError("resume: snapshot has " + std::to_string(num_cameras) +
                        " cameras, this run has " + std::to_string(run_cameras));
  }
  const auto [mine, theirs] = std::mismatch(config.begin(), config.end(), run.begin(), run.end());
  if (mine == config.end() && theirs == run.end()) return;
  const auto text = [](const ConfigRecord& record, ConfigRecord::const_iterator it) {
    return it == record.end() ? std::string("(no field)") : it->name + "=" + it->value;
  };
  throw SnapshotError("resume: config differs: " + text(config, mine) + " (snapshot) vs " +
                      text(run, theirs) + " (this run)");
}

void SimulationCheckpoint::save(const std::string& path) const {
  write_snapshot_file(path, encode());
}

SimulationCheckpoint SimulationCheckpoint::load(const std::string& path) {
  return decode(read_snapshot_file(path));
}

}  // namespace eecs::runtime
