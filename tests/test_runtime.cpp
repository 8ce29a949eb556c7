// Durable-runtime layer: snapshot container integrity, checkpoint
// encode/decode hardening (truncation, leftover bytes, inconsistent anomaly
// windows, corruption fuzz before and past the section CRC), the loop config
// record resume checks, deterministic retry backoff with jitter, ack
// semantics (late acks counted, never re-applied), liveness, the round
// watchdog, the graceful-degradation ladder, FaultPlan validation, and
// end-to-end checkpoint/resume bit-exactness of the closed loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/simulation.hpp"
#include "detect/detection.hpp"
#include "loop_digest.hpp"
#include "net/fault.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/deadline.hpp"
#include "runtime/degradation.hpp"
#include "runtime/protocol.hpp"
#include "runtime/snapshot.hpp"

namespace eecs {
namespace {

using runtime::AssignmentRetryQueue;
using runtime::DegradationLadder;
using runtime::DegradationPolicy;
using runtime::DegradationRung;
using runtime::LivenessTracker;
using runtime::RetryPolicy;
using runtime::RoundWatchdog;
using runtime::SimulationCheckpoint;
using runtime::SnapshotError;

// ---------------------------------------------------------------- Snapshot

TEST(Snapshot, SectionRoundtripPreservesPayloads) {
  runtime::SnapshotWriter w;
  w.section("alpha").write_u32(0xdeadbeef);
  ByteWriter& beta = w.section("beta");
  beta.write_f64(3.25);
  beta.write_string("hello");
  const std::vector<std::uint8_t> bytes = w.finish();

  const runtime::SnapshotReader r(bytes);
  ByteReader alpha = r.open("alpha");
  EXPECT_EQ(alpha.read_u32(), 0xdeadbeefu);
  ByteReader b = r.open("beta");
  EXPECT_EQ(b.read_f64(), 3.25);
  EXPECT_EQ(b.read_string(), "hello");
  EXPECT_THROW((void)r.open("gamma"), SnapshotError);
}

TEST(Snapshot, UnknownSectionsAreSkippedForForwardCompatibility) {
  runtime::SnapshotWriter w;
  w.section("known").write_i32(7);
  w.section("from_the_future").write_u64(0x123456789abcdef0ull);
  const std::vector<std::uint8_t> bytes = w.finish();
  const runtime::SnapshotReader r(bytes);
  EXPECT_EQ(r.open("known").read_i32(), 7);
}

TEST(Snapshot, BadMagicAndFutureVersionAreRejected) {
  runtime::SnapshotWriter w;
  w.section("s").write_u8(1);
  std::vector<std::uint8_t> bytes = w.finish();

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(runtime::SnapshotReader{bad_magic}, SnapshotError);

  std::vector<std::uint8_t> future = bytes;
  future[4] = static_cast<std::uint8_t>(runtime::kSnapshotVersion + 1);
  EXPECT_THROW(runtime::SnapshotReader{future}, SnapshotError);
}

// Only this build's version is read: an older one is refused by the
// container, not left to each caller.
TEST(Snapshot, OlderVersionIsRejected) {
  runtime::SnapshotWriter w;
  w.section("s").write_u8(1);
  std::vector<std::uint8_t> bytes = w.finish();
  bytes[4] = static_cast<std::uint8_t>(runtime::kSnapshotVersion - 1);  // u32 LE version.
  EXPECT_THROW(runtime::SnapshotReader{bytes}, SnapshotError);
}

// The writer never repeats a name; a repeat must not overwrite the first.
TEST(Snapshot, RepeatedSectionNameIsRejected) {
  runtime::SnapshotWriter w;
  w.section("ab").write_u8(1);
  w.section("ac").write_u8(2);
  std::vector<std::uint8_t> bytes = w.finish();
  // Rename "ac" to "ab": names sit outside the CRC, so only the repeat is wrong.
  const std::string second = "ac";
  const auto it = std::search(bytes.begin(), bytes.end(), second.begin(), second.end());
  ASSERT_NE(it, bytes.end());
  *(it + 1) = 'b';
  EXPECT_THROW(runtime::SnapshotReader{bytes}, SnapshotError);
}

TEST(Snapshot, PayloadCorruptionFailsTheSectionCrc) {
  runtime::SnapshotWriter w;
  ByteWriter& s = w.section("data");
  for (int i = 0; i < 64; ++i) s.write_u8(static_cast<std::uint8_t>(i));
  std::vector<std::uint8_t> bytes = w.finish();
  bytes.back() ^= 0x01;  // Last payload byte.
  EXPECT_THROW(runtime::SnapshotReader{bytes}, SnapshotError);
}

TEST(Snapshot, MissingFileThrowsSnapshotError) {
  EXPECT_THROW((void)runtime::read_snapshot_file("does_not_exist.snap"), SnapshotError);
}

// -------------------------------------------------------------- Checkpoint

/// A checkpoint whose every field holds a value other than its default, so
/// a member that a field list leaves out cannot survive the round trip.
SimulationCheckpoint sample_checkpoint() {
  SimulationCheckpoint ck;
  ck.num_cameras = 2;
  ck.config = {{"dataset", "1"}, {"seed", "777"}, {"context_gate.enabled", "0"}};
  ck.frame_index = 1600;
  ck.rounds_completed = 1;
  ck.humans_detected = 42;
  ck.humans_present = 50;
  ck.gt_frames_processed = 24;
  ck.windows_evaluated = 716720;
  ck.windows_pruned = 348144;
  ck.rounds.push_back({1400, {10.5, 0.9, 10.0, 0.88, 2, "cam0:HOG cam1:ACF"}, true});
  ck.faults = {10, 2, 1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  ck.cameras.push_back({true, true, detect::AlgorithmId::Acf, -1.25, 3});
  ck.cameras.push_back({true, false, detect::AlgorithmId::C4, 0.5, 4});
  ck.deadline_strikes = {1, 2};
  ck.ladder = {{1, 2, 3}, {0, 2, 1}};
  ck.registrations.push_back({1, 2, 3.0});
  ck.registrations.push_back({0, 0, 2.5});
  ck.liveness.last_heard = {1599.5, 1580.5};
  ck.liveness.presumed_alive = {1, 0};
  ck.controller_active = {0, 1};
  ck.pending.push_back({1, {{1, 2, 3, 4}, 4, 2, 1712.5}});
  ck.next_sequence = 5;
  ck.network.now = 1600.0;
  ck.network.sequence = 99;
  ck.network.rx_dropped = 3;
  ck.network.rng = {{1, 2, 3, 4}, true, 0.25};
  ck.network.queue.push_back({1600.25, 98, 2, 1, {9, 8, 7}});
  ck.ledger.cpu_total = 12.5;
  ck.ledger.radio_total = 0.75;
  ck.ledger.exact_total = {{5, 13, 1}, true};
  ck.ledger.debits = 3;
  ck.ledger.camera_joules = {10.0, 3.25};
  ck.ledger.residual = {55.0, 44.0};
  obs::LedgerEntry entry;
  entry.joules = 3.25;
  entry.debits = 2;
  entry.exact = {{7, 3, 2}, true};
  ck.ledger.entries.emplace_back(obs::LedgerKey{1, 0, obs::EnergyStage::Assessment, 1,
                                                obs::EnergyCause::Features},
                                 entry);
  ck.anomaly.rounds_seen = 1;
  ck.anomaly.window_sent = {10};
  ck.anomaly.window_lost = {2};
  ck.anomaly.window_misses = {1};
  ck.anomaly.window_joules = {10.0, 3.25};
  ck.anomaly.last_flags = {0, 1};
  return ck;
}

TEST(Checkpoint, EncodeDecodeRoundtripIsLossless) {
  const SimulationCheckpoint ck = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = ck.encode();
  const SimulationCheckpoint back = SimulationCheckpoint::decode(bytes);

  EXPECT_EQ(back.num_cameras, ck.num_cameras);
  EXPECT_EQ(back.config, ck.config);
  EXPECT_EQ(back.frame_index, ck.frame_index);
  EXPECT_EQ(back.rounds_completed, ck.rounds_completed);
  EXPECT_EQ(back.windows_evaluated, ck.windows_evaluated);
  EXPECT_EQ(back.windows_pruned, ck.windows_pruned);
  ASSERT_EQ(back.rounds.size(), 1u);
  EXPECT_EQ(back.rounds[0].stats.summary, "cam0:HOG cam1:ACF");
  EXPECT_TRUE(back.faults == ck.faults);
  ASSERT_EQ(back.cameras.size(), 2u);
  EXPECT_EQ(back.cameras[1].threshold, 0.5);
  EXPECT_EQ(back.ladder[1].stress_rung, 2);
  ASSERT_EQ(back.pending.size(), 1u);
  EXPECT_EQ(back.pending[0].second.payload, ck.pending[0].second.payload);
  EXPECT_EQ(back.network.rng.words, ck.network.rng.words);
  ASSERT_EQ(back.network.queue.size(), 1u);
  EXPECT_EQ(back.network.queue[0].payload, ck.network.queue[0].payload);
  EXPECT_EQ(back.ledger.cpu_total, ck.ledger.cpu_total);
  EXPECT_EQ(back.ledger.radio_total, ck.ledger.radio_total);
  EXPECT_EQ(back.ledger.residual, ck.ledger.residual);
  ASSERT_EQ(back.ledger.entries.size(), 1u);
  EXPECT_EQ(back.ledger.entries[0].first, ck.ledger.entries[0].first);
  EXPECT_EQ(back.ledger.entries[0].second.exact, ck.ledger.entries[0].second.exact);
  EXPECT_EQ(back.anomaly.window_joules, ck.anomaly.window_joules);

  // The whole checkpoint comes back, every member of every record, and it
  // re-encodes to the exact same bytes (resume sees everything the writer
  // saved).
  EXPECT_TRUE(back == ck);
  EXPECT_EQ(back.encode(), bytes);
}

TEST(Checkpoint, EveryTruncationThrowsSnapshotError) {
  const std::vector<std::uint8_t> bytes = sample_checkpoint().encode();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_THROW((void)SimulationCheckpoint::decode(prefix), SnapshotError) << "len=" << len;
  }
}

TEST(Checkpoint, RandomCorruptionNeverEscapesSnapshotError) {
  const std::vector<std::uint8_t> bytes = sample_checkpoint().encode();
  Rng rng(20260809);
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<std::uint8_t> corrupt = bytes;
    const int flips = rng.uniform_int(1, 4);
    for (int i = 0; i < flips; ++i) {
      const auto pos =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(corrupt.size()) - 1));
      corrupt[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    try {
      (void)SimulationCheckpoint::decode(corrupt);  // Unflipped flip: fine.
    } catch (const SnapshotError&) {
      // Rejected cleanly: acceptable. Anything else fails the test.
    }
  }
}

/// Where a section's CRC and payload sit in an encoded snapshot.
struct SectionSpan {
  std::string name;
  std::size_t crc_at = 0;
  std::size_t begin = 0;
  std::size_t size = 0;
};

/// Walks the container framing (snapshot.hpp): magic | version | count |
/// per section: name | payload length | crc32 | payload.
std::vector<SectionSpan> section_spans(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  (void)r.read_u32();
  (void)r.read_u32();
  const std::uint32_t count = r.read_u32();
  std::vector<SectionSpan> spans;
  for (std::uint32_t i = 0; i < count; ++i) {
    SectionSpan span;
    span.name = r.read_string();
    span.size = r.read_u32();
    span.crc_at = bytes.size() - r.remaining();
    (void)r.read_u32();
    span.begin = bytes.size() - r.remaining();
    for (std::size_t b = 0; b < span.size; ++b) (void)r.read_u8();
    spans.push_back(span);
  }
  return spans;
}

/// Recomputes a section's CRC, so a corrupted payload reaches its decoder.
void reseal(std::vector<std::uint8_t>& bytes, const SectionSpan& span) {
  const std::uint32_t crc =
      runtime::crc32(std::span<const std::uint8_t>(bytes).subspan(span.begin, span.size));
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[span.crc_at + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

// The framed-file fuzz above never gets past a section CRC. Here every trial
// corrupts one section's payload and re-seals its CRC, so the section
// decoders themselves see the damage.
TEST(Checkpoint, PayloadCorruptionPastTheCrcNeverEscapesSnapshotError) {
  const std::vector<std::uint8_t> bytes = sample_checkpoint().encode();
  const std::vector<SectionSpan> spans = section_spans(bytes);
  const auto rejected = [](const std::vector<std::uint8_t>& candidate) {
    try {
      (void)SimulationCheckpoint::decode(candidate);
      return false;
    } catch (const SnapshotError&) {
      return true;  // Anything but SnapshotError escapes and fails the test.
    }
  };
  Rng rng(20261017);
  int rejections = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> corrupt = bytes;
    const SectionSpan& span =
        spans[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(spans.size()) - 1))];
    const int flips = rng.uniform_int(1, 3);
    for (int i = 0; i < flips; ++i) {
      const auto offset =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(span.size) - 1));
      corrupt[span.begin + offset] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    reseal(corrupt, span);
    if (rejected(corrupt)) ++rejections;
  }
  EXPECT_GT(rejections, 0);

  // A count of 0xFFFFFFFF is refused before anything is allocated.
  for (const SectionSpan& span : spans) {
    if (span.name != "rounds" && span.name != "cameras" && span.name != "registrations") continue;
    std::vector<std::uint8_t> huge = bytes;
    for (std::size_t i = 0; i < 4; ++i) huge[span.begin + i] = 0xFF;
    reseal(huge, span);
    EXPECT_TRUE(rejected(huge)) << span.name;
  }
}

/// Re-frames a snapshot with section `name`'s payload changed by `edit`, so
/// every length and CRC is valid again.
template <typename Edit>
std::vector<std::uint8_t> reframe(const std::vector<std::uint8_t>& bytes, const std::string& name,
                                  Edit&& edit) {
  runtime::SnapshotWriter out;
  for (const SectionSpan& span : section_spans(bytes)) {
    const auto begin = bytes.begin() + static_cast<std::ptrdiff_t>(span.begin);
    std::vector<std::uint8_t> payload(begin, begin + static_cast<std::ptrdiff_t>(span.size));
    if (span.name == name) edit(payload);
    out.section(span.name).write_bytes(payload);
  }
  return out.finish();
}

// A section longer than its field list and a file longer than its last
// section are refused, although every length and CRC is valid.
TEST(Checkpoint, LeftoverBytesAreRejected) {
  const std::vector<std::uint8_t> bytes = sample_checkpoint().encode();
  const auto unchanged = [](std::vector<std::uint8_t>&) {};
  ASSERT_EQ(reframe(bytes, "progress", unchanged), bytes);

  const std::vector<std::uint8_t> grown_section =
      reframe(bytes, "progress", [](std::vector<std::uint8_t>& payload) { payload.push_back(0); });
  EXPECT_NO_THROW(runtime::SnapshotReader{grown_section});
  EXPECT_THROW((void)SimulationCheckpoint::decode(grown_section), SnapshotError);

  std::vector<std::uint8_t> grown_file = bytes;
  grown_file.push_back(0);
  EXPECT_THROW(runtime::SnapshotReader{grown_file}, SnapshotError);
  EXPECT_THROW((void)SimulationCheckpoint::decode(grown_file), SnapshotError);
}

// The anomaly detector indexes its joules window by round and camera, so the
// windows must agree with each other and with the camera count.
TEST(Checkpoint, InconsistentAnomalyWindowsAreRejected) {
  const auto decodes = [](const SimulationCheckpoint& ck) {
    try {
      (void)SimulationCheckpoint::decode(ck.encode());
      return true;
    } catch (const SnapshotError&) {
      return false;
    }
  };
  // Eight full rounds decode.
  SimulationCheckpoint full = sample_checkpoint();
  full.anomaly.window_sent.assign(8, 10);
  full.anomaly.window_lost.assign(8, 2);
  full.anomaly.window_misses.assign(8, 1);
  full.anomaly.window_joules.assign(16, 1.5);
  EXPECT_TRUE(decodes(full));

  SimulationCheckpoint no_joules = full;
  no_joules.anomaly.window_joules.clear();
  EXPECT_FALSE(decodes(no_joules));
  SimulationCheckpoint short_joules = full;
  short_joules.anomaly.window_joules.pop_back();
  EXPECT_FALSE(decodes(short_joules));
  SimulationCheckpoint short_lost = full;
  short_lost.anomaly.window_lost.pop_back();
  EXPECT_FALSE(decodes(short_lost));
  SimulationCheckpoint long_misses = full;
  long_misses.anomaly.window_misses.push_back(0);
  EXPECT_FALSE(decodes(long_misses));
  SimulationCheckpoint extra_flag = full;
  extra_flag.anomaly.last_flags.push_back(0);
  EXPECT_FALSE(decodes(extra_flag));
}

TEST(Checkpoint, CameraCountMismatchIsRejected) {
  SimulationCheckpoint ck = sample_checkpoint();
  ck.num_cameras = 3;  // But only 2 camera states.
  EXPECT_THROW((void)SimulationCheckpoint::decode(ck.encode()), SnapshotError);

  // The energy book holds one residual and one joule total per camera, in
  // every build: a short or an empty book is refused.
  SimulationCheckpoint short_ledger = sample_checkpoint();
  short_ledger.ledger.residual.pop_back();
  EXPECT_THROW((void)SimulationCheckpoint::decode(short_ledger.encode()), SnapshotError);
  SimulationCheckpoint empty_book = sample_checkpoint();
  empty_book.ledger = {};
  EXPECT_THROW((void)SimulationCheckpoint::decode(empty_book.encode()), SnapshotError);
}

// A resumed camera's algorithm indexes the detector table, so an id out of
// range must not get past decode.
TEST(Checkpoint, OutOfRangeAlgorithmIsRejected) {
  for (const std::int32_t algorithm : {200, -1, detect::kNumAlgorithms}) {
    SimulationCheckpoint ck = sample_checkpoint();
    ck.cameras[1].algorithm = static_cast<detect::AlgorithmId>(algorithm);
    EXPECT_THROW((void)SimulationCheckpoint::decode(ck.encode()), SnapshotError) << algorithm;
  }
}

// A well-framed, CRC-valid section that the table does not name is refused:
// this version's writer never emits one.
TEST(Checkpoint, SectionOutsideTheTableIsRejected) {
  std::vector<std::uint8_t> bytes = sample_checkpoint().encode();
  ASSERT_NO_THROW((void)SimulationCheckpoint::decode(bytes));
  const std::uint8_t payload[] = {0};
  ByteWriter extra;
  extra.write_string("extra");
  extra.write_u32(1);
  extra.write_u32(runtime::crc32(payload));
  extra.write_u8(payload[0]);
  bytes.insert(bytes.end(), extra.bytes().begin(), extra.bytes().end());
  ++bytes[8];  // u32 LE section count.
  ASSERT_NO_THROW(runtime::SnapshotReader{bytes});
  EXPECT_THROW((void)SimulationCheckpoint::decode(bytes), SnapshotError);
}

// An older snapshot cannot show that its config matches this build's record.
TEST(Checkpoint, AnotherSnapshotVersionIsRejected) {
  std::vector<std::uint8_t> bytes = sample_checkpoint().encode();
  bytes[4] = static_cast<std::uint8_t>(runtime::kSnapshotVersion - 1);  // u32 LE version.
  EXPECT_THROW((void)SimulationCheckpoint::decode(bytes), SnapshotError);
}

// ----------------------------------------------------------- Config record

/// Sets (or, with nullptr, clears) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Changes a config field's value: negate a bool, advance an enum, bump a
/// number, grow a vector.
template <typename T>
void flip(T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    field = !field;
  } else if constexpr (std::is_enum_v<T>) {
    field = static_cast<T>(static_cast<int>(field) + 1);
  } else if constexpr (std::is_arithmetic_v<T>) {
    field = static_cast<T>(field + 1);
  } else {
    field.emplace_back();
  }
}

TEST(ConfigRecord, FlippingAnyFieldChangesTheRecordAtThatName) {
  const ScopedEnv no_gate_override("EECS_CONTEXT_GATE", nullptr);
  const core::EecsSimulationConfig base;
  const runtime::ConfigRecord before = core::config_record(base);
  std::size_t index = 0;
  core::for_each_config_field(base, [&](const char* name, const auto&) {
    core::EecsSimulationConfig changed = base;
    std::size_t i = 0;
    core::for_each_config_field(changed, [&](const char*, auto& field) {
      if (i++ == index) flip(field);
    });
    ++index;
    const runtime::ConfigRecord after = core::config_record(changed);
    ASSERT_EQ(after.size(), before.size());
    const auto [was, now] = std::mismatch(before.begin(), before.end(), after.begin());
    ASSERT_NE(was, before.end()) << name << " does not reach the record";
    EXPECT_EQ(now->name, name);
    EXPECT_TRUE(std::equal(std::next(was), before.end(), std::next(now))) << name;
  });
  EXPECT_EQ(index, before.size());
}

/// Converts to any type: counts the initializers an aggregate accepts.
struct AnyField {
  template <typename T>
  operator T() const;  // NOLINT: only named in unevaluated probes.
};

template <typename T, std::size_t... I>
constexpr bool accepts_initializers(std::index_sequence<I...>) {
  return requires { T{(static_cast<void>(I), AnyField{})...}; };
}

/// Number of direct members of the aggregate T.
template <typename T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (accepts_initializers<T>(std::make_index_sequence<N + 1>{})) {
    return member_count<T, N + 1>();
  } else {
    return N;
  }
}

/// Distinct members of the struct at `prefix` that the config field list or
/// the execution-only list names.
std::size_t members_named(const std::string& prefix) {
  std::set<std::string> members;
  const auto note = [&](const std::string& name) {
    if (name.rfind(prefix, 0) != 0) return;
    const std::string rest = name.substr(prefix.size());
    members.insert(rest.substr(0, rest.find('.')));
  };
  const core::EecsSimulationConfig config;
  core::for_each_config_field(config, [&](const char* name, const auto&) { note(name); });
  for (const char* name : core::kExecutionOnlyConfigFields) note(name);
  return members.size();
}

// A member added to a config struct must be recorded or declared
// execution-only, or this fails.
TEST(ConfigRecord, EveryConfigMemberIsRecordedOrExecutionOnly) {
  EXPECT_EQ(member_count<core::EecsSimulationConfig>(), members_named(""));
  EXPECT_EQ(member_count<detect::ContextGateOptions>(), members_named("context_gate."));
  EXPECT_EQ(member_count<core::ControllerParams>(), members_named("controller."));
  EXPECT_EQ(member_count<core::OfflineOptions>(), members_named("models."));
  EXPECT_EQ(member_count<energy::CpuEnergyModel>(), members_named("models.cpu_model."));
  EXPECT_EQ(member_count<energy::RadioModel>(), members_named("models.radio_model."));
  EXPECT_EQ(member_count<imaging::JpegModel>(), members_named("models.jpeg_model."));
  EXPECT_EQ(member_count<domain::ComparatorParams>(), members_named("models.comparator."));
  EXPECT_EQ(member_count<net::LinkQuality>(), members_named("uplink."));
  EXPECT_EQ(member_count<net::LinkQuality>(), members_named("downlink."));
  EXPECT_EQ(member_count<net::FaultPlan>(), members_named("faults."));
  EXPECT_EQ(member_count<core::ProtocolOptions>(), members_named("protocol."));
  EXPECT_EQ(member_count<core::RuntimeOptions>(), members_named("runtime."));
  EXPECT_EQ(member_count<runtime::DegradationPolicy>(), members_named("runtime.degradation."));
  EXPECT_EQ(member_count<obs::AnomalyOptions>(), members_named("runtime.anomaly."));
}

// ------------------------------------------------------------ Retry policy

TEST(RetryPolicyTest, DefaultsReproduceTheLegacySchedule) {
  const RetryPolicy policy;
  const double stride = 25.0;
  // Initial push timeout (attempts = 0), then base + attempts capped at 6.5.
  // The loop's resend path passes attempts = 2, 3, 4 -> 4.5, 5.5, 6.5.
  EXPECT_EQ(policy.backoff(0, 0, stride), 2.5 * stride);
  EXPECT_EQ(policy.backoff(0, 1, stride), 3.5 * stride);
  EXPECT_EQ(policy.backoff(0, 2, stride), 4.5 * stride);
  EXPECT_EQ(policy.backoff(0, 3, stride), 5.5 * stride);
  EXPECT_EQ(policy.backoff(0, 4, stride), 6.5 * stride);
  EXPECT_EQ(policy.backoff(0, 40, stride), 6.5 * stride);  // Capped.
  // No jitter: identical across cameras.
  EXPECT_EQ(policy.backoff(0, 2, stride), policy.backoff(7, 2, stride));
}

TEST(RetryPolicyTest, JitterIsDeterministicBoundedAndPerCamera) {
  RetryPolicy policy;
  policy.jitter_fraction = 0.25;
  policy.jitter_seed = 1234;
  const double stride = 25.0;

  RetryPolicy same = policy;
  bool any_differs_across_cameras = false;
  for (int camera = 0; camera < 8; ++camera) {
    for (int attempts = 0; attempts <= 5; ++attempts) {
      const double base = RetryPolicy{}.backoff(camera, attempts, stride);
      const double jittered = policy.backoff(camera, attempts, stride);
      // Reproducible from the seed.
      EXPECT_EQ(jittered, same.backoff(camera, attempts, stride));
      // Bounded: [base, base * (1 + fraction)).
      EXPECT_GE(jittered, base);
      EXPECT_LT(jittered, base * (1.0 + policy.jitter_fraction));
      if (camera > 0 && jittered != policy.backoff(0, attempts, stride)) {
        any_differs_across_cameras = true;
      }
    }
  }
  EXPECT_TRUE(any_differs_across_cameras);

  RetryPolicy other_seed = policy;
  other_seed.jitter_seed = 4321;
  EXPECT_NE(policy.backoff(1, 1, stride), other_seed.backoff(1, 1, stride));
}

// ------------------------------------------------------- Retry queue + acks

TEST(RetryQueue, AckedStaleAndLateOutcomes) {
  AssignmentRetryQueue queue{RetryPolicy{}};
  EXPECT_FALSE(queue.push(3, {1, 2, 3}, 10, 1000.0, 25.0));
  EXPECT_EQ(queue.ack(3, 10), AssignmentRetryQueue::AckOutcome::Acked);
  EXPECT_TRUE(queue.empty());

  // Ack after the entry is gone: Late — counted by the caller, the queue is
  // untouched, the assignment is never re-applied.
  EXPECT_EQ(queue.ack(3, 10), AssignmentRetryQueue::AckOutcome::Late);
  EXPECT_TRUE(queue.empty());

  // A newer push supersedes an unacked older one; the old ack goes Stale.
  EXPECT_FALSE(queue.push(5, {1}, 20, 1000.0, 25.0));
  EXPECT_TRUE(queue.push(5, {2}, 21, 1010.0, 25.0));  // Replaced.
  EXPECT_EQ(queue.ack(5, 20), AssignmentRetryQueue::AckOutcome::Stale);
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.ack(5, 21), AssignmentRetryQueue::AckOutcome::Acked);
  EXPECT_TRUE(queue.empty());
}

TEST(RetryQueue, LegacyResendScheduleAndAbandon) {
  AssignmentRetryQueue queue{RetryPolicy{}};
  const double stride = 25.0;
  queue.push(0, {7}, 1, 0.0, stride);

  std::vector<double> resend_times;
  std::vector<double> abandon_times;
  for (double now = 0.0; now <= 600.0; now += 12.5) {
    queue.process_due(
        now, stride, [&](int, const AssignmentRetryQueue::Entry&) { resend_times.push_back(now); },
        [&](int, const AssignmentRetryQueue::Entry&) { abandon_times.push_back(now); });
  }
  // Push at t=0 with initial timeout 2.5 GT frames: max_retries = 3 resends
  // at +2.5, then +4.5, then +5.5 GT frames; the +6.5 wait ends in abandon.
  const std::vector<double> expected = {62.5, 62.5 + 112.5, 62.5 + 112.5 + 137.5};
  EXPECT_EQ(resend_times, expected);
  ASSERT_EQ(abandon_times.size(), 1u);
  EXPECT_EQ(abandon_times[0], 62.5 + 112.5 + 137.5 + 162.5);
  EXPECT_TRUE(queue.empty());
}

TEST(RetryQueue, DropStopsRetryingIntoTheVoid) {
  AssignmentRetryQueue queue{RetryPolicy{}};
  queue.push(2, {1}, 1, 0.0, 25.0);
  EXPECT_TRUE(queue.drop(2));
  EXPECT_FALSE(queue.drop(2));
  int resends = 0;
  queue.process_due(
      1.0e9, 25.0, [&](int, const AssignmentRetryQueue::Entry&) { ++resends; },
      [&](int, const AssignmentRetryQueue::Entry&) { ++resends; });
  EXPECT_EQ(resends, 0);
}

// ---------------------------------------------------------------- Liveness

TEST(Liveness, SilenceKillsAndMessagesRecover) {
  LivenessTracker tracker(3, 50.0);
  tracker.mark_heard(0, 100.0);
  tracker.mark_heard(1, 100.0);
  tracker.mark_heard(2, 130.0);

  EXPECT_TRUE(tracker.sweep(140.0).empty());
  const std::vector<int> dead = tracker.sweep(160.0);
  EXPECT_EQ(dead, (std::vector<int>{0, 1}));
  EXPECT_FALSE(tracker.alive(0));
  EXPECT_TRUE(tracker.alive(2));
  EXPECT_EQ(tracker.alive_set(), (std::set<int>{2}));
  // Already dead: not reported again.
  EXPECT_TRUE(tracker.sweep(170.0).empty());

  EXPECT_TRUE(tracker.mark_heard(0, 180.0));   // Recovered.
  EXPECT_FALSE(tracker.mark_heard(0, 181.0));  // Just alive.
  EXPECT_TRUE(tracker.alive(0));
}

TEST(Liveness, RestoreTakesOneEntryPerCamera) {
  LivenessTracker tracker(2, 50.0);
  const LivenessTracker::State state{{100.0, 40.0}, {1, 0}};
  tracker.restore(state);
  EXPECT_TRUE(tracker.state() == state);
  EXPECT_EQ(tracker.alive_set(), (std::set<int>{0}));
  EXPECT_THROW(tracker.restore({{100.0}, {1}}), ContractViolation);
  EXPECT_THROW(tracker.restore({{100.0, 40.0}, {1, 0, 1}}), ContractViolation);
  EXPECT_TRUE(tracker.state() == state);
}

// ---------------------------------------------------------------- Watchdog

TEST(Watchdog, DisabledWatchdogNeverMissesOrFails) {
  RoundWatchdog watchdog({0.0, 2}, 4);
  watchdog.arm(0.0, 25.0, {0, 1, 2, 3});
  EXPECT_TRUE(watchdog.close().empty());
  EXPECT_TRUE(watchdog.failed_set().empty());
}

TEST(Watchdog, StrikesAccumulateAndClearOnReport) {
  RoundWatchdog watchdog({3.0, 2}, 3);  // Deadline 3 GT frames, fail at 2.

  // Round 1: camera 1 reports in time, camera 2 reports late, camera 0 never.
  watchdog.arm(1000.0, 25.0, {0, 1, 2});
  watchdog.report(1, 1050.0);
  watchdog.report(2, 1100.0);  // After 1000 + 3*25.
  std::vector<RoundWatchdog::Miss> misses = watchdog.close();
  ASSERT_EQ(misses.size(), 2u);
  EXPECT_EQ(misses[0].camera, 0);
  EXPECT_EQ(misses[0].strikes, 1);
  EXPECT_FALSE(misses[0].failed);
  EXPECT_EQ(misses[1].camera, 2);
  EXPECT_TRUE(watchdog.failed_set().empty());

  // Round 2: camera 0 misses again and fails out; camera 2 reports in time
  // and its strike clears.
  watchdog.arm(1600.0, 25.0, {0, 1, 2});
  watchdog.report(1, 1610.0);
  watchdog.report(2, 1620.0);
  misses = watchdog.close();
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].camera, 0);
  EXPECT_EQ(misses[0].strikes, 2);
  EXPECT_TRUE(misses[0].failed);
  EXPECT_EQ(watchdog.failed_set(), (std::set<int>{0}));
  EXPECT_EQ(watchdog.strikes(2), 0);

  // Reports outside an armed round are ignored.
  watchdog.report(0, 1700.0);
  EXPECT_EQ(watchdog.strikes(0), 2);
}

// ------------------------------------------------------------------ Ladder

TEST(Ladder, DisabledLadderIsAlwaysFull) {
  DegradationLadder ladder(DegradationPolicy{}, 2);
  EXPECT_FALSE(ladder.enabled());
  EXPECT_TRUE(ladder.on_round(0, 0.001, true, true).empty());
  EXPECT_EQ(ladder.rung(0), DegradationRung::Full);
}

DegradationPolicy enabled_policy() {
  DegradationPolicy policy;
  policy.enabled = true;
  return policy;
}

TEST(Ladder, BatteryFloorIsMonotoneEvenIfTheReadingImproves) {
  DegradationLadder ladder(enabled_policy(), 1);
  EXPECT_EQ(ladder.battery_rung(0.5), DegradationRung::Full);
  EXPECT_EQ(ladder.battery_rung(0.2), DegradationRung::CheapAlgorithm);
  EXPECT_EQ(ladder.battery_rung(0.08), DegradationRung::SkipFrames);
  EXPECT_EQ(ladder.battery_rung(0.03), DegradationRung::MetadataOnly);
  EXPECT_EQ(ladder.battery_rung(0.01), DegradationRung::Parked);

  auto transitions = ladder.on_round(0, 0.08, false, false);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].to, DegradationRung::SkipFrames);
  EXPECT_EQ(transitions[0].trigger, DegradationLadder::Trigger::Battery);

  // A (hypothetically) improved reading never raises the floor back up.
  EXPECT_TRUE(ladder.on_round(0, 0.9, false, false).empty());
  EXPECT_EQ(ladder.rung(0), DegradationRung::SkipFrames);
}

TEST(Ladder, StressStepsDownPerTriggerAndRecoversAfterCleanRounds) {
  DegradationLadder ladder(enabled_policy(), 1);

  // Deadline miss and fault storm in one round: two steps down.
  auto transitions = ladder.on_round(0, 1.0, true, true);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0].to, DegradationRung::CheapAlgorithm);
  EXPECT_EQ(transitions[0].trigger, DegradationLadder::Trigger::Deadline);
  EXPECT_EQ(transitions[1].to, DegradationRung::SkipFrames);
  EXPECT_EQ(transitions[1].trigger, DegradationLadder::Trigger::FaultStorm);
  EXPECT_EQ(ladder.rung(0), DegradationRung::SkipFrames);

  // Default recovery_rounds = 2: first clean round holds, second steps up.
  EXPECT_TRUE(ladder.on_round(0, 1.0, false, false).empty());
  transitions = ladder.on_round(0, 1.0, false, false);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].from, DegradationRung::SkipFrames);
  EXPECT_EQ(transitions[0].to, DegradationRung::CheapAlgorithm);
  EXPECT_EQ(transitions[0].trigger, DegradationLadder::Trigger::Recovery);

  // Two more clean rounds: back to Full; further clean rounds are no-ops.
  EXPECT_TRUE(ladder.on_round(0, 1.0, false, false).empty());
  transitions = ladder.on_round(0, 1.0, false, false);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].to, DegradationRung::Full);
  EXPECT_TRUE(ladder.on_round(0, 1.0, false, false).empty());
  EXPECT_TRUE(ladder.on_round(0, 1.0, false, false).empty());
  EXPECT_EQ(ladder.rung(0), DegradationRung::Full);
}

// --------------------------------------------------------- FaultPlan checks

TEST(FaultPlanValidation, AcceptsAWellFormedPlan) {
  net::FaultPlan plan;
  plan.uplink_loss = 0.1;
  plan.downlink_loss = 0.05;
  plan.loss_windows.push_back({100.0, 200.0, 1.0, -1});
  plan.add_crash(1, 300.0, 400.0);
  plan.add_crash(1, 500.0, 600.0);  // Same node, disjoint: fine.
  plan.add_crash(2, 350.0, 450.0);  // Overlaps node 1's window: fine.
  EXPECT_NO_THROW(plan.validate());
  EXPECT_NO_THROW(plan.validate(3));
}

TEST(FaultPlanValidation, RejectsMalformedPlans) {
  {
    net::FaultPlan plan;
    plan.uplink_loss = 1.5;
    EXPECT_THROW(plan.validate(), net::FaultPlan::ValidationError);
  }
  {
    net::FaultPlan plan;
    plan.loss_windows.push_back({200.0, 100.0, 0.5, -1});  // Inverted window.
    EXPECT_THROW(plan.validate(), net::FaultPlan::ValidationError);
  }
  {
    net::FaultPlan plan;
    plan.loss_windows.push_back({100.0, 200.0, -0.25, -1});  // Negative probability.
    EXPECT_THROW(plan.validate(), net::FaultPlan::ValidationError);
  }
  {
    net::FaultPlan plan;
    plan.add_crash(-1, 100.0, 200.0);  // Crashes need a concrete node.
    EXPECT_THROW(plan.validate(), net::FaultPlan::ValidationError);
  }
  {
    net::FaultPlan plan;
    plan.add_crash(5, 100.0, 200.0);
    EXPECT_NO_THROW(plan.validate());  // Node count unknown: allowed.
    EXPECT_THROW(plan.validate(5), net::FaultPlan::ValidationError);
  }
  {
    net::FaultPlan plan;
    plan.add_crash(1, 100.0, 300.0);
    plan.add_crash(1, 200.0, 400.0);  // Same-node overlap.
    EXPECT_THROW(plan.validate(), net::FaultPlan::ValidationError);
  }
}

// ----------------------------------------------- Closed-loop resume exactness

class RuntimeResume : public ::testing::Test {
 protected:
  static const core::DetectorBank& bank() {
    static const core::DetectorBank detectors = detect::make_trained_detectors(1234);
    return detectors;
  }

  static core::OfflineOptions options() {
    core::OfflineOptions opts;
    opts.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
    opts.frames_per_item = 4;
    return opts;
  }

  static const core::OfflineKnowledge& knowledge() {
    static const core::OfflineKnowledge k = core::run_offline_training(bank(), {1}, 42, options());
    return k;
  }

  static core::EecsSimulationConfig config() {
    core::EecsSimulationConfig cfg;
    cfg.dataset = 1;
    cfg.mode = core::SelectionMode::AllBest;
    cfg.budget_per_frame = 3.0;
    cfg.controller.algorithms = options().algorithms;
    cfg.models = options();
    cfg.end_frame = 2500;  // Two recalibration rounds after registration.
    // Non-trivial runtime state in the snapshot: lossy links, jittered
    // retries, a round deadline.
    cfg.uplink.loss_probability = 0.1;
    cfg.downlink.loss_probability = 0.2;
    cfg.protocol.retry_jitter_fraction = 0.25;
    cfg.runtime.round_deadline_gt_frames = 3.0;
    return cfg;
  }
};

TEST_F(RuntimeResume, CheckpointThenResumeIsBitIdenticalToUninterrupted) {
  const core::SimulationResult uninterrupted = run_eecs_simulation(bank(), knowledge(), config());

  const char* path = "test_runtime_resume.snap";
  core::EecsSimulationConfig crash = config();
  crash.runtime.checkpoint_every_rounds = 1;
  crash.runtime.checkpoint_path = path;
  crash.runtime.stop_after_rounds = 1;
  const core::SimulationResult partial = run_eecs_simulation(bank(), knowledge(), crash);
  EXPECT_LT(partial.gt_frames_processed, uninterrupted.gt_frames_processed);

  // Only execution-only fields differ from the crashed run's config: the
  // width and the checkpoint and stop settings.
  core::EecsSimulationConfig resume = config();
  resume.threads = 2;
  resume.runtime.resume_from = path;
  const core::SimulationResult resumed = run_eecs_simulation(bank(), knowledge(), resume);
  EXPECT_EQ(loop_digest::result(resumed), loop_digest::result(uninterrupted));

  // Both ways, every pushed assignment is accounted for.
  for (const core::SimulationResult* r : {&uninterrupted, &resumed}) {
    EXPECT_EQ(r->faults.assignments_pushed,
              r->faults.assignments_acked + r->faults.assignments_abandoned +
                  r->faults.assignments_dropped + r->faults.assignments_replaced +
                  r->faults.assignments_pending_at_exit);
  }

  // Resuming under a mismatched configuration is refused.
  core::EecsSimulationConfig wrong = config();
  wrong.runtime.resume_from = path;
  wrong.seed = 778;
  EXPECT_THROW((void)run_eecs_simulation(bank(), knowledge(), wrong), SnapshotError);
  std::remove(path);
}

// The context gate changes results whether the config or EECS_CONTEXT_GATE
// turns it on, so resume refuses either and names the field. A snapshot whose
// fault counters are one field short or one field long is refused too, and
// the refusal names the section, as is one whose registration names a
// training item outside this run's knowledge base.
TEST_F(RuntimeResume, MismatchedSnapshotsAreRefused) {
  const ScopedEnv no_gate_override("EECS_CONTEXT_GATE", nullptr);
  const char* path = "test_runtime_resume_gate.snap";
  core::EecsSimulationConfig crash = config();
  crash.runtime.checkpoint_every_rounds = 1;
  crash.runtime.checkpoint_path = path;
  crash.runtime.stop_after_rounds = 1;
  (void)run_eecs_simulation(bank(), knowledge(), crash);

  const auto refusal = [&](const core::EecsSimulationConfig& cfg) -> std::string {
    try {
      (void)run_eecs_simulation(bank(), knowledge(), cfg);
    } catch (const SnapshotError& e) {
      return e.what();
    }
    return "accepted";
  };
  const std::string named =
      "context_gate.enabled=0 (snapshot) vs context_gate.enabled=1 (this run)";
  core::EecsSimulationConfig gated = config();
  gated.context_gate.enabled = true;
  gated.runtime.resume_from = path;
  const std::string config_refusal = refusal(gated);
  EXPECT_NE(config_refusal.find(named), std::string::npos) << config_refusal;

  const std::vector<std::uint8_t> snapshot = runtime::read_snapshot_file(path);
  const char* edited_path = "test_runtime_resume_edited.snap";
  core::EecsSimulationConfig edited_resume = config();
  edited_resume.runtime.resume_from = edited_path;
  // frames_parked, the field list's last field, is a long.
  for (const bool longer : {false, true}) {
    runtime::write_snapshot_file(
        edited_path, reframe(snapshot, "counters", [&](std::vector<std::uint8_t>& payload) {
          payload.resize(longer ? payload.size() + sizeof(long) : payload.size() - sizeof(long));
        }));
    const std::string counters_refusal = refusal(edited_resume);
    EXPECT_NE(counters_refusal.find("'counters'"), std::string::npos)
        << (longer ? "long: " : "short: ") << counters_refusal;
  }
  SimulationCheckpoint unknown_item = SimulationCheckpoint::load(path);
  ASSERT_FALSE(unknown_item.registrations.empty());
  unknown_item.registrations.front().matched_item = static_cast<int>(knowledge().profiles().size());
  unknown_item.save(edited_path);
  const std::string item_refusal = refusal(edited_resume);
  EXPECT_NE(item_refusal.find("unknown training item"), std::string::npos) << item_refusal;
  std::remove(edited_path);

  core::EecsSimulationConfig same = config();
  same.runtime.resume_from = path;
  const ScopedEnv gate_override("EECS_CONTEXT_GATE", "1");
  const std::string env_refusal = refusal(same);
  EXPECT_NE(env_refusal.find(named), std::string::npos) << env_refusal;
  std::remove(path);
}

// A resumed run that checkpoints again must carry the earlier segments'
// fault counts into its snapshot: stop after round 1, resume and stop after
// round 2, resume again, and the whole report equals the uninterrupted run's.
TEST_F(RuntimeResume, ResumeTwiceIsBitIdenticalToUninterrupted) {
  core::EecsSimulationConfig base = config();
  base.end_frame = 3200;  // Three rounds.
  const core::SimulationResult uninterrupted = run_eecs_simulation(bank(), knowledge(), base);
  ASSERT_EQ(uninterrupted.rounds.size(), 3u);

  const char* first = "test_runtime_resume_twice_1.snap";
  const char* second = "test_runtime_resume_twice_2.snap";
  core::EecsSimulationConfig segment = base;
  segment.runtime.checkpoint_every_rounds = 1;
  segment.runtime.checkpoint_path = first;
  segment.runtime.stop_after_rounds = 1;
  (void)run_eecs_simulation(bank(), knowledge(), segment);

  segment.runtime.resume_from = first;
  segment.runtime.checkpoint_path = second;
  segment.runtime.stop_after_rounds = 2;
  (void)run_eecs_simulation(bank(), knowledge(), segment);

  core::EecsSimulationConfig last = base;
  last.runtime.resume_from = second;
  const core::SimulationResult resumed = run_eecs_simulation(bank(), knowledge(), last);
  EXPECT_EQ(loop_digest::result(resumed), loop_digest::result(uninterrupted));
  std::remove(first);
  std::remove(second);
}

}  // namespace
}  // namespace eecs
