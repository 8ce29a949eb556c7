#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace eecs {
namespace {

TEST(Contracts, ViolationThrowsWithLocation) {
  try {
    EECS_EXPECTS(1 == 2);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("Precondition"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Contracts, SatisfiedConditionDoesNotThrow) {
  EXPECT_NO_THROW(EECS_EXPECTS(2 + 2 == 4));
  EXPECT_NO_THROW(EECS_ENSURES(true));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, NormalHasApproximatelyUnitMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, SampleIndicesAreDistinctAndInRange) {
  Rng rng(5);
  const auto idx = rng.sample_indices(20, 10);
  ASSERT_EQ(idx.size(), 10u);
  std::set<int> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 10u);
  for (int v : idx) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(Rng, SampleIndicesFullPermutation) {
  Rng rng(5);
  const auto idx = rng.sample_indices(6, 6);
  std::set<int> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  // Child and parent should not produce the same stream.
  int same = 0;
  for (int i = 0; i < 50; ++i) same += (a.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.write_u8(0xab);
  w.write_u16(0x1234);
  w.write_u32(0xdeadbeef);
  w.write_u64(0x0123456789abcdefULL);
  w.write_i32(-42);
  w.write_f32(3.5f);
  w.write_f64(-2.25);
  w.write_string("hello");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 0xab);
  EXPECT_EQ(r.read_u16(), 0x1234);
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_EQ(r.read_f32(), 3.5f);
  EXPECT_EQ(r.read_f64(), -2.25);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, RoundTripVectors) {
  ByteWriter w;
  const std::vector<float> vf{1.0f, -2.0f, 0.5f};
  w.write_f32_vector(vf);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_f32_vector(), vf);
}

TEST(Bytes, UnderrunThrowsDecodeError) {
  ByteWriter w;
  w.write_u16(7);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_u32(), ByteReader::DecodeError);
}

TEST(Bytes, StringUnderrunThrows) {
  ByteWriter w;
  w.write_u32(1000);  // Claims 1000 bytes follow but none do.
  ByteReader r(w.bytes());
  EXPECT_THROW(r.read_string(), ByteReader::DecodeError);
}

TEST(Bytes, SizeTracksWrites) {
  ByteWriter w;
  EXPECT_EQ(w.size(), 0u);
  w.write_u32(1);
  EXPECT_EQ(w.size(), 4u);
  w.write_f64(1.0);
  EXPECT_EQ(w.size(), 12u);
}

TEST(Strings, FormatBehavesLikePrintf) {
  EXPECT_EQ(format("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Strings, ToFixed) {
  EXPECT_EQ(to_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(to_fixed(-0.5, 1), "-0.5");
}

TEST(Strings, PadWidens) {
  EXPECT_EQ(pad("ab", 4), "ab  ");
  EXPECT_EQ(pad("abcdef", 3), "abc");
}

TEST(Strings, RenderTableAlignsColumns) {
  const std::string t = render_table({"a", "bb"}, {{"ccc", "d"}});
  EXPECT_NE(t.find("ccc"), std::string::npos);
  EXPECT_NE(t.find("---"), std::string::npos);
}

TEST(Logging, SinkCapturesPassingMessages) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  {
    const ScopedLogSink sink([&](LogLevel level, const std::string& msg) {
      captured.emplace_back(level, msg);
    });
    EECS_WARN << "wire " << 42;
    EECS_DEBUG << "below threshold";  // Default level Warn: filtered out.
    log_message(LogLevel::Error, "direct");
  }
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::Warn);
  EXPECT_EQ(captured[0].second, "wire 42");
  EXPECT_EQ(captured[1].first, LogLevel::Error);
  EXPECT_EQ(captured[1].second, "direct");
  // Sink removed at scope exit: this must not reach `captured`.
  EECS_WARN << "after removal";
  EXPECT_EQ(captured.size(), 2u);
}

TEST(Logging, SinkRespectsLevelThreshold) {
  int count = 0;
  const ScopedLogSink sink([&](LogLevel, const std::string&) { ++count; });
  set_log_level(LogLevel::Off);
  EECS_ERROR << "suppressed";
  EXPECT_EQ(count, 0);
  set_log_level(LogLevel::Warn);  // Restore the suite default.
  EECS_WARN << "passes";
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace eecs
