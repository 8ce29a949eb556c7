#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "obs/anomaly.hpp"
#include "obs/exposition.hpp"
#include "obs/flight.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace eecs::obs {
namespace {

TEST(Metrics, CounterGaugeBasics) {
  MetricsRegistry registry;
  Counter& c = registry.counter("a.count");
  c.inc();
  c.inc(3);
  EXPECT_EQ(c.value(), 4u);
  // Same name returns the same metric.
  EXPECT_EQ(&registry.counter("a.count"), &c);

  Gauge& g = registry.gauge("a.gauge");
  g.set(2.5);
  g.add(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
}

TEST(Metrics, ReRegistrationKindMismatchViolatesContract) {
  MetricsRegistry registry;
  (void)registry.counter("same.name");
  EXPECT_THROW((void)registry.gauge("same.name"), ContractViolation);
  EXPECT_THROW((void)registry.counter("same.name", Determinism::WallClock), ContractViolation);
}

TEST(Metrics, HistogramBucketBoundaries) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", {0, 1, 4});
  h.observe(0.0);   // le_0: boundary value lands in its own bucket (le).
  h.observe(-2.0);  // le_0.
  h.observe(1.0);   // le_1: equality at bound.
  h.observe(0.5);   // le_1.
  h.observe(4.0);   // le_4.
  h.observe(4.5);   // overflow.
  h.observe(100.0); // overflow.
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 2u);  // Overflow bucket.
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0 - 2.0 + 1.0 + 0.5 + 4.0 + 4.5 + 100.0);
}

TEST(Metrics, ConcurrentIncrementsSumExactly) {
  const common::ScopedThreads threads(4);
  MetricsRegistry registry;
  Counter& c = registry.counter("par.count");
  Histogram& h = registry.histogram("par.hist", {10, 100});
  constexpr std::size_t kN = 10000;
  common::parallel_for_each(kN, [&](std::size_t i) {
    c.inc();
    h.observe(static_cast<double>(i % 7));  // Integer-valued: sum stays exact.
  });
  EXPECT_EQ(c.value(), kN);
  EXPECT_EQ(h.count(), kN);
  EXPECT_EQ(h.bucket(0), kN);
  double expected_sum = 0.0;
  for (std::size_t i = 0; i < kN; ++i) expected_sum += static_cast<double>(i % 7);
  EXPECT_DOUBLE_EQ(h.sum(), expected_sum);
}

TEST(Metrics, DeterministicSnapshotExcludesWallClock) {
  MetricsRegistry registry;
  registry.counter("det.count").inc(2);
  registry.gauge("wall.s", Determinism::WallClock).set(1.25);
  registry.histogram("det.hist", {1}).observe(1.0);
  const auto snap = registry.deterministic_snapshot();
  EXPECT_EQ(snap.count("wall.s"), 0u);
  EXPECT_DOUBLE_EQ(snap.at("det.count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.at("det.hist.le_1"), 1.0);
  EXPECT_DOUBLE_EQ(snap.at("det.hist.overflow"), 0.0);
  EXPECT_DOUBLE_EQ(snap.at("det.hist.count"), 1.0);
  EXPECT_DOUBLE_EQ(snap.at("det.hist.sum"), 1.0);
}

TEST(Metrics, DiffReportCoversKeyUnion) {
  MetricsRegistry::Snapshot before{{"only.before", 2.0}, {"both", 5.0}};
  MetricsRegistry::Snapshot after{{"both", 7.5}, {"only.after", 3.0}};
  EXPECT_EQ(MetricsRegistry::diff_report(before, after),
            "both=2.5\nonly.after=3\nonly.before=-2\n");
}

TEST(Tracer, RingOverflowKeepsNewestAndCountsDropped) {
  Tracer tracer(4);
  for (int i = 0; i < 6; ++i) {
    TraceEvent e;
    e.name = "e";
    e.name += std::to_string(i);
    tracer.record(std::move(e));
  }
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e2");  // Oldest surviving.
  EXPECT_EQ(events.back().name, "e5");
}

TEST(Tracer, JsonlGoldenWithInjectedClock) {
  Tracer tracer(8);
  std::uint64_t fake_now = 100;
  tracer.set_clock([&] { return fake_now; });

  TraceEvent instant;
  instant.cat = "round";
  instant.name = "round.select";
  instant.sim_time = 1200;
  instant.num_args = {{"cameras_active", 3}};
  tracer.record(std::move(instant));

  fake_now = 250;
  TraceEvent span;
  span.phase = 'X';
  span.wall_us = 100;  // Pre-stamped start, as ScopedSpan does.
  span.dur_us = 150;
  span.cat = "stage";
  span.name = "stage.detect";
  tracer.record(std::move(span));

  EXPECT_EQ(tracer.to_jsonl(),
            "{\"wall_us\": 100, \"ph\": \"i\", \"cat\": \"round\", \"name\": \"round.select\", "
            "\"args\": {\"sim_time\": 1200, \"cameras_active\": 3}}\n"
            "{\"wall_us\": 100, \"dur_us\": 150, \"ph\": \"X\", \"cat\": \"stage\", "
            "\"name\": \"stage.detect\", \"args\": {\"sim_time\": -1}}\n");
}

TEST(Tracer, ChromeTraceGoldenWithInjectedClock) {
  Tracer tracer(8);
  tracer.set_clock([] { return std::uint64_t{42}; });
  TraceEvent e;
  e.cat = "camera";
  e.name = "camera.dead";
  e.sim_time = 1500;
  e.num_args = {{"camera", 2}};
  tracer.record(std::move(e));

  EXPECT_EQ(tracer.to_chrome_trace(),
            "{\"traceEvents\": [\n"
            "  {\"name\": \"camera.dead\", \"cat\": \"camera\", \"ph\": \"i\", \"ts\": 42, "
            "\"s\": \"g\", \"pid\": 1, \"tid\": 1, "
            "\"args\": {\"sim_time\": 1500, \"camera\": 2}}\n"
            "]}\n");
}

TEST(Span, AccumulatesIntoGaugeAndEmitsCompleteEvent) {
  ScopedTelemetry telemetry;
  std::uint64_t fake_now = 100;
  telemetry.session().tracer().set_clock([&] { return fake_now; });
  Gauge& acc = telemetry.session().metrics().gauge("stage.test_s", Determinism::WallClock);
  {
    const ScopedSpan span("stage.test", "stage", acc, 7.0);
    fake_now = 1000;
  }
  EXPECT_GE(acc.value(), 0.0);  // Wall clock: only sign is portable.
  if constexpr (kEnabled) {
    const auto events = telemetry.session().tracer().events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].phase, 'X');
    EXPECT_EQ(events[0].name, "stage.test");
    EXPECT_EQ(events[0].wall_us, 100u);
    EXPECT_EQ(events[0].dur_us, 900u);
    EXPECT_DOUBLE_EQ(events[0].sim_time, 7.0);
  }
}

TEST(Telemetry, ScopedSessionSwapsCurrentAndRestores) {
  Telemetry& original = current();
  {
    ScopedTelemetry scoped;
    EXPECT_EQ(&current(), &scoped.session());
    current().metrics().counter("scoped.count").inc();
    EXPECT_EQ(scoped.session().metrics().counter("scoped.count").value(), 1u);
  }
  EXPECT_EQ(&current(), &original);
}

TEST(Quantile, EmptyHistogramIsNaN) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("q.empty", {1, 2});
  EXPECT_TRUE(std::isnan(histogram_quantile(h, 0.5)));
}

TEST(Quantile, ExactBoundaryRankReturnsBucketBound) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("q.boundary", {1, 2, 4});
  for (int i = 0; i < 4; ++i) h.observe(0.5);  // le_1.
  for (int i = 0; i < 4; ++i) h.observe(1.5);  // le_2.
  // rank = 0.5 * 8 = 4, exactly the first bucket's cumulative count: the
  // interpolation reaches the bucket's upper bound exactly.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.25), 0.5);  // Mid-first-bucket.
}

TEST(Quantile, SingleBucketInterpolatesFromZero) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("q.single", {10});
  for (int i = 0; i < 5; ++i) h.observe(3.0);
  // rank = 2.5 of 5, all in [0, 10): 10 * 2.5/5.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.5), 5.0);
}

TEST(Quantile, OverflowBucketClampsToHighestFiniteBound) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("q.inf", {1, 2});
  h.observe(0.5);
  h.observe(50.0);
  h.observe(100.0);
  // p99 rank lands in the +Inf bucket; PromQL clamps to the last bound.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.99), 2.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 1.5), 2.0);
}

TEST(Quantile, NoFiniteBoundsFallsBackToMean) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("q.meanonly", {});
  h.observe(3.0);
  h.observe(5.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(h, 0.9), 4.0);
}

TEST(Exposition, PrometheusNameSanitization) {
  EXPECT_EQ(prometheus_name("net.tx.sent"), "net_tx_sent");
  EXPECT_EQ(prometheus_name("a-b c"), "a_b_c");
  EXPECT_EQ(prometheus_name("2fast"), "_2fast");
  EXPECT_EQ(prometheus_name("ns:metric"), "ns:metric");  // Colons are legal.
}

TEST(Exposition, TextFormatCoversAllKindsCumulatively) {
  MetricsRegistry registry;
  registry.counter("net.tx.sent").inc(4);
  registry.gauge("battery.residual").set(2.5);
  Histogram& h = registry.histogram("debit.joules", {1, 2});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE net_tx_sent counter\nnet_tx_sent 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE battery_residual gauge\nbattery_residual 2.5\n"),
            std::string::npos);
  // Buckets are cumulative and end with the mandatory +Inf bucket == count.
  EXPECT_NE(text.find("debit_joules_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("debit_joules_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("debit_joules_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("debit_joules_sum 11\n"), std::string::npos);
  EXPECT_NE(text.find("debit_joules_count 3\n"), std::string::npos);
}

/// Debit one camera the way the loop does: CPU and radio joules into the
/// book, then their sum out of the camera's battery. `cpu_total` and
/// `radio_total` add the same doubles in the same order, as a result read
/// from the book holds them.
void energy_like_debit(EnergyLedger& ledger, int camera, double cpu_j, double radio_j,
                       double& cpu_total, double& radio_total) {
  ledger.debit_cpu(camera, EnergyStage::Operation, 0, EnergyCause::Detect, cpu_j);
  ledger.debit_radio(camera, EnergyStage::Operation, 0, EnergyCause::Tx, radio_j);
  cpu_total += cpu_j;
  radio_total += radio_j;
  ledger.drain(camera, cpu_j + radio_j);
}

TEST(Ledger, ExactSumIsOrderIndependent) {
  const std::vector<double> values = {1.0e-7, 3.25, 0.125, 1.0e6, 2.5e-3, 42.0};
  ExactJoules forward;
  for (const double v : values) forward.add(v);
  ExactJoules backward;
  for (auto it = values.rbegin(); it != values.rend(); ++it) backward.add(*it);
  EXPECT_EQ(forward, backward);
  EXPECT_FALSE(forward.inexact);
  // Zero adds are identity (the heartbeat/control-plane debits).
  ExactJoules with_zeros = forward;
  with_zeros.add(0.0);
  EXPECT_EQ(with_zeros, forward);
  // Negative / non-finite values poison the flag, not the sum.
  ExactJoules bad;
  bad.add(-1.0);
  EXPECT_TRUE(bad.inexact);
}

TEST(Ledger, ConservationHoldsAndFlagsDrift) {
  EnergyLedger ledger;
  ledger.begin_run({10.0, 10.0});
  ledger.set_round(0);
  double cpu = 0.0;
  double radio = 0.0;
  energy_like_debit(ledger, 0, 1.25, 0.5, cpu, radio);
  energy_like_debit(ledger, 1, 2.0, 0.25, cpu, radio);
  std::vector<double> residual = {10.0 - (1.25 + 0.5), 10.0 - (2.0 + 0.25)};
  EXPECT_EQ(ledger.residuals(), residual);
  EXPECT_TRUE(ledger.check(cpu, radio, residual).ok);
  // A result that did not come from this book is reported, clause by clause.
  const auto drifted = ledger.check(cpu + 1e-9, radio, residual);
  EXPECT_FALSE(drifted.ok);
  EXPECT_NE(drifted.detail.find("cpu"), std::string::npos);
  residual[1] = 0.0;
  EXPECT_FALSE(ledger.check(cpu, radio, residual).ok);
}

// A camera's battery is its residual in the book.
TEST(Battery, DrainClampsAtEmpty) {
  EnergyLedger ledger;
  ledger.begin_run({10.0});
  ledger.drain(0, 4.0);
  EXPECT_DOUBLE_EQ(ledger.residual(0), 6.0);
  EXPECT_FALSE(ledger.empty(0));
  ledger.drain(0, 100.0);  // Over-drain clamps at zero.
  EXPECT_DOUBLE_EQ(ledger.residual(0), 0.0);
  EXPECT_TRUE(ledger.empty(0));
  EXPECT_DOUBLE_EQ(ledger.capacity(0), 10.0);
}

TEST(Ledger, DrainClampMirrorsBattery) {
  EnergyLedger ledger;
  ledger.begin_run({1.0});
  ledger.drain(0, 0.75);
  EXPECT_DOUBLE_EQ(ledger.residual(0), 0.25);
  ledger.drain(0, 5.0);
  EXPECT_DOUBLE_EQ(ledger.residual(0), 0.0);
  // A result's battery residual must mirror the clamped book, not the
  // unclamped arithmetic of the drains.
  EXPECT_TRUE(ledger.check(0.0, 0.0, {0.0}).ok);
  const auto unclamped = ledger.check(0.0, 0.0, {0.25 - 5.0});
  EXPECT_FALSE(unclamped.ok);
  EXPECT_NE(unclamped.detail.find("camera 0 result residual"), std::string::npos);
}

TEST(Ledger, RejectsNegativeDrainAndCapacity) {
  EnergyLedger ledger;
  ledger.begin_run({5.0});
  EXPECT_THROW(ledger.drain(0, -1.0), ContractViolation);
  EXPECT_THROW(ledger.begin_run({5.0, 0.0}), ContractViolation);
  EXPECT_THROW(ledger.begin_run({-1.0}), ContractViolation);
  EXPECT_DOUBLE_EQ(ledger.residual(0), 5.0);  // A refused call changes nothing.
}

TEST(Ledger, ExportImportRoundtripPreservesReport) {
  EnergyLedger ledger;
  ledger.begin_run({5.0});
  ledger.set_round(2);
  ledger.debit_cpu(0, EnergyStage::Operation, 1, EnergyCause::Detect, 1.5);
  ledger.debit_radio(0, EnergyStage::Operation, 1, EnergyCause::Tx, 0.125);
  ledger.drain(0, 1.625);
  EnergyLedger restored;
  restored.begin_run({5.0});
  restored.import_state(ledger.export_state());
  EXPECT_EQ(restored.report(), ledger.report());
  EXPECT_EQ(restored.cpu_total(), ledger.cpu_total());
  EXPECT_EQ(restored.residual(0), ledger.residual(0));
}

TEST(Ledger, ImportClampsResidualToCapacity) {
  EnergyLedger ledger;
  ledger.begin_run({5.0, 5.0, 5.0});
  EnergyLedger::State state = ledger.export_state();
  state.residual = {7.5, -1.0, 2.5};
  ledger.import_state(state);
  EXPECT_EQ(ledger.residual(0), 5.0);
  EXPECT_EQ(ledger.residual(1), 0.0);
  EXPECT_TRUE(ledger.empty(1));
  EXPECT_EQ(ledger.residual(2), 2.5);
  // A state for another camera count is refused.
  state.residual.pop_back();
  EXPECT_THROW(ledger.import_state(state), ContractViolation);
}

TEST(Flight, RingKeepsNewestRoundsOldestFirst) {
  FlightRecorder ring(3);
  for (int i = 0; i < 5; ++i) {
    FlightRound r;
    r.round = i;
    ring.record(r);
  }
  const std::vector<FlightRound> rounds = ring.rounds();
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[0].round, 2);
  EXPECT_EQ(rounds[1].round, 3);
  EXPECT_EQ(rounds[2].round, 4);
}

TEST(Flight, JsonlRoundtripPreservesEveryField) {
  FlightRecorder ring(4);
  FlightRound r;
  r.round = 7;
  r.sim_time_s = 1234.5;
  r.selected = 3;
  r.assignments = 4;
  r.pending = 1;
  r.deadline_misses = 2;
  r.watchdog_strikes = 5;
  r.messages_sent = 200;
  r.messages_lost = 40;
  r.cpu_joules = 85.035178699999959;  // Full-precision survives %.17g.
  r.radio_joules = 0.22526239999999992;
  r.anomalies = 1;
  r.rungs = {0, 2, 1};
  r.residual_j = {93.760678967999979, 0.0, 42.5};
  ring.record(r);
  const FlightDump dump = parse_flight_jsonl(ring.to_jsonl("watchdog_strike"));
  EXPECT_EQ(dump.version, 1);
  EXPECT_EQ(dump.reason, "watchdog_strike");
  EXPECT_EQ(dump.capacity, 4);
  ASSERT_EQ(dump.rounds.size(), 1u);
  const FlightRound& p = dump.rounds[0];
  EXPECT_EQ(p.round, r.round);
  EXPECT_EQ(p.sim_time_s, r.sim_time_s);
  EXPECT_EQ(p.selected, r.selected);
  EXPECT_EQ(p.assignments, r.assignments);
  EXPECT_EQ(p.pending, r.pending);
  EXPECT_EQ(p.deadline_misses, r.deadline_misses);
  EXPECT_EQ(p.watchdog_strikes, r.watchdog_strikes);
  EXPECT_EQ(p.messages_sent, r.messages_sent);
  EXPECT_EQ(p.messages_lost, r.messages_lost);
  EXPECT_EQ(p.cpu_joules, r.cpu_joules);  // Bit-exact through the JSONL.
  EXPECT_EQ(p.radio_joules, r.radio_joules);
  EXPECT_EQ(p.anomalies, r.anomalies);
  EXPECT_EQ(p.rungs, r.rungs);
  EXPECT_EQ(p.residual_j, r.residual_j);
}

TEST(Flight, MalformedDumpThrows) {
  EXPECT_THROW((void)parse_flight_jsonl(""), common::JsonError);
  EXPECT_THROW((void)parse_flight_jsonl("{\"not\": \"a header\"}\n"), common::JsonError);
  EXPECT_THROW(
      (void)parse_flight_jsonl("{\"flight\": 2, \"reason\": \"x\", \"capacity\": 1, \"rounds\": 0}\n"),
      common::JsonError);
}

TEST(Anomaly, BurnRateNeedsFullWindowThenFlags) {
  AnomalyOptions options;
  options.window_rounds = 2;
  options.burn_rate_milli = 3000;  // 3x the window mean.
  AnomalyDetector detector(options, 1);
  RoundObservation ob;
  ob.camera_joules = {1.0};
  ob.round = 0;
  EXPECT_TRUE(detector.observe(ob).empty());  // Window not full yet.
  ob.round = 1;
  EXPECT_TRUE(detector.observe(ob).empty());
  ob.round = 2;
  ob.camera_joules = {10.0};  // 10x the mean of {1, 1}.
  const std::vector<Anomaly> findings = detector.observe(ob);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, Anomaly::Kind::BurnRate);
  EXPECT_EQ(findings[0].camera, 0);
  EXPECT_TRUE(detector.flagged(0));
  // A calm round clears the advisory flag.
  ob.round = 3;
  ob.camera_joules = {1.0};
  (void)detector.observe(ob);
  EXPECT_FALSE(detector.flagged(0));
}

TEST(Anomaly, LossRateNeedsMinimumTraffic) {
  AnomalyOptions options;
  options.loss_rate_milli = 500;
  options.loss_min_messages = 8;
  AnomalyDetector detector(options, 0);
  RoundObservation ob;
  ob.round = 0;
  ob.messages_sent = 4;
  ob.messages_lost = 4;  // 100% loss but below the traffic floor.
  EXPECT_TRUE(detector.observe(ob).empty());
  ob.round = 1;
  ob.messages_sent = 10;
  ob.messages_lost = 9;  // Window: 13/14 lost, over the floor now.
  const std::vector<Anomaly> findings = detector.observe(ob);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, Anomaly::Kind::LossRate);
  EXPECT_EQ(findings[0].camera, -1);  // Network-wide.
}

TEST(Anomaly, LatencyCountsWindowMisses) {
  AnomalyOptions options;
  options.latency_miss_rounds = 2;
  AnomalyDetector detector(options, 0);
  RoundObservation ob;
  ob.round = 0;
  ob.deadline_misses = 1;
  EXPECT_TRUE(detector.observe(ob).empty());
  ob.round = 1;
  const std::vector<Anomaly> findings = detector.observe(ob);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, Anomaly::Kind::Latency);
  EXPECT_DOUBLE_EQ(findings[0].value, 2.0);
}

TEST(Anomaly, ExportImportReplaysIdenticalFindings) {
  AnomalyOptions options;
  options.window_rounds = 2;
  AnomalyDetector a(options, 1);
  RoundObservation ob;
  ob.camera_joules = {1.0};
  for (int round = 0; round < 2; ++round) {
    ob.round = round;
    (void)a.observe(ob);
  }
  AnomalyDetector b(options, 1);
  b.import_state(a.export_state());
  ob.round = 2;
  ob.camera_joules = {25.0};
  const auto from_a = a.observe(ob);
  const auto from_b = b.observe(ob);
  ASSERT_EQ(from_a.size(), from_b.size());
  ASSERT_EQ(from_a.size(), 1u);
  EXPECT_EQ(from_a[0].value, from_b[0].value);
  EXPECT_EQ(from_a[0].threshold, from_b[0].threshold);
  EXPECT_EQ(a.flagged(0), b.flagged(0));
}

// observe() indexes the joules window by round and camera, so an imported
// state must be shaped like the detector's own.
TEST(Anomaly, ImportRefusesAMisshapenState) {
  AnomalyOptions options;
  options.window_rounds = 2;
  AnomalyDetector detector(options, 2);
  AnomalyDetector::State state;
  state.window_sent = {10, 12};
  state.window_lost = {1, 0};
  state.window_misses = {0, 1};
  state.window_joules = {1.0, 2.0, 1.5, 2.5};
  state.last_flags = {0, 1};
  state.rounds_seen = 5;
  detector.import_state(state);
  EXPECT_TRUE(detector.export_state() == state);

  const auto refused = [&](auto edit) {
    AnomalyDetector::State bad = state;
    edit(bad);
    EXPECT_THROW(detector.import_state(bad), ContractViolation);
  };
  refused([](AnomalyDetector::State& s) { s.window_joules.clear(); });
  refused([](AnomalyDetector::State& s) { s.window_lost.pop_back(); });
  refused([](AnomalyDetector::State& s) { s.window_misses.push_back(0); });
  refused([](AnomalyDetector::State& s) { s.last_flags.pop_back(); });
  refused([](AnomalyDetector::State& s) {  // Three rounds in a two-round window.
    s.window_sent.push_back(1);
    s.window_lost.push_back(0);
    s.window_misses.push_back(0);
    s.window_joules.insert(s.window_joules.end(), {1.0, 1.0});
  });
  EXPECT_TRUE(detector.export_state() == state);
}

}  // namespace
}  // namespace eecs::obs
