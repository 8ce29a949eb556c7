// Contract tests for the deterministic task-parallel layer (common/parallel):
// index coverage, slot ordering, deterministic exception propagation, the
// nested-use inline rule, per-task RNG streams, and the width knob — plus
// end-to-end checks that the set-up and the closed-loop simulation are
// bit-identical across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "core/simulation.hpp"
#include "setup_digest.hpp"

namespace eecs::common {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.run_chunks(kN, 64, 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroWorkersRunsEntirelyOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::size_t covered = 0;
  pool.run_chunks(100, 10, 8, [&](std::size_t begin, std::size_t end) {
    // No workers -> no data race on the plain counter.
    covered += end - begin;
    EXPECT_FALSE(ThreadPool::on_worker_thread());
  });
  EXPECT_EQ(covered, 100u);
}

TEST(ThreadPool, ShutdownWithQueuedWorkJoinsCleanly) {
  // Construct/use/destroy repeatedly; the destructor must drain and join
  // without hanging or dropping chunks.
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(2);
    std::atomic<std::size_t> sum{0};
    pool.run_chunks(1'000, 16, 3, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 1'000u * 999u / 2u);
  }
}

TEST(ThreadPool, RethrowsLowestFailingChunkDeterministically) {
  ThreadPool pool(3);
  // Every chunk throws its begin index; the propagated exception must always
  // be the lowest-indexed one, regardless of which thread ran what first.
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      pool.run_chunks(1'000, 100, 4, [](std::size_t begin, std::size_t) {
        throw std::runtime_error(std::to_string(begin));
      });
      FAIL() << "run_chunks should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "0");
    }
  }
}

TEST(ParallelFor, ExceptionsAlsoPropagateThroughGlobalPool) {
  const ScopedThreads width(4);
  EXPECT_THROW(parallel_for(1'000, 1,
                            [](std::size_t, std::size_t) -> void {
                              throw std::logic_error("boom");
                            }),
               std::logic_error);
}

TEST(ParallelMap, SlotsAreIndexOrdered) {
  const ScopedThreads width(4);
  const std::vector<std::size_t> out =
      parallel_map<std::size_t>(5'000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 5'000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i) << "slot " << i;
  }
}

TEST(ParallelFor, WidthOneIsSingleInlineRange) {
  const ScopedThreads width(1);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  parallel_for(1'000, 1, [&](std::size_t begin, std::size_t end) {
    ranges.emplace_back(begin, end);
    EXPECT_FALSE(ThreadPool::on_worker_thread());
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{0, 1'000}));
}

TEST(ParallelFor, NestedCallsRunInlineOnWorkers) {
  const ScopedThreads width(4);
  // A nested parallel_for on a pool worker must run inline as one range (the
  // no-deadlock contract for composed kernels). The outer caller also drains
  // chunks but is not a worker, so its nested calls may split — count only
  // the nested invocations seen on worker threads.
  std::atomic<int> nested_split{0};
  parallel_for(64, 1, [&](std::size_t, std::size_t) {
    if (!ThreadPool::on_worker_thread()) return;
    std::atomic<int> ranges{0};
    parallel_for(100, 1, [&](std::size_t begin, std::size_t end) {
      ranges.fetch_add(1);
      if (begin != 0 || end != 100) nested_split.fetch_add(1);
    });
    if (ranges.load() != 1) nested_split.fetch_add(1);
  });
  EXPECT_EQ(nested_split.load(), 0);
}

TEST(TaskRng, StreamsDependOnlyOnSeedAndIndex) {
  Rng a = task_rng(1234, 7);
  Rng b = task_rng(1234, 7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
  // Adjacent task indices must give decorrelated streams.
  Rng c = task_rng(1234, 8);
  EXPECT_NE(task_rng(1234, 7).next_u64(), c.next_u64());
}

TEST(ScopedThreads, OverridesAndRestoresWidth) {
  const int before = max_threads();
  {
    const ScopedThreads width(3);
    EXPECT_EQ(max_threads(), 3);
    {
      const ScopedThreads inner(0);  // n <= 0: no-op.
      EXPECT_EQ(max_threads(), 3);
    }
    EXPECT_EQ(max_threads(), 3);
  }
  EXPECT_EQ(max_threads(), before);
}

// End-to-end: the closed loop produces bit-identical results at every thread
// count. Timings are wall-clock observability and are the one exempt field.
TEST(ThreadInvariance, SimulationIsBitIdenticalAcrossWidths) {
  using namespace eecs::core;
  const DetectorBank detectors = detect::make_trained_detectors(1234);
  OfflineOptions opts;
  opts.algorithms = {detect::AlgorithmId::Hog, detect::AlgorithmId::Acf};
  opts.frames_per_item = 4;
  const OfflineKnowledge knowledge = run_offline_training(detectors, {1}, 42, opts);

  EecsSimulationConfig cfg;
  cfg.dataset = 1;
  cfg.mode = SelectionMode::SubsetDowngrade;
  cfg.budget_per_frame = 3.0;
  cfg.controller.algorithms = opts.algorithms;
  cfg.models = opts;
  cfg.end_frame = 1700;  // One assessment window plus a short operation span.

  cfg.threads = 1;
  const SimulationResult serial = run_eecs_simulation(detectors, knowledge, cfg);
  cfg.threads = 4;
  const SimulationResult parallel = run_eecs_simulation(detectors, knowledge, cfg);

  EXPECT_EQ(serial.cpu_joules, parallel.cpu_joules);
  EXPECT_EQ(serial.radio_joules, parallel.radio_joules);
  EXPECT_EQ(serial.humans_detected, parallel.humans_detected);
  EXPECT_EQ(serial.humans_present, parallel.humans_present);
  EXPECT_EQ(serial.gt_frames_processed, parallel.gt_frames_processed);
  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    EXPECT_EQ(serial.rounds[i].start_frame, parallel.rounds[i].start_frame);
    EXPECT_EQ(serial.rounds[i].midround_recovery, parallel.rounds[i].midround_recovery);
  }
  EXPECT_EQ(serial.faults.messages_sent, parallel.faults.messages_sent);
  EXPECT_EQ(serial.faults.messages_lost, parallel.faults.messages_lost);
  EXPECT_EQ(serial.faults.frames_skipped_exhausted, parallel.faults.frames_skipped_exhausted);
  ASSERT_EQ(serial.battery_residual.size(), parallel.battery_residual.size());
  for (std::size_t c = 0; c < serial.battery_residual.size(); ++c) {
    EXPECT_EQ(serial.battery_residual[c], parallel.battery_residual[c]) << "camera " << c;
  }
}

// Set-up fans out too (training-set rendering, per-patch features, side-by-
// side fits, AdaBoost stump search, per-item offline build): the training
// set, bank and knowledge built at width 1 and width 4 must agree in every
// patch, and at %.17g in every detection on a probe frame, every profile
// field, and every comparator similarity.
TEST(ThreadInvariance, SetupIsBitIdenticalAcrossWidths) {
  const auto setup_at = [](int width) {
    const ScopedThreads threads(width);
    const core::DetectorBank bank = detect::make_trained_detectors(1234);
    return setup_digest::training_set(1234) + setup_digest::detections(bank) +
           setup_digest::knowledge(setup_digest::reference_knowledge(bank, 4));
  };
  const std::string serial = setup_at(1);
  const std::string parallel = setup_at(4);
  EXPECT_NE(serial.find("detection ACF"), std::string::npos);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace eecs::common
