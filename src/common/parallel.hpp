// Deterministic task-parallel execution layer. A fixed-size thread pool plus
// `parallel_for` split work over contiguous index ranges; every index is
// processed exactly once and writes only its own output slot, so results are
// bit-identical regardless of thread count or scheduling order. Reductions
// that care about floating-point association store per-index values and fold
// them sequentially afterwards (see linalg::kmeans).
//
// Width is controlled by one global knob: `set_max_threads` (the runners'
// `threads` config field, via ScopedThreads) overrides the default of the
// EECS_THREADS environment variable, which overrides hardware concurrency.
// Width 1 bypasses the pool entirely — the body runs inline on the calling
// thread over [0, n) in one piece, the exact legacy serial path.
//
// Nested-use contract: a `parallel_for` issued from inside a pool worker runs
// inline and serially on that worker (no new tasks are queued), so kernels
// may parallelize unconditionally without deadlocking when composed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"

namespace eecs::common {

/// Fixed-size worker pool. Most code should use the free `parallel_for` /
/// `parallel_map`, which share one lazily-created global pool; constructing a
/// private pool is for tests and special-purpose tools.
class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is valid: every run_chunks call then
  /// executes entirely on the caller).
  explicit ThreadPool(int workers);
  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int workers() const;

  /// True when called from one of *any* pool's worker threads. Used to run
  /// nested parallel regions inline.
  [[nodiscard]] static bool on_worker_thread();

  /// Execute body(begin, end) over disjoint chunks covering [0, n), using at
  /// most `max_participants` threads (caller included; clamped to
  /// workers() + 1). Chunks are claimed dynamically but outputs are slotted
  /// by index, so results do not depend on the claim order. Blocks until all
  /// chunks finished. If any chunk threw, rethrows the exception of the
  /// lowest-indexed failing chunk (deterministic propagation); the remaining
  /// chunks still run to completion first.
  void run_chunks(std::size_t n, std::size_t chunk_size, int max_participants,
                  const std::function<void(std::size_t, std::size_t)>& body);

 private:
  struct Impl;
  Impl* impl_;
};

/// max(1, std::thread::hardware_concurrency()).
[[nodiscard]] int hardware_threads();

/// Current global parallel width: the last set_max_threads(n > 0) value, else
/// EECS_THREADS (when set to a positive integer), else hardware_threads().
[[nodiscard]] int max_threads();

/// Override the global width; n <= 0 resets to the environment/hardware
/// default. Returns the previous width. Not thread-safe against concurrent
/// parallel_for calls — set it from the top of a run, not mid-flight.
int set_max_threads(int n);

/// RAII width override for a scope; the runners apply their `threads` config
/// field with this. n <= 0 leaves the global width untouched.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : active_(n > 0), prev_(active_ ? set_max_threads(n) : 0) {}
  ~ScopedThreads() {
    if (active_) set_max_threads(prev_);
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  bool active_;
  int prev_;
};

/// Deterministic parallel loop: body(begin, end) over disjoint ranges that
/// cover [0, n) in pieces of at least `grain` indices. Runs inline (single
/// range [0, n)) when the width is 1, when n <= grain, or when called from a
/// pool worker — the exact serial path.
void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

/// Per-index convenience overload (grain 1).
void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& body);

/// Index-ordered map: returns {fn(0), ..., fn(n-1)} with slot i always
/// holding fn(i), independent of scheduling. T must be default-constructible.
template <typename T>
[[nodiscard]] std::vector<T> parallel_map(std::size_t n,
                                          const std::function<T(std::size_t)>& fn,
                                          std::size_t grain = 1) {
  std::vector<T> out(n);
  parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
  });
  return out;
}

/// Derive an independent RNG stream for task `task_index` of a job seeded
/// with `base_seed`: a splitmix64 finalization of the pair, so streams are
/// decorrelated and depend only on (seed, index) — never on which thread runs
/// the task or in what order.
[[nodiscard]] Rng task_rng(std::uint64_t base_seed, std::uint64_t task_index);

/// Hand the heap's free pages back to the system. Buffers freed on pool
/// threads land in those threads' malloc arenas, which glibc keeps mapped;
/// a set-up phase that fanned its temporaries out over the pool calls this
/// once they are gone, so the process does not carry that phase's peak into
/// whatever runs next. A no-op outside glibc.
void trim_heap();

}  // namespace eecs::common
