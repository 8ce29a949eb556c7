#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/contracts.hpp"

namespace eecs::common {

namespace {

thread_local bool tls_on_worker = false;

/// One parallel_for invocation shared between the caller and the workers.
struct ChunkJob {
  std::size_t n = 0;
  std::size_t chunk_size = 1;
  std::size_t num_chunks = 0;
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> chunks_done{0};
  std::vector<std::exception_ptr> errors;  ///< Slot per chunk (disjoint writes).
  std::mutex mutex;
  std::condition_variable done_cv;

  /// Claim and run chunks until none remain. Any participant may run any
  /// chunk; outputs are index-slotted so the interleaving is unobservable.
  void drain() {
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(n, begin + chunk_size);
      try {
        (*body)(begin, end);
      } catch (...) {
        errors[c] = std::current_exception();
      }
      if (chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        std::lock_guard<std::mutex> lock(mutex);
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

struct ThreadPool::Impl {
  std::vector<std::thread> threads;
  std::deque<std::shared_ptr<ChunkJob>> queue;
  std::mutex mutex;
  std::condition_variable work_cv;
  bool stopping = false;

  void worker_loop() {
    tls_on_worker = true;
    for (;;) {
      std::shared_ptr<ChunkJob> job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        job = queue.front();
        // Leave the job queued until exhausted so every idle worker can join
        // it; drop it once all chunks are claimed.
        if (job->next_chunk.load(std::memory_order_relaxed) >= job->num_chunks) {
          queue.pop_front();
          continue;
        }
      }
      job->drain();
      std::lock_guard<std::mutex> lock(mutex);
      if (!queue.empty() && queue.front() == job &&
          job->next_chunk.load(std::memory_order_relaxed) >= job->num_chunks) {
        queue.pop_front();
      }
    }
  }
};

ThreadPool::ThreadPool(int workers) : impl_(new Impl) {
  EECS_EXPECTS(workers >= 0);
  impl_->threads.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

int ThreadPool::workers() const { return static_cast<int>(impl_->threads.size()); }

bool ThreadPool::on_worker_thread() { return tls_on_worker; }

void ThreadPool::run_chunks(std::size_t n, std::size_t chunk_size, int max_participants,
                            const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  chunk_size = std::max<std::size_t>(1, chunk_size);
  const int participants =
      std::max(1, std::min(max_participants, workers() + 1));
  if (participants == 1 || n <= chunk_size || tls_on_worker) {
    body(0, n);
    return;
  }

  auto job = std::make_shared<ChunkJob>();
  job->n = n;
  job->chunk_size = chunk_size;
  job->num_chunks = (n + chunk_size - 1) / chunk_size;
  job->body = &body;
  job->errors.resize(job->num_chunks);

  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->queue.push_back(job);
  }
  // Wake at most the threads that can usefully participate; the rest would
  // only contend on the claim counter.
  if (participants - 1 >= workers()) {
    impl_->work_cv.notify_all();
  } else {
    for (int i = 0; i < participants - 1; ++i) impl_->work_cv.notify_one();
  }

  job->drain();  // The caller is a participant too.
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->done_cv.wait(lock, [&] {
      return job->chunks_done.load(std::memory_order_acquire) == job->num_chunks;
    });
  }
  for (auto& err : job->errors) {
    if (err) std::rethrow_exception(err);
  }
}

namespace {

int parse_env_threads() {
  const char* env = std::getenv("EECS_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<int>(v) : 0;
}

int default_threads() {
  const int env = parse_env_threads();
  return env > 0 ? env : hardware_threads();
}

std::atomic<int>& width_override() {
  static std::atomic<int> width{0};  // 0 = use default_threads().
  return width;
}

ThreadPool& global_pool() {
  // Sized once for the widest request seen at first use; a later
  // set_max_threads beyond this caps at the pool's capacity.
  static ThreadPool pool(std::max(default_threads(), max_threads()) - 1);
  return pool;
}

}  // namespace

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int max_threads() {
  const int w = width_override().load(std::memory_order_relaxed);
  return w > 0 ? w : default_threads();
}

int set_max_threads(int n) {
  return width_override().exchange(n > 0 ? n : 0, std::memory_order_relaxed);
}

void parallel_for(std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const int width = max_threads();
  if (width <= 1 || n <= grain || ThreadPool::on_worker_thread()) {
    body(0, n);  // Exact legacy serial path: one range, caller's thread.
    return;
  }
  // ~4 chunks per participant for load balancing, but never below the grain.
  const std::size_t target_chunks =
      std::max<std::size_t>(1, static_cast<std::size_t>(width) * 4);
  const std::size_t chunk_size = std::max(grain, (n + target_chunks - 1) / target_chunks);
  global_pool().run_chunks(n, chunk_size, width, body);
}

void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& body) {
  parallel_for(n, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

Rng task_rng(std::uint64_t base_seed, std::uint64_t task_index) {
  // splitmix64 finalizer over the combined pair; matches the quality of
  // Rng::fork without touching any shared stream.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return Rng(z);
}

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace eecs::common
