// Controller-side protocol machinery extracted from the simulation loop:
// the assignment retry queue (sequence-numbered resend with deterministic,
// optionally jittered, capped backoff) and the camera liveness tracker.
// Both are pure bookkeeping — transmission and telemetry stay with the
// caller — and both export/restore their full state for checkpointing.
// At the default RetryPolicy the retry schedule is bit-identical to the
// legacy inline code: initial timeout 2.5 GT frames, then linear backoff
// (2.5 + attempts) capped at 6.5, abandon after max_retries resends.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace eecs::runtime {

/// Resend schedule of an unacked assignment. Backoff is a pure function of
/// (policy, camera, attempts) so a run is reproducible from its seed; the
/// optional jitter decorrelates camera retry instants without randomness.
struct RetryPolicy {
  /// Resends after the initial attempt before the assignment is abandoned.
  int max_retries = 3;
  /// Delay before the first resend, in ground-truth frames.
  double base_gt_frames = 2.5;
  /// Ceiling of the linear backoff (base + attempts), in ground-truth frames.
  double max_backoff_gt_frames = 6.5;
  /// Fractional deterministic jitter: the delay is scaled by
  /// 1 + jitter_fraction * hash01(jitter_seed, camera, attempts). Zero (the
  /// default) reproduces the legacy schedule exactly.
  double jitter_fraction = 0.0;
  std::uint64_t jitter_seed = 0;

  /// Delay in network-clock units before the next resend. `attempts` is the
  /// number of transmissions already made, except the initial push which
  /// passes 0 (legacy convention: first timeout is the base alone).
  [[nodiscard]] double backoff(int camera, int attempts, double stride) const;
};

/// Uniform [0, 1) hash of (seed, camera, attempts); splitmix64 finalizer.
[[nodiscard]] double jitter_hash01(std::uint64_t seed, int camera, int attempts);

/// Unacked AlgorithmAssignment bookkeeping. Entries are keyed by camera and
/// processed in camera order (matching the legacy std::map iteration).
class AssignmentRetryQueue {
 public:
  struct Entry {
    std::vector<std::uint8_t> payload;
    std::uint32_t sequence = 0;
    int attempts = 0;
    double next_retry = 0.0;

    [[nodiscard]] bool operator==(const Entry&) const = default;
  };

  /// How an incoming ack relates to the queue.
  enum class AckOutcome : std::uint8_t {
    Acked,  ///< Matched the pending sequence; entry retired.
    Stale,  ///< Ack for an older sequence while a newer push is pending.
    Late,   ///< No entry pending: the assignment was already acked,
            ///< abandoned, or dropped. Counted by the caller, never
            ///< re-applied — the queue is unchanged.
  };

  explicit AssignmentRetryQueue(const RetryPolicy& policy) : policy_(policy) {}

  /// Track a freshly transmitted assignment. Returns true when it replaced a
  /// still-unacked older entry for the same camera (superseded mid-retry).
  bool push(int camera, std::vector<std::uint8_t> payload, std::uint32_t sequence, double now,
            double stride);

  [[nodiscard]] AckOutcome ack(int camera, std::uint32_t sequence);

  /// Stop retrying into the void (camera presumed dead). Returns true when an
  /// entry was actually dropped.
  bool drop(int camera);

  /// Walk due entries in camera order: abandon those whose retry budget is
  /// exhausted, hand the rest to `resend` (which transmits), then advance
  /// their backoff. Callbacks receive (camera, entry).
  template <typename Resend, typename Abandon>
  void process_due(double now, double stride, Resend&& resend, Abandon&& abandon) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      Entry& entry = it->second;
      if (now < entry.next_retry) {
        ++it;
        continue;
      }
      if (entry.attempts > policy_.max_retries) {
        abandon(it->first, entry);
        it = entries_.erase(it);
        continue;
      }
      resend(it->first, entry);
      ++entry.attempts;
      entry.next_retry = now + policy_.backoff(it->first, entry.attempts, stride);
      ++it;
    }
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::map<int, Entry>& entries() const { return entries_; }
  void restore(std::map<int, Entry> entries) { entries_ = std::move(entries); }

 private:
  RetryPolicy policy_;
  std::map<int, Entry> entries_;
};

/// Declares cameras dead after a silence timeout and recovered on the next
/// message. Sweep order and semantics match the legacy inline scan.
class LivenessTracker {
 public:
  /// Per-camera time last heard from and presumed-alive flag.
  struct State {
    std::vector<double> last_heard;
    std::vector<std::uint8_t> presumed_alive;

    [[nodiscard]] bool operator==(const State&) const = default;
  };

  LivenessTracker(int num_cameras, double timeout)
      : timeout_(timeout),
        state_{std::vector<double>(static_cast<std::size_t>(num_cameras), 0.0),
               std::vector<std::uint8_t>(static_cast<std::size_t>(num_cameras), 1)} {}

  /// Record a message from `camera`; returns true when this recovers a
  /// camera previously presumed dead. Out-of-range ids are ignored.
  bool mark_heard(int camera, double time);

  /// Cameras newly presumed dead at `now` (silent past the timeout),
  /// ascending camera order.
  [[nodiscard]] std::vector<int> sweep(double now);

  [[nodiscard]] bool alive(int camera) const {
    return state_.presumed_alive[static_cast<std::size_t>(camera)] != 0;
  }
  [[nodiscard]] std::set<int> alive_set() const;
  [[nodiscard]] double last_heard(int camera) const {
    return state_.last_heard[static_cast<std::size_t>(camera)];
  }

  [[nodiscard]] const State& state() const { return state_; }
  /// `state` must hold one entry per camera in each array.
  void restore(const State& state);

 private:
  double timeout_;
  State state_;
};

}  // namespace eecs::runtime
