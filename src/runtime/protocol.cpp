#include "runtime/protocol.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace eecs::runtime {

double jitter_hash01(std::uint64_t seed, int camera, int attempts) {
  std::uint64_t x = seed;
  x ^= 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(camera) + 1);
  x ^= 0xBF58476D1CE4E5B9ull * (static_cast<std::uint64_t>(attempts) + 1);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

double RetryPolicy::backoff(int camera, int attempts, double stride) const {
  const double frames =
      std::min(base_gt_frames + static_cast<double>(attempts), max_backoff_gt_frames);
  double delay = frames * stride;
  if (jitter_fraction != 0.0) {
    delay *= 1.0 + jitter_fraction * jitter_hash01(jitter_seed, camera, attempts);
  }
  return delay;
}

bool AssignmentRetryQueue::push(int camera, std::vector<std::uint8_t> payload,
                                std::uint32_t sequence, double now, double stride) {
  const bool replaced = entries_.count(camera) > 0;
  entries_[camera] = {std::move(payload), sequence, 1, now + policy_.backoff(camera, 0, stride)};
  return replaced;
}

AssignmentRetryQueue::AckOutcome AssignmentRetryQueue::ack(int camera, std::uint32_t sequence) {
  const auto it = entries_.find(camera);
  if (it == entries_.end()) return AckOutcome::Late;
  if (it->second.sequence != sequence) return AckOutcome::Stale;
  entries_.erase(it);
  return AckOutcome::Acked;
}

bool AssignmentRetryQueue::drop(int camera) { return entries_.erase(camera) > 0; }

bool LivenessTracker::mark_heard(int camera, double time) {
  if (camera < 0 || camera >= static_cast<int>(state_.last_heard.size())) return false;
  const auto c = static_cast<std::size_t>(camera);
  state_.last_heard[c] = time;
  if (state_.presumed_alive[c] != 0) return false;
  state_.presumed_alive[c] = 1;
  return true;
}

std::vector<int> LivenessTracker::sweep(double now) {
  std::vector<int> newly_dead;
  for (std::size_t c = 0; c < state_.last_heard.size(); ++c) {
    if (state_.presumed_alive[c] == 0) continue;
    if (now - state_.last_heard[c] <= timeout_) continue;
    state_.presumed_alive[c] = 0;
    newly_dead.push_back(static_cast<int>(c));
  }
  return newly_dead;
}

std::set<int> LivenessTracker::alive_set() const {
  std::set<int> alive;
  for (std::size_t c = 0; c < state_.presumed_alive.size(); ++c) {
    if (state_.presumed_alive[c] != 0) alive.insert(static_cast<int>(c));
  }
  return alive;
}

void LivenessTracker::restore(const State& state) {
  EECS_EXPECTS(state.last_heard.size() == state_.last_heard.size() &&
               state.presumed_alive.size() == state_.presumed_alive.size());
  state_ = state;
}

}  // namespace eecs::runtime
