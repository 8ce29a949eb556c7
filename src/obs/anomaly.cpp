#include "obs/anomaly.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace eecs::obs {

const char* to_string(Anomaly::Kind kind) {
  switch (kind) {
    case Anomaly::Kind::BurnRate: return "burn_rate";
    case Anomaly::Kind::LossRate: return "loss_rate";
    case Anomaly::Kind::Latency: return "latency";
  }
  return "?";
}

AnomalyDetector::AnomalyDetector(const AnomalyOptions& options, int num_cameras)
    : options_(options), num_cameras_(num_cameras) {
  EECS_EXPECTS(num_cameras >= 0);
  EECS_EXPECTS(options.window_rounds > 0);
  EECS_EXPECTS(options.latency_miss_rounds >= 0);
  state_.last_flags.assign(static_cast<std::size_t>(num_cameras), 0);
}

bool AnomalyDetector::flagged(int camera) const {
  if (camera < 0 || camera >= static_cast<int>(state_.last_flags.size())) return false;
  return state_.last_flags[static_cast<std::size_t>(camera)] != 0;
}

std::vector<Anomaly> AnomalyDetector::observe(const RoundObservation& obs) {
  std::vector<Anomaly> findings;
  if (!options_.enabled) return findings;
  EECS_EXPECTS(static_cast<int>(obs.camera_joules.size()) == num_cameras_);
  std::fill(state_.last_flags.begin(), state_.last_flags.end(), std::uint8_t{0});

  const auto window = static_cast<std::size_t>(options_.window_rounds);
  const std::size_t filled = state_.window_sent.size();

  // Burn rate: compare this round's per-camera energy against the rolling
  // mean of the existing window. Cross-multiplied to avoid a division:
  //   joules * 1000 * n > (burn_rate_milli * window_sum)
  // Both sides are products of the same deterministic doubles in the same
  // order everywhere, so the comparison itself is deterministic.
  if (filled == window) {  // Only judge once a full window of history exists.
    for (int c = 0; c < num_cameras_; ++c) {
      double sum = 0.0;
      for (std::size_t r = 0; r < filled; ++r) {
        sum += state_.window_joules[r * static_cast<std::size_t>(num_cameras_) +
                                    static_cast<std::size_t>(c)];
      }
      const double joules = obs.camera_joules[static_cast<std::size_t>(c)];
      if (sum > 0.0 &&
          joules * 1000.0 * static_cast<double>(filled) >
              static_cast<double>(options_.burn_rate_milli) * sum) {
        findings.push_back({Anomaly::Kind::BurnRate, c, obs.round, joules,
                            static_cast<double>(options_.burn_rate_milli) / 1000.0 * sum /
                                static_cast<double>(filled)});
        state_.last_flags[static_cast<std::size_t>(c)] = 1;
      }
    }
  }

  // Fold this round in before the window-wide rules so a single catastrophic
  // round can flag immediately rather than one round late.
  state_.window_sent.push_back(obs.messages_sent);
  state_.window_lost.push_back(obs.messages_lost);
  state_.window_misses.push_back(obs.deadline_misses);
  state_.window_joules.insert(state_.window_joules.end(), obs.camera_joules.begin(),
                              obs.camera_joules.end());
  if (state_.window_sent.size() > window) {
    state_.window_sent.erase(state_.window_sent.begin());
    state_.window_lost.erase(state_.window_lost.begin());
    state_.window_misses.erase(state_.window_misses.begin());
    state_.window_joules.erase(state_.window_joules.begin(),
                               state_.window_joules.begin() + num_cameras_);
  }
  ++state_.rounds_seen;

  // Loss rate over the window: lost * 1000 > loss_rate_milli * sent, pure
  // integer arithmetic (u64 counters stay far below the overflow point).
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  for (std::size_t r = 0; r < state_.window_sent.size(); ++r) {
    sent += state_.window_sent[r];
    lost += state_.window_lost[r];
  }
  if (sent >= options_.loss_min_messages &&
      lost * 1000 > static_cast<std::uint64_t>(options_.loss_rate_milli) * sent) {
    findings.push_back({Anomaly::Kind::LossRate, -1, obs.round,
                        static_cast<double>(lost) / static_cast<double>(sent),
                        static_cast<double>(options_.loss_rate_milli) / 1000.0});
  }

  // Latency: deadline misses accumulated over the window (integer count).
  std::uint64_t misses = 0;
  for (const std::uint32_t m : state_.window_misses) misses += m;
  if (misses >= static_cast<std::uint64_t>(options_.latency_miss_rounds)) {
    findings.push_back({Anomaly::Kind::Latency, -1, obs.round,
                        static_cast<double>(misses),
                        static_cast<double>(options_.latency_miss_rounds)});
  }

  return findings;
}

void AnomalyDetector::import_state(const State& state) {
  const std::size_t rounds = state.window_sent.size();
  const auto cameras = static_cast<std::size_t>(num_cameras_);
  EECS_EXPECTS(rounds <= static_cast<std::size_t>(options_.window_rounds));
  EECS_EXPECTS(state.window_lost.size() == rounds && state.window_misses.size() == rounds);
  EECS_EXPECTS(state.window_joules.size() == rounds * cameras);
  EECS_EXPECTS(state.last_flags.size() == cameras);
  state_ = state;
}

}  // namespace eecs::obs
