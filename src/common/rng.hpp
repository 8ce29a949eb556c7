// Deterministic random number generation. Every stochastic component in the
// repository (scene simulation, k-means init, RANSAC, SVM training, ...) takes
// an explicit Rng so experiments are reproducible bit-for-bit across runs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"

namespace eecs {

/// xoshiro256** generator seeded via splitmix64. Small, fast, and fully
/// deterministic across platforms (unlike distribution objects in <random>,
/// whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Standard normal via Box-Muller.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_u64() % i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n). Requires k <= n.
  std::vector<int> sample_indices(int n, int k);

  /// Derive an independent child generator; used to give each subsystem its
  /// own stream without correlation.
  Rng fork();

  /// Full generator state, exposed so checkpoint/restore can serialize a
  /// stream mid-flight (xoshiro words plus the Box-Muller spare).
  struct State {
    std::array<std::uint64_t, 4> words{};
    bool have_cached_normal = false;
    double cached_normal = 0.0;

    [[nodiscard]] bool operator==(const State&) const = default;
  };
  [[nodiscard]] State state() const;
  /// Resume the stream exactly where `state()` captured it: the next draw
  /// after restore() is bit-identical to the next draw after state().
  void restore(const State& s);

 private:
  std::uint64_t state_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace eecs
