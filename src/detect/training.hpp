// Synthetic training patches for the detectors. Positives are person sprites
// rendered on varied backgrounds at the canonical window size; negatives are
// background texture and furniture-distractor patches. This mirrors how the
// paper's detectors come pre-trained on generic pedestrian data (INRIA etc.)
// rather than on the evaluation datasets themselves.
#pragma once

#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "imaging/image.hpp"

namespace eecs::detect {

/// Canonical detection window (pixels). All detectors share it.
inline constexpr int kWindowWidth = 48;
inline constexpr int kWindowHeight = 96;

/// The patches in training order: the positives, then the negatives.
struct TrainingSet {
  std::vector<imaging::Image> positives;  ///< kWindowWidth x kWindowHeight RGB.
  std::vector<imaging::Image> negatives;

  [[nodiscard]] std::size_t size() const { return positives.size() + negatives.size(); }
  [[nodiscard]] const imaging::Image& patch(std::size_t i) const {
    return i < positives.size() ? positives[i] : negatives[i - positives.size()];
  }
  /// +1 for every positive, then -1 for every negative.
  [[nodiscard]] std::vector<int> labels() const;

  /// {fn(patch(0)), ..., fn(patch(size() - 1))}, one task per patch: slot i
  /// always holds patch i's row, at any width.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<T> map(const Fn& fn) const {
    return common::parallel_map<T>(size(), [&](std::size_t i) -> T { return fn(patch(i)); });
  }
};

struct TrainingSetOptions {
  int num_positives = 350;
  int num_negatives = 700;
};

/// Generate a deterministic training set from the given RNG. Every draw
/// depends on the scenes' geometry only, never on pixels, so each scene is
/// planned in a serial pass and its sampled frames render in parallel.
[[nodiscard]] TrainingSet generate_training_set(Rng& rng, const TrainingSetOptions& options = {});

}  // namespace eecs::detect
