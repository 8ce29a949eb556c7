// Synthetic training patches for the detectors. Positives are person sprites
// rendered on varied backgrounds at the canonical window size; negatives are
// background texture and furniture-distractor patches. This mirrors how the
// paper's detectors come pre-trained on generic pedestrian data (INRIA etc.)
// rather than on the evaluation datasets themselves.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "imaging/image.hpp"

namespace eecs::detect {

/// Canonical detection window (pixels). All detectors share it.
inline constexpr int kWindowWidth = 48;
inline constexpr int kWindowHeight = 96;

struct TrainingSet {
  std::vector<imaging::Image> positives;  ///< kWindowWidth x kWindowHeight RGB.
  std::vector<imaging::Image> negatives;
};

struct TrainingSetOptions {
  int num_positives = 350;
  int num_negatives = 700;
};

/// Generate a deterministic training set from the given RNG.
[[nodiscard]] TrainingSet generate_training_set(Rng& rng, const TrainingSetOptions& options = {});

}  // namespace eecs::detect
