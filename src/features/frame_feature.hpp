// Per-frame feature vector for video comparison (paper §V-A): pooled global
// HOG descriptor concatenated with a BoW keypoint histogram. The paper uses
// 3780-d HOG + 400-word BoW (4180 dims); we default to 144 + 64 = 208 dims so
// the alpha x alpha GFK kernel stays cheap (see DESIGN.md substitutions).
#pragma once

#include <vector>

#include "energy/cost.hpp"
#include "features/bow.hpp"
#include "imaging/image.hpp"

namespace eecs::features {

struct FrameFeatureParams {
  int hog_pool_x = 4;
  int hog_pool_y = 4;  ///< Global HOG dims = pool_x * pool_y * 9.
  int bow_words = 64;
  /// BoW histograms are L1-normalized (tiny entries); this weight brings the
  /// block's L2 norm in line with the unit-norm HOG block.
  float bow_weight = 4.0f;
  /// Intensity-layout block: mean luminance over an intensity_pool^2 grid.
  /// Strongly scene-identifying (illumination, background tone) and nearly
  /// invariant to people moving through the frame.
  int intensity_pool = 4;
  float intensity_weight = 1.5f;
};

class FrameFeatureExtractor {
 public:
  /// Builds the BoW vocabulary from keypoint descriptors of the supplied
  /// sample frames (the paper builds its vocabulary from 12 training feeds).
  FrameFeatureExtractor(const std::vector<imaging::Image>& vocabulary_frames,
                        const FrameFeatureParams& params, Rng& rng);

  [[nodiscard]] int dimension() const;

  /// Extract the combined (HOG ++ BoW) feature for one frame.
  [[nodiscard]] std::vector<float> extract(const imaging::Image& frame,
                                           energy::CostCounter* cost = nullptr) const;

  [[nodiscard]] const BowVocabulary& vocabulary() const { return vocabulary_; }

 private:
  FrameFeatureParams params_;
  BowVocabulary vocabulary_;
};

}  // namespace eecs::features
