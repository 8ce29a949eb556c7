#include "features/frame_feature.hpp"

#include "common/parallel.hpp"
#include "features/hog.hpp"
#include "features/keypoints.hpp"
#include "imaging/filter.hpp"

namespace eecs::features {

FrameFeatureExtractor::FrameFeatureExtractor(const std::vector<imaging::Image>& vocabulary_frames,
                                             const FrameFeatureParams& params, Rng& rng)
    : params_(params) {
  EECS_EXPECTS(!vocabulary_frames.empty());
  // Frames are independent; their descriptors are concatenated in frame
  // order, so k-means sees the serial loop's input.
  auto per_frame = common::parallel_map<std::vector<std::vector<float>>>(
      vocabulary_frames.size(),
      [&](std::size_t i) { return extract_descriptors(vocabulary_frames[i]); });
  std::vector<std::vector<float>> all_descriptors;
  for (auto& descriptors : per_frame) {
    all_descriptors.insert(all_descriptors.end(), std::make_move_iterator(descriptors.begin()),
                           std::make_move_iterator(descriptors.end()));
  }
  EECS_EXPECTS(static_cast<int>(all_descriptors.size()) >= params.bow_words);
  vocabulary_ = BowVocabulary(all_descriptors, params.bow_words, rng);
}

int FrameFeatureExtractor::dimension() const {
  return params_.hog_pool_x * params_.hog_pool_y * HogParams{}.bins + params_.bow_words +
         params_.intensity_pool * params_.intensity_pool;
}

std::vector<float> FrameFeatureExtractor::extract(const imaging::Image& frame,
                                                  energy::CostCounter* cost) const {
  // One grey image feeds all three blocks; each kernel uses a grey input in
  // place.
  imaging::Image gray_storage;
  const imaging::Image& gray = imaging::gray_view(frame, gray_storage);
  std::vector<float> feat =
      global_descriptor(gray, params_.hog_pool_x, params_.hog_pool_y, {}, cost);
  const std::vector<float> bow = bow_frame_histogram(gray, vocabulary_, cost);
  feat.reserve(static_cast<std::size_t>(dimension()));
  for (float v : bow) feat.push_back(params_.bow_weight * v);

  // Intensity-layout block: block-mean luminance on a coarse grid.
  const int pool = params_.intensity_pool;
  for (int py = 0; py < pool; ++py) {
    for (int px = 0; px < pool; ++px) {
      const int x0 = frame.width() * px / pool;
      const int x1 = frame.width() * (px + 1) / pool;
      const int y0 = frame.height() * py / pool;
      const int y1 = frame.height() * (py + 1) / pool;
      double s = 0.0;
      long n = 0;
      // Sample a sparse lattice: the block mean needs no full pass.
      const int step = std::max(1, (x1 - x0) / 16);
      for (int y = y0; y < y1; y += step) {
        for (int x = x0; x < x1; x += step) {
          s += gray.at(x, y);
          ++n;
        }
      }
      feat.push_back(params_.intensity_weight *
                     static_cast<float>(n > 0 ? s / static_cast<double>(n) : 0.0));
    }
  }
  if (cost != nullptr) cost->add_pixels(frame.pixel_count());
  return feat;
}

}  // namespace eecs::features
