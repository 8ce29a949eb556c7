#include "detect/detector.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/parallel.hpp"
#include "detect/acf_detector.hpp"
#include "detect/c4_detector.hpp"
#include "detect/frame_cache.hpp"
#include "detect/hog_detector.hpp"
#include "detect/lsvm_detector.hpp"
#include "detect/sweep_scheduler.hpp"
#include "obs/telemetry.hpp"

namespace eecs::detect {

namespace {

/// Static metric names so the hot path never formats strings.
const char* invocation_metric(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::Hog: return "detect.invocations.hog";
    case AlgorithmId::Acf: return "detect.invocations.acf";
    case AlgorithmId::C4: return "detect.invocations.c4";
    case AlgorithmId::Lsvm: return "detect.invocations.lsvm";
  }
  return "detect.invocations.unknown";
}

}  // namespace

Detector::Detector(double min_scale, double max_scale, double scale_factor, float score_floor)
    : scales_(pyramid_scales(min_scale, max_scale, scale_factor)), score_floor_(score_floor) {}

std::vector<Detection> Detector::detect(const imaging::Image& frame,
                                        energy::CostCounter* cost) const {
  FramePrecompute local(frame);
  return detect(local, cost);
}

std::vector<Detection> Detector::detect(FramePrecompute& pre, energy::CostCounter* cost) const {
  auto detections = run(pre, cost);
  if constexpr (obs::kEnabled) {
    // Counts and integer-valued histogram sums are order-independent, so these
    // stay bit-identical when detect() runs inside the parallel fan-out.
    obs::MetricsRegistry& metrics = obs::current().metrics();
    metrics.counter(invocation_metric(id())).inc();
    metrics.histogram("detect.detections_per_invocation", {0, 1, 2, 4, 8, 16, 32})
        .observe(static_cast<double>(detections.size()));
  }
  return detections;
}

std::vector<Rung> Detector::rungs(int frame_width, int frame_height) const {
  std::vector<Rung> out;
  out.reserve(scales_.size());
  for (double scale : scales_) {
    const int sw = static_cast<int>(std::lround(frame_width * scale));
    const int sh = static_cast<int>(std::lround(frame_height * scale));
    if (sw < kWindowWidth || sh < kWindowHeight) continue;
    out.push_back({scale, sw, sh});
  }
  return out;
}

std::vector<std::pair<int, int>> Detector::precompute_plan(int frame_width,
                                                           int frame_height) const {
  std::vector<std::pair<int, int>> dims;
  for (const Rung& rung : rungs(frame_width, frame_height)) {
    if (rung.width == frame_width && rung.height == frame_height) continue;
    dims.emplace_back(rung.width, rung.height);
  }
  return dims;
}

RowInterval Detector::sweep_rows(const FramePrecompute& pre, const Rung& rung, int stride,
                                 int offset, int max_x, int max_y,
                                 energy::CostCounter* cost) const {
  EECS_EXPECTS(max_x >= 0 && max_y >= 0);
  const RowInterval rows =
      gated_anchor_rows(pre.gate(), rung.width, rung.height, stride, offset, max_y);
  if (cost != nullptr) {
    const auto row_windows = static_cast<std::uint64_t>(max_x) + 1;
    const auto full_rows = static_cast<std::uint64_t>(max_y) + 1;
    const auto kept_rows = rows.empty() ? 0 : static_cast<std::uint64_t>(rows.hi - rows.lo) + 1;
    cost->add_windows(row_windows * kept_rows, row_windows * (full_rows - kept_rows));
  }
  return rows;
}

const imaging::Image& Detector::level(FramePrecompute& pre, const Rung& rung,
                                      energy::CostCounter* cost) const {
  const imaging::Image& scaled = pre.scaled(rung.width, rung.height);
  if (&scaled != &pre.frame() && cost != nullptr) cost->add_pixels(scaled.pixel_count());
  return scaled;
}

void Detector::fit_score_calibration(const std::vector<double>& scores,
                                     const std::vector<int>& labels) {
  EECS_EXPECTS(scores.size() == labels.size());
  std::vector<double> positive_scores, negative_scores;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    (labels[i] == 1 ? positive_scores : negative_scores).push_back(scores[i]);
  }
  platt_ = fit_platt(positive_scores, negative_scores);
}

void Detector::emit(std::vector<Detection>& out, const Rung& rung, int x, int y,
                    double score) const {
  if (score <= score_floor_) return;
  Detection d;
  d.box = window_to_person_box({x / rung.scale, y / rung.scale, kWindowWidth / rung.scale,
                                kWindowHeight / rung.scale});
  d.score = score;
  d.probability = platt_.probability(score);
  out.push_back(d);
}

std::unique_ptr<Detector> make_detector(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::Hog: return std::make_unique<HogDetector>();
    case AlgorithmId::Acf: return std::make_unique<AcfDetector>();
    case AlgorithmId::C4: return std::make_unique<C4Detector>();
    case AlgorithmId::Lsvm: return std::make_unique<LsvmDetector>();
  }
  EECS_EXPECTS(false);
  return nullptr;
}

std::vector<std::unique_ptr<Detector>> make_trained_detectors(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<Detector>> detectors;
  {
    const TrainingSet training_set = generate_training_set(rng);
    // Each detector trains on its own fork of `rng`, drawn in
    // all_algorithms() order, so the schedule below cannot change what any
    // of them learns.
    std::vector<Rng> forks;
    for (AlgorithmId id : all_algorithms()) {
      detectors.push_back(make_detector(id));
      forks.push_back(rng.fork());
    }
    // ACF first, on the whole pool: its boosting fans out every round, and
    // from a pool task those rounds would run inline. The other three fit
    // serial Pegasos chains that no finer split speeds up bit-identically,
    // so they train side by side as pool tasks.
    std::vector<std::size_t> chains;
    for (std::size_t i = 0; i < detectors.size(); ++i) {
      if (detectors[i]->id() == AlgorithmId::Acf) {
        detectors[i]->train(training_set, forks[i]);
      } else {
        chains.push_back(i);
      }
    }
    common::parallel_for_each(chains.size(), [&](std::size_t k) {
      detectors[chains[k]]->train(training_set, forks[chains[k]]);
    });
  }
  // The training set and the features were freed on pool threads.
  common::trim_heap();
  return detectors;
}

std::vector<double> pyramid_scales(double min_scale, double max_scale, double factor) {
  EECS_EXPECTS(min_scale > 0.0 && max_scale >= min_scale && factor > 1.0);
  std::vector<double> scales;
  for (double s = max_scale; s >= min_scale * 0.999; s /= factor) scales.push_back(s);
  return scales;
}

imaging::Rect window_to_person_box(const imaging::Rect& window) {
  constexpr double kWidthFraction = 0.58;
  constexpr double kHeightFraction = 0.88;
  return {window.x + window.w * (1.0 - kWidthFraction) / 2.0,
          window.y + window.h * 0.06, window.w * kWidthFraction,
          window.h * kHeightFraction};
}

}  // namespace eecs::detect
