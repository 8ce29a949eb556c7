// Per-frame shared-compute cache for the sliding-window hot path. The
// assessment sweep runs all four detectors on the same frame; each one
// resizes the frame to its own scale ladder and builds feature substrates on
// top. Several of those substrates coincide (HOG and LSVM share the exact
// same BlockGrid; the pyramids overlap at common dimensions), so a
// FramePrecompute memoizes them keyed by their defining parameters and hands
// back the identical floats on reuse.
//
// Energy accounting invariant: every cache entry records the CostCounter
// delta of a fresh compute and replays it on each access, so each algorithm
// still reports the ops it would spend standalone (the paper's per-algorithm
// cost model) no matter how many hits the cache serves.
//
// Threading: a FramePrecompute is NOT thread-safe; use one instance per task
// (the SweepScheduler keeps one per camera slot, and the simulation hands
// each slot to one parallel fan-out task, which builds its substrates).
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "detect/acf_detector.hpp"
#include "detect/block_grid.hpp"
#include "detect/c4_detector.hpp"
#include "energy/cost.hpp"
#include "imaging/image.hpp"

namespace eecs::obs {
class Counter;
}

namespace eecs::detect {

class SweepGate;

class FramePrecompute {
 public:
  /// `force_naive` is the bit-exactness escape hatch: detectors fall back to
  /// their legacy per-window scoring paths, and census grids rebuild from a
  /// fresh 3-channel crop + transform per offset. Other substrates stay
  /// memoized — the legacy code computed each exactly once per detect() call
  /// anyway — so a fresh FramePrecompute per call reproduces its work profile
  /// exactly (use one per detector for a faithful naive baseline or golden
  /// check).
  explicit FramePrecompute(const imaging::Image& frame, bool force_naive = false);

  FramePrecompute(const FramePrecompute&) = delete;
  FramePrecompute& operator=(const FramePrecompute&) = delete;

  [[nodiscard]] const imaging::Image& frame() const { return *frame_; }
  [[nodiscard]] bool force_naive() const { return force_naive_; }

  /// Context gate attached by the SweepScheduler for gated rounds; null (the
  /// default, and every standalone detect()) means a full ungated sweep.
  /// Detectors consult it per scale to restrict or skip their anchor loops.
  void set_gate(const SweepGate* gate) { gate_ = gate; }
  [[nodiscard]] const SweepGate* gate() const { return gate_; }

  /// The frame bilinearly resized to width x height. Requesting the native
  /// dimensions returns the frame itself (bilinear resize at identity scale
  /// reproduces every pixel exactly).
  [[nodiscard]] const imaging::Image& scaled(int width, int height);

  /// Block-normalized HOG grid of scaled(width, height); shared between the
  /// HOG and LSVM detectors. Charges `cost` what a fresh build would.
  [[nodiscard]] const BlockGrid& block_grid(int width, int height,
                                            const features::HogParams& params,
                                            energy::CostCounter* cost);

  /// ACF aggregated channels of scaled(width, height). Charges `cost` what a
  /// fresh compute_acf_channels would.
  [[nodiscard]] const ChannelMap& acf_channels(int width, int height, energy::CostCounter* cost);

  /// Census cell grid of scaled(width, height) cropped at (offset_x,
  /// offset_y) — C4's half-cell phase shifts. Charges `cost` what a fresh
  /// build (census transform + histograms) would.
  [[nodiscard]] const CensusCellGrid& census_grid(int width, int height, int offset_x,
                                                  int offset_y, energy::CostCounter* cost);

 private:
  template <typename T>
  struct Entry {
    T value;
    energy::CostCounter charge;  ///< Cost of a fresh compute, replayed per access.
  };

  using DimKey = std::tuple<int, int>;
  // (width, height, cell_size, block_size, bins).
  using GridKey = std::tuple<int, int, int, int, int>;
  // (width, height, offset_x, offset_y).
  using CensusKey = std::tuple<int, int, int, int>;

  /// Luma plane of scaled(width, height), memoized. to_gray is positionwise,
  /// so gray-of-crop equals crop-of-gray exactly; the census path crops this
  /// single plane instead of re-graying a 3-channel crop per offset.
  [[nodiscard]] const imaging::Image& gray(int width, int height);

  /// Full-image census codes of gray(width, height), memoized. C4's offset
  /// crops reach the image's right/bottom edges, so their codes equal these
  /// shifted — except the crop's left column / top row, whose clamped
  /// neighbors differ and are recomputed per offset.
  [[nodiscard]] const std::vector<std::uint8_t>& census_codes(int width, int height);

  /// Hit/miss counters of the current obs session, hoisted once per frame at
  /// construction (null under EECS_OBS_OFF). Indexed by substrate.
  enum Substrate { kScaled = 0, kBlockGrid, kAcfChannels, kCensus, kNumSubstrates };
  void count_access(Substrate substrate, bool hit);

  const imaging::Image* frame_;
  bool force_naive_;
  const SweepGate* gate_ = nullptr;
  obs::Counter* cache_hit_[kNumSubstrates] = {};
  obs::Counter* cache_miss_[kNumSubstrates] = {};
  // std::map: node-based, so references handed out stay valid across inserts.
  std::map<DimKey, imaging::Image> scaled_;
  std::map<DimKey, imaging::Image> gray_;
  std::map<DimKey, std::vector<std::uint8_t>> census_codes_;
  std::map<GridKey, Entry<BlockGrid>> grids_;
  std::map<DimKey, Entry<ChannelMap>> channels_;
  std::map<CensusKey, Entry<CensusCellGrid>> census_;
};

}  // namespace eecs::detect
