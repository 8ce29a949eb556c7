// Scheduler-owned sliding-window work-list. The round's detection work is
// decomposed into (camera slot, frame, scale, row band) tiles up front; the
// SweepScheduler owns that list and one FramePrecompute per slot. A slot's
// pyramid levels and feature substrates (HOG block grids, ACF channel maps,
// census grids) are built on demand, inside the detect() calls that charge
// them, by whichever task the slot is handed to.
//
// Context gate (opt-in, off by default): each slot may carry the camera's
// calibration (geometry::PinholeCamera). Its ground-plane homography bounds
// the pixel height of an upright person per image row, which rules entire
// (scale, row band) tiles out before any channel work: a 48x96 window at
// scale s claims a person of ~0.88*96/s frame pixels, and rows where that is
// far outside the geometric [h_min, h_max] envelope cannot produce a true
// detection. Pruned tiles skip resize, gradients, channels and classifier
// work entirely and are reported through CostCounter::windows_pruned, so
// evaluated + pruned always equals the full-sweep anchor count and the energy
// ledger still closes bit-exactly (pruned windows charge nothing anywhere).
// Every `recovery_every`-th round runs ungated (a full-sweep recovery round),
// bounding the miss horizon if the scene defies the calibration.
//
// Gate-off runs are bit-identical to the pre-scheduler code at every thread
// width and SIMD mode: the tile decomposition only reorders work that is
// value-independent across tiles, and the gate never engages.
//
// Threading: plan() is single-threaded setup; afterwards each slot is an
// independent FramePrecompute, safe for one parallel task per slot, and that
// task builds the slot's substrates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "detect/detector.hpp"
#include "detect/frame_cache.hpp"
#include "geometry/camera.hpp"
#include "imaging/image.hpp"

namespace eecs::detect {

/// Knobs of the context-aware scale/region gate. Defaults leave it off and
/// the simulation bit-identical to a build without the scheduler.
struct ContextGateOptions {
  bool enabled = false;
  /// Accept a window whose implied person height is within
  /// [min_height_ratio * h_min(row), max_height_ratio * h_max(row)] of the
  /// geometric envelope. Margins absorb calibration error, pose variation
  /// and the column-independence approximation (the envelope is evaluated at
  /// the image center column).
  double min_height_ratio = 0.70;
  double max_height_ratio = 1.35;
  /// Person height envelope used to build the per-row tables (meters).
  double person_min_m = 1.60;
  double person_max_m = 1.92;
  /// Row-band granularity in scaled-image pixels: feasible intervals widen
  /// outward to band boundaries, so tiles stay coarse and conservative.
  int band_rows = 16;
  /// Every Nth round runs a full ungated sweep (recovery round); <= 1 gates
  /// every round.
  int recovery_every = 8;
};

/// Resolve the effective gate options: EECS_CONTEXT_GATE=1/0 (also
/// on/off/true/false) overrides `base.enabled`, mirroring the EECS_SIMD /
/// EECS_THREADS runtime-knob convention.
[[nodiscard]] ContextGateOptions resolve_context_gate(ContextGateOptions base);

/// Per-camera feasibility oracle: which window-top rows of a scaled pyramid
/// level could contain an upright person, according to the camera's
/// ground-plane calibration. Stateless after construction and const-callable
/// from parallel per-slot tasks.
class SweepGate {
 public:
  SweepGate(const geometry::PinholeCamera& camera, const ContextGateOptions& options,
            int frame_width, int frame_height);

  /// Feasible window-top rows (inclusive, scaled-image pixel units, already
  /// widened to band boundaries) for a kWindowWidth x kWindowHeight sliding
  /// window over the (scaled_width, scaled_height) level. An empty interval
  /// prunes the whole scale; a degenerate calibration (horizon out of view,
  /// singular homography) returns the full range and never prunes.
  [[nodiscard]] RowInterval top_rows(int scaled_width, int scaled_height) const;

  [[nodiscard]] bool valid() const { return valid_; }

 private:
  int frame_width_ = 0;
  int frame_height_ = 0;
  ContextGateOptions options_;
  bool valid_ = false;
  /// Per full-frame foot row: expected pixel height of a person whose feet
  /// sit on that row, for the shortest/tallest person of the envelope.
  /// <= 0 marks rows with no ground intersection in front of the camera.
  std::vector<double> h_min_, h_max_;
};

/// Convert a feasible window-top pixel interval into an inclusive anchor-row
/// range for a detector whose anchor `a` places its window top at
/// `a * stride + offset` scaled pixels. `max_anchor` is the last valid
/// anchor. Null gate (gate off) returns the full [0, max_anchor] range.
[[nodiscard]] RowInterval gated_anchor_rows(const SweepGate* gate, int scaled_width,
                                            int scaled_height, int stride, int offset,
                                            int max_anchor);

class SweepScheduler {
 public:
  /// A scheduler with `slots` addressable slots, all initially unplanned.
  /// `round_phase` drives the recovery cadence: the gate engages only when
  /// options.enabled and this is not a recovery round.
  explicit SweepScheduler(std::size_t slots, const ContextGateOptions& options = {},
                          std::uint64_t round_phase = 0);

  SweepScheduler(const SweepScheduler&) = delete;
  SweepScheduler& operator=(const SweepScheduler&) = delete;
  ~SweepScheduler();

  /// Register slot `i` over `frame` and expand every pyramid level
  /// `detector` scans (its rungs()) into (scale, row band) tiles. May be called
  /// repeatedly for one slot — the assessment sweep runs several algorithms
  /// per camera — but always with the same frame. `camera` supplies the
  /// slot's calibration; null (or gate off) leaves the slot ungated.
  void plan(std::size_t i, const imaging::Image& frame, const Detector& detector,
            const geometry::PinholeCamera* camera = nullptr);

  /// Does nothing: every slot builds its resizes and substrates on demand
  /// inside detect(). Kept because perfbench/eecs_perfbench.cpp calls it.
  void prewarm() {}

  /// The slot's cache; requires a prior plan() for `i`.
  [[nodiscard]] FramePrecompute& at(std::size_t i);

  [[nodiscard]] bool planned(std::size_t i) const {
    return i < slots_.size() && slots_[i].pre != nullptr;
  }

  /// True when the context gate engages this round (enabled and not a
  /// recovery round).
  [[nodiscard]] bool gating() const { return gating_; }

  /// Work-list accounting: row-band tiles registered across all plan()
  /// calls, and how many of them the gate dropped.
  [[nodiscard]] std::uint64_t tiles_planned() const { return tiles_planned_; }
  [[nodiscard]] std::uint64_t tiles_pruned() const { return tiles_pruned_; }

 private:
  struct Slot {
    std::unique_ptr<FramePrecompute> pre;
    std::unique_ptr<SweepGate> gate;
  };

  ContextGateOptions options_;
  bool gating_ = false;
  std::uint64_t tiles_planned_ = 0;
  std::uint64_t tiles_pruned_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace eecs::detect
