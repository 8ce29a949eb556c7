#include "detect/sweep_scheduler.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/contracts.hpp"
#include "detect/detector.hpp"
#include "detect/training.hpp"

namespace eecs::detect {

namespace {

/// Fraction of the window height the trained person occupies (the
/// window_to_person_box shrink): the implied person height of a window at
/// scale s is kPersonWindowFraction * kWindowHeight / s frame pixels.
constexpr double kPersonWindowFraction = 0.88;

}  // namespace

ContextGateOptions resolve_context_gate(ContextGateOptions base) {
  if (const char* env = std::getenv("EECS_CONTEXT_GATE")) {
    std::string v(env);
    for (char& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (v == "0" || v == "off" || v == "false") {
      base.enabled = false;
    } else if (!v.empty()) {
      base.enabled = true;
    }
  }
  return base;
}

SweepGate::SweepGate(const geometry::PinholeCamera& camera, const ContextGateOptions& options,
                     int frame_width, int frame_height)
    : frame_width_(frame_width), frame_height_(frame_height), options_(options) {
  EECS_EXPECTS(frame_width > 0 && frame_height > 0);
  h_min_.assign(static_cast<std::size_t>(frame_height), 0.0);
  h_max_.assign(static_cast<std::size_t>(frame_height), 0.0);
  // Foot-row tables: backproject the center-column pixel of each row to the
  // ground plane, stand the person envelope on that point, and measure the
  // projected pixel height. Degenerate calibrations (vertical view, singular
  // ground homography) leave the gate invalid, i.e. it never prunes.
  geometry::Homography ground_inv;
  try {
    ground_inv = camera.plane_homography(0.0).inverse();
  } catch (const std::exception&) {
    return;
  }
  const double cx = frame_width / 2.0;
  bool any = false;
  for (int y = 0; y < frame_height; ++y) {
    const auto ground = ground_inv.apply({cx, static_cast<double>(y)});
    if (!ground.has_value()) continue;
    const geometry::Vec3 foot{ground->x, ground->y, 0.0};
    if (camera.depth(foot) <= 0.0) continue;  // Row maps behind the camera.
    const auto head_short = camera.project({ground->x, ground->y, options.person_min_m});
    const auto head_tall = camera.project({ground->x, ground->y, options.person_max_m});
    if (!head_short.has_value() || !head_tall.has_value()) continue;
    const double h_short = static_cast<double>(y) - head_short->y;
    const double h_tall = static_cast<double>(y) - head_tall->y;
    if (h_short <= 0.0 || h_tall <= 0.0) continue;
    h_min_[static_cast<std::size_t>(y)] = h_short;
    h_max_[static_cast<std::size_t>(y)] = h_tall;
    any = true;
  }
  valid_ = any;
}

RowInterval SweepGate::top_rows(int scaled_width, int scaled_height) const {
  const int t_max = scaled_height - kWindowHeight;
  if (t_max < 0) return {0, -1};
  if (!valid_) return {0, t_max};
  const double s = static_cast<double>(scaled_width) / static_cast<double>(frame_width_);
  if (s <= 0.0) return {0, t_max};
  // Implied person height of a 48x96 window at this scale, in frame pixels.
  const double person_px = kPersonWindowFraction * static_cast<double>(kWindowHeight) / s;
  int lo = t_max + 1;
  int hi = -1;
  for (int t = 0; t <= t_max; ++t) {
    // The window bottom is the foot row; map it back to frame coordinates.
    const double yf = static_cast<double>(t + kWindowHeight) / s;
    const int row = std::clamp(static_cast<int>(std::lround(yf)), 0, frame_height_ - 1);
    const double h_lo = h_min_[static_cast<std::size_t>(row)];
    const double h_hi = h_max_[static_cast<std::size_t>(row)];
    if (h_lo <= 0.0) continue;
    if (person_px < options_.min_height_ratio * h_lo ||
        person_px > options_.max_height_ratio * h_hi) {
      continue;
    }
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  if (hi < lo) return {0, -1};
  // Widen outward to row-band boundaries: the gate prunes whole tiles only.
  const int band = std::max(1, options_.band_rows);
  lo = (lo / band) * band;
  hi = std::min(t_max, (hi / band + 1) * band - 1);
  return {lo, hi};
}

RowInterval gated_anchor_rows(const SweepGate* gate, int scaled_width, int scaled_height,
                              int stride, int offset, int max_anchor) {
  if (max_anchor < 0) return {0, -1};
  if (gate == nullptr) return {0, max_anchor};
  const RowInterval rows = gate->top_rows(scaled_width, scaled_height);
  if (rows.empty()) return {0, -1};
  // First anchor whose top (a * stride + offset) >= rows.lo, last <= rows.hi.
  const int lo = std::max(0, (rows.lo - offset + stride - 1) / stride);
  const int hi = std::min(max_anchor, (rows.hi - offset) / stride);
  return {lo, hi};
}

SweepScheduler::SweepScheduler(std::size_t slots, const ContextGateOptions& options,
                               std::uint64_t round_phase)
    : options_(options), slots_(slots) {
  // Gated from round 0 (the gate is static calibration, it needs no warm-up);
  // every recovery_every-th round thereafter sweeps ungated.
  const bool recovery =
      options.recovery_every > 1 && round_phase > 0 &&
      round_phase % static_cast<std::uint64_t>(options.recovery_every) == 0;
  gating_ = options.enabled && !recovery;
}

SweepScheduler::~SweepScheduler() = default;

void SweepScheduler::plan(std::size_t i, const imaging::Image& frame, const Detector& detector,
                          const geometry::PinholeCamera* camera) {
  EECS_EXPECTS(i < slots_.size());
  Slot& slot = slots_[i];
  EECS_EXPECTS(slot.pre == nullptr || &slot.pre->frame() == &frame);
  if (slot.pre == nullptr) {
    slot.pre = std::make_unique<FramePrecompute>(frame);
    if (gating_ && camera != nullptr) {
      slot.gate = std::make_unique<SweepGate>(*camera, options_, frame.width(), frame.height());
      slot.pre->set_gate(slot.gate.get());
    }
  }
  const int band = std::max(1, options_.band_rows);
  for (const Rung& rung : detector.rungs(frame.width(), frame.height())) {
    // Tile accounting: every (scale, row band) of this slot enters the
    // work-list; the gate drops the bands outside the feasible interval.
    const auto bands = static_cast<std::uint64_t>((rung.height - kWindowHeight) / band) + 1;
    std::uint64_t kept = bands;
    if (slot.gate != nullptr) {
      const RowInterval rows = slot.gate->top_rows(rung.width, rung.height);
      kept = rows.empty() ? 0
                          : static_cast<std::uint64_t>(rows.hi / band - rows.lo / band) + 1;
    }
    tiles_planned_ += bands;
    tiles_pruned_ += bands - std::min(kept, bands);
  }
}

FramePrecompute& SweepScheduler::at(std::size_t i) {
  EECS_EXPECTS(planned(i));
  return *slots_[i].pre;
}

}  // namespace eecs::detect
