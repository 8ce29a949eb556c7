// Energy models: CPU (counter-based), radio (per-byte + per-message) and the
// per-frame budget arithmetic of §VI ("Computing energy costs and budget").
// Camera batteries live in the run's energy book (obs/ledger.hpp).
#pragma once

#include <cstddef>

#include "common/contracts.hpp"
#include "energy/cost.hpp"

namespace eecs::energy {

/// Converts operation counts to Joules. The default constants are calibrated
/// so the four detectors land near the paper's measured J/frame on dataset #1
/// (Table II); every other ratio (resolution scaling, algorithm ordering)
/// follows from the actual counted work.
struct CpuEnergyModel {
  double joules_per_pixel_op = 6.8e-8;
  double joules_per_feature_op = 6.8e-8;
  double joules_per_classifier_op = 6.8e-8;
  /// Smartphone SoC idle/overhead charge per processed frame.
  double joules_fixed_per_frame = 0.05;

  [[nodiscard]] double joules(const CostCounter& c) const {
    return joules_fixed_per_frame + joules_per_pixel_op * static_cast<double>(c.pixel_ops) +
           joules_per_feature_op * static_cast<double>(c.feature_ops) +
           joules_per_classifier_op * static_cast<double>(c.classifier_ops);
  }

  /// Effective smartphone throughput used to report "processing time per
  /// frame" next to energy (Tables II-IV). Ops per second.
  double ops_per_second = 1.0e7;

  [[nodiscard]] double seconds(const CostCounter& c) const {
    return static_cast<double>(c.compute_ops()) / ops_per_second;
  }
};

/// WiFi radio model: energy to transmit a payload from a camera node to the
/// controller. Per-byte cost plus per-message (wakeup/header) overhead.
struct RadioModel {
  double joules_per_byte = 2.0e-7;
  double joules_per_message = 0.002;
  double bytes_per_second = 2.5e6;  ///< ~20 Mbit/s effective WiFi goodput.

  [[nodiscard]] double tx_joules(std::size_t bytes) const {
    return joules_per_message + joules_per_byte * static_cast<double>(bytes);
  }

  [[nodiscard]] double tx_seconds(std::size_t bytes) const {
    return static_cast<double>(bytes) / bytes_per_second;
  }
};

/// §VI budget arithmetic: an expected operation time and frame-processing
/// period determine how many frames the battery must last for; the residual
/// charge divided by that count is the per-frame energy budget B_j.
struct BudgetPlan {
  double operation_hours = 6.0;
  double seconds_per_frame = 2.0;  ///< One processed frame every N seconds.

  [[nodiscard]] long frames_remaining() const {
    return static_cast<long>(operation_hours * 3600.0 / seconds_per_frame);
  }

  /// Per-frame budget given the node's residual energy.
  [[nodiscard]] double per_frame_budget(double residual_joules) const {
    const long frames = frames_remaining();
    EECS_EXPECTS(frames > 0);
    return residual_joules / static_cast<double>(frames);
  }
};

}  // namespace eecs::energy
