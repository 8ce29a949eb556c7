// Precomputed block-normalized HOG features over a whole image, with an
// allocation-free sliding-window scorer. Shared by the HOG and LSVM
// detectors: computing block normalization once per scale instead of per
// window is what makes dense scanning tractable.
#pragma once

#include <vector>

#include "detect/linear_svm.hpp"
#include "energy/cost.hpp"
#include "features/hog.hpp"

namespace eecs::detect {

/// Dense per-anchor window scores of one linear model over a whole BlockGrid
/// scale: at(x, y) equals window_score(model, x, y, wcx, wcy) bit-exactly.
struct ScoreMap {
  int width = 0;   ///< Valid anchors along x: blocks_x - window_blocks_x + 1.
  int height = 0;  ///< Anchor rows materialized (the requested range).
  int y0 = 0;      ///< Absolute anchor row of local row 0 (context-gated maps).
  std::vector<float> scores;  ///< Row-major by local anchor row.

  [[nodiscard]] bool empty() const { return width <= 0 || height <= 0; }
  /// Access by LOCAL row (0 .. height-1); absolute anchor row is y + y0.
  [[nodiscard]] float at(int x, int y) const {
    return scores[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
                  static_cast<std::size_t>(x)];
  }
};

class BlockGrid {
 public:
  /// An empty grid (no blocks): a slot to assign a computed grid into.
  BlockGrid() = default;

  /// Compute all 2x2-cell L2-hys-normalized blocks of the image's HOG grid.
  explicit BlockGrid(const imaging::Image& img, const features::HogParams& params = {},
                     energy::CostCounter* cost = nullptr);

  [[nodiscard]] int blocks_x() const { return blocks_x_; }
  [[nodiscard]] int blocks_y() const { return blocks_y_; }
  /// Floats per block (= block_size^2 * bins).
  [[nodiscard]] int block_dim() const { return block_dim_; }
  [[nodiscard]] const features::HogParams& params() const { return params_; }

  [[nodiscard]] std::span<const float> block(int bx, int by) const;

  /// Score of a window whose top-left cell is (cell_x0, cell_y0), spanning
  /// window_cells_x x window_cells_y cells, against a linear model laid out
  /// like features::window_descriptor. Charges classifier MACs to `cost`.
  [[nodiscard]] float window_score(const LinearModel& model, int cell_x0, int cell_y0,
                                   int window_cells_x, int window_cells_y,
                                   energy::CostCounter* cost = nullptr) const;

  /// Score every valid window anchor of the model against the grid in one
  /// pass. Each weight block is streamed across the grid once, so the work is
  /// shared between overlapping windows; every anchor's accumulation order
  /// matches window_score exactly, making at(x, y) bit-identical to it.
  /// Charges nothing: callers charge per consumed window, preserving the
  /// paper's standalone per-algorithm op model.
  ///
  /// `anchor_row_begin`/`anchor_row_end` (inclusive; -1 = last valid row)
  /// restrict the materialized anchor rows to a context-gated band: only
  /// feature rows the retained anchors read are streamed, and each retained
  /// anchor's accumulation chain is untouched, so its score stays
  /// bit-identical to the full map's. The result's y0 records the offset.
  [[nodiscard]] ScoreMap score_map(const LinearModel& model, int window_cells_x,
                                   int window_cells_y, int anchor_row_begin = 0,
                                   int anchor_row_end = -1) const;

  /// Materialize the window descriptor (identical layout/values to
  /// features::window_descriptor); used in training and tests.
  [[nodiscard]] std::vector<float> window_descriptor(int cell_x0, int cell_y0, int window_cells_x,
                                                     int window_cells_y) const;

 private:
  features::HogParams params_;
  int blocks_x_ = 0;
  int blocks_y_ = 0;
  int block_dim_ = 0;
  std::vector<float> data_;
  /// Feature-major mirror of data_: element i of block (bx, by) lives at
  /// data_t_[(by * block_dim_ + i) * blocks_x_ + bx]. score_map streams a row
  /// of anchors with contiguous loads from this layout instead of stride-
  /// block_dim_ gathers; the values are the same floats, so scores are
  /// unchanged bit for bit.
  std::vector<float> data_t_;
};

}  // namespace eecs::detect
