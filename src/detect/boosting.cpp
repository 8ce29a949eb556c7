#include "detect/boosting.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"
#include "common/parallel.hpp"

namespace eecs::detect {

float BoostedModel::score(std::span<const float> x) const {
  double s = 0.0;
  for (const Stump& st : stumps) {
    const float v = x[static_cast<std::size_t>(st.feature)];
    const float h = (v > st.threshold) ? st.polarity : -st.polarity;
    s += static_cast<double>(st.alpha) * static_cast<double>(h);
  }
  return static_cast<float>(s);
}

namespace {

struct BestSplit {
  double error = 1.0;
  float threshold = 0.0f;
  float polarity = 1.0f;
};

/// The training set laid out feature-major for the stump sweep: per feature,
/// the ascending sample order and that feature's values in the same order,
/// so a sweep streams one contiguous column instead of one heap row per
/// sample. Built once, reused by every round.
struct SortedColumns {
  std::size_t n = 0;
  std::vector<int> order;     ///< [feature * n + rank] -> sample index.
  std::vector<float> values;  ///< [feature * n + rank] -> x[order][feature].

  SortedColumns(const std::vector<std::vector<float>>& x, int dim)
      : n(x.size()), order(static_cast<std::size_t>(dim) * n), values(order.size()) {
    const auto sort_features = [&](std::size_t begin, std::size_t end) {
      std::vector<float> column(n);
      for (std::size_t f = begin; f < end; ++f) {
        for (std::size_t i = 0; i < n; ++i) column[i] = x[i][f];
        int* ord = order.data() + f * n;
        std::iota(ord, ord + n, 0);
        std::sort(ord, ord + n, [&](int a, int b) {
          return column[static_cast<std::size_t>(a)] < column[static_cast<std::size_t>(b)];
        });
        float* vals = values.data() + f * n;
        for (std::size_t i = 0; i < n; ++i) vals[i] = column[static_cast<std::size_t>(ord[i])];
      }
    };
    common::parallel_for(static_cast<std::size_t>(dim), 1, sort_features);
  }
};

/// One round's sample weights split by class: pos[i] is w[i] for a positive
/// sample and +0.0 otherwise (neg[i] the converse), plus each class's total
/// summed in index order.
struct ClassWeights {
  std::vector<double> pos, neg;
  double total_pos = 0.0, total_neg = 0.0;

  void assign(const std::vector<double>& w, const std::vector<int>& y) {
    pos.resize(w.size());
    neg.resize(w.size());
    total_pos = total_neg = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      (y[i] == 1 ? total_pos : total_neg) += w[i];
      pos[i] = y[i] == 1 ? w[i] : 0.0;
      neg[i] = y[i] == 1 ? 0.0 : w[i];
    }
  }
};

/// Best threshold/polarity for one feature: a linear weighted-error sweep
/// over its sorted column.
BestSplit best_split_for_feature(const SortedColumns& columns, int feature,
                                 const ClassWeights& w) {
  const std::size_t n = columns.n;
  const int* order = columns.order.data() + static_cast<std::size_t>(feature) * n;
  const float* values = columns.values.data() + static_cast<std::size_t>(feature) * n;

  BestSplit best;
  // Sweep thresholds between consecutive distinct values. For "x > t ->
  // positive" the error at a split is (positives below) + (negatives above).
  // Each sample adds to both running sums; the other class's +0.0 leaves a
  // non-negative sum unchanged, so this equals adding to its own class only,
  // without a label branch.
  double pos_below = 0.0, neg_below = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t idx = static_cast<std::size_t>(order[i]);
    pos_below += w.pos[idx];
    neg_below += w.neg[idx];
    const float value = values[i];
    if (i + 1 < n && values[i + 1] == value) continue;
    const double err_pos_polarity = pos_below + (w.total_neg - neg_below);
    const double err_neg_polarity = neg_below + (w.total_pos - pos_below);
    if (err_pos_polarity < best.error) best = {err_pos_polarity, value, +1.0f};
    if (err_neg_polarity < best.error) best = {err_neg_polarity, value, -1.0f};
  }
  return best;
}

}  // namespace

BoostedModel train_adaboost(const std::vector<std::vector<float>>& x, const std::vector<int>& y,
                            Rng& rng, const BoostOptions& options) {
  EECS_EXPECTS(!x.empty());
  EECS_EXPECTS(x.size() == y.size());
  const int dim = static_cast<int>(x.front().size());
  EECS_EXPECTS(options.rounds >= 1 && options.features_per_round >= 1);

  const std::size_t n = x.size();
  const SortedColumns columns(x, dim);

  std::vector<double> w(n, 1.0 / static_cast<double>(n));
  BoostedModel model;
  ClassWeights class_weights;
  std::vector<BestSplit> splits;

  for (int round = 0; round < options.rounds; ++round) {
    const int k = std::min(options.features_per_round, dim);
    const std::vector<int> features = rng.sample_indices(dim, k);
    class_weights.assign(w, y);

    // Score every sampled feature into its own slot, then fold the slots in
    // sample order: the first strictly best feature wins, at any width.
    splits.assign(features.size(), BestSplit{});
    common::parallel_for(features.size(), 8, [&](std::size_t begin, std::size_t end) {
      for (std::size_t j = begin; j < end; ++j) {
        splits[j] = best_split_for_feature(columns, features[j], class_weights);
      }
    });
    BestSplit best;
    int best_feature = features.front();
    for (std::size_t j = 0; j < features.size(); ++j) {
      if (splits[j].error < best.error) {
        best = splits[j];
        best_feature = features[j];
      }
    }

    const double eps = std::clamp(best.error, 1e-10, 1.0 - 1e-10);
    if (eps >= 0.5) continue;  // No better than chance on this subsample.
    const double alpha = 0.5 * std::log((1.0 - eps) / eps);

    Stump stump{best_feature, best.threshold, best.polarity, static_cast<float>(alpha)};
    model.stumps.push_back(stump);

    // Reweight.
    double sum_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float v = x[i][static_cast<std::size_t>(stump.feature)];
      const float h = (v > stump.threshold) ? stump.polarity : -stump.polarity;
      w[i] *= std::exp(-alpha * static_cast<double>(y[i]) * static_cast<double>(h));
      sum_w += w[i];
    }
    for (auto& wi : w) wi /= sum_w;
  }
  return model;
}

}  // namespace eecs::detect
