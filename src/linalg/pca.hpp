// Principal component analysis. Used (a) to build the per-video subspaces
// projected onto the Grassmann manifold (paper §III), and (b) to reduce the
// mean-color re-identification features (paper §IV-C).
#pragma once

#include "linalg/matrix.hpp"

namespace eecs::linalg {

class Pca {
 public:
  Pca() = default;

  /// Fit on samples given as rows of `data` (n_samples x dim), keeping the
  /// top `components` principal directions. Requires 1 <= components <= dim.
  Pca(const Matrix& data, int components);

  /// dim x components orthonormal basis (columns are principal directions,
  /// descending variance). This is x_i / z_j in the paper's Table I.
  [[nodiscard]] const Matrix& basis() const { return basis_; }

  /// Mean of the training samples.
  [[nodiscard]] std::span<const double> mean() const { return mean_; }

  [[nodiscard]] int input_dim() const { return basis_.rows(); }
  [[nodiscard]] int components() const { return basis_.cols(); }

  /// Project a sample into the component space (centers by the fitted mean).
  [[nodiscard]] std::vector<double> transform(std::span<const double> x) const;

 private:
  Matrix basis_;
  std::vector<double> mean_;
};

/// Column mean of row-sample matrix.
[[nodiscard]] std::vector<double> column_mean(const Matrix& data);

/// Sample covariance (dim x dim) of row-sample matrix; uses n-1 denominator.
[[nodiscard]] Matrix covariance(const Matrix& data);

/// Mahalanobis distance sqrt((a-b)^T inv_cov (a-b)) given a precomputed
/// inverse covariance.
[[nodiscard]] double mahalanobis(std::span<const double> a, std::span<const double> b,
                                 const Matrix& inv_cov);

}  // namespace eecs::linalg
