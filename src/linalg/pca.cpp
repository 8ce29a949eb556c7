#include "linalg/pca.hpp"

#include <cmath>

#include "linalg/decomp.hpp"

namespace eecs::linalg {

Pca::Pca(const Matrix& data, int components) {
  EECS_EXPECTS(data.rows() >= 2);
  EECS_EXPECTS(components >= 1 && components <= data.cols());
  const int n = data.rows();
  const int dim = data.cols();

  mean_ = column_mean(data);
  Matrix centered(n, dim);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < dim; ++c) centered(r, c) = data(r, c) - mean_[static_cast<std::size_t>(c)];
  }

  // SVD of the centered data: right singular vectors are the principal
  // directions, in descending singular value (variance) order. Avoids forming
  // the (possibly large) covariance matrix when n < dim.
  basis_ = svd_decompose(centered).v.slice_cols(0, components);
}

std::vector<double> Pca::transform(std::span<const double> x) const {
  EECS_EXPECTS(static_cast<int>(x.size()) == input_dim());
  std::vector<double> centered(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) centered[i] = x[i] - mean_[i];
  std::vector<double> out(static_cast<std::size_t>(components()), 0.0);
  for (int c = 0; c < components(); ++c) {
    double s = 0.0;
    for (int r = 0; r < input_dim(); ++r) s += basis_(r, c) * centered[static_cast<std::size_t>(r)];
    out[static_cast<std::size_t>(c)] = s;
  }
  return out;
}

std::vector<double> column_mean(const Matrix& data) {
  EECS_EXPECTS(data.rows() >= 1);
  std::vector<double> mean(static_cast<std::size_t>(data.cols()), 0.0);
  for (int r = 0; r < data.rows(); ++r) {
    for (int c = 0; c < data.cols(); ++c) mean[static_cast<std::size_t>(c)] += data(r, c);
  }
  for (auto& m : mean) m /= static_cast<double>(data.rows());
  return mean;
}

Matrix covariance(const Matrix& data) {
  EECS_EXPECTS(data.rows() >= 2);
  const std::vector<double> mean = column_mean(data);
  const int dim = data.cols();
  Matrix cov(dim, dim);
  for (int r = 0; r < data.rows(); ++r) {
    for (int i = 0; i < dim; ++i) {
      const double di = data(r, i) - mean[static_cast<std::size_t>(i)];
      for (int j = i; j < dim; ++j) {
        cov(i, j) += di * (data(r, j) - mean[static_cast<std::size_t>(j)]);
      }
    }
  }
  const double denom = static_cast<double>(data.rows() - 1);
  for (int i = 0; i < dim; ++i) {
    for (int j = i; j < dim; ++j) {
      cov(i, j) /= denom;
      cov(j, i) = cov(i, j);
    }
  }
  return cov;
}

double mahalanobis(std::span<const double> a, std::span<const double> b, const Matrix& inv_cov) {
  EECS_EXPECTS(a.size() == b.size());
  EECS_EXPECTS(inv_cov.rows() == static_cast<int>(a.size()));
  std::vector<double> d(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) d[i] = a[i] - b[i];
  const std::vector<double> md = inv_cov * std::span<const double>(d);
  double s = dot(d, md);
  return std::sqrt(std::max(0.0, s));
}

}  // namespace eecs::linalg
