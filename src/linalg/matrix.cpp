#include "linalg/matrix.hpp"

#include <cmath>

#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace eecs::linalg {

namespace {

/// Products split over output rows: each task owns a disjoint row range and
/// accumulates its entries in the same k order as the serial loop, so results
/// are bit-identical at any thread count. Small products stay serial.
constexpr std::size_t kRowGrain = 16;

/// y[j] += a * x[j]: the matmul microkernel. Every output element is its own
/// accumulation chain (ordered by the caller's k loop), so the lanes run
/// across j and any blocking is bit-identical. No FMA — the pack API emits a
/// separate multiply and add, same rounding as the scalar expression.
template <class D2>
void axpy_row(double a, const double* x, double* y, std::size_t n) {
  const D2 av = D2::broadcast(a);
  std::size_t j = 0;
  for (; j + D2::kLanes <= n; j += D2::kLanes) {
    (D2::load(y + j) + av * D2::load(x + j)).store(y + j);
  }
  for (; j < n; ++j) y[j] += a * x[j];
}

}  // namespace

Matrix::Matrix(int rows, int cols)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0) {
  EECS_EXPECTS(rows >= 0 && cols >= 0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<int>(rows.size());
  cols_ = rows_ > 0 ? static_cast<int>(rows.begin()->size()) : 0;
  data_.reserve(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_));
  for (const auto& r : rows) {
    EECS_EXPECTS(static_cast<int>(r.size()) == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::column(std::span<const double> v) {
  Matrix m(static_cast<int>(v.size()), 1);
  for (int i = 0; i < m.rows(); ++i) m(i, 0) = v[static_cast<std::size_t>(i)];
  return m;
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return {};
  Matrix m(static_cast<int>(rows.size()), static_cast<int>(rows.front().size()));
  for (int r = 0; r < m.rows(); ++r) {
    EECS_EXPECTS(static_cast<int>(rows[static_cast<std::size_t>(r)].size()) == m.cols());
    for (int c = 0; c < m.cols(); ++c) m(r, c) = rows[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
  }
  return m;
}

std::span<double> Matrix::row(int r) {
  EECS_EXPECTS(r >= 0 && r < rows_);
  return {data_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_),
          static_cast<std::size_t>(cols_)};
}

std::span<const double> Matrix::row(int r) const {
  EECS_EXPECTS(r >= 0 && r < rows_);
  return {data_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_),
          static_cast<std::size_t>(cols_)};
}

std::vector<double> Matrix::col(int c) const {
  EECS_EXPECTS(c >= 0 && c < cols_);
  std::vector<double> out(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) out[static_cast<std::size_t>(r)] = (*this)(r, c);
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  EECS_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  EECS_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::slice_cols(int c0, int c1) const {
  EECS_EXPECTS(0 <= c0 && c0 <= c1 && c1 <= cols_);
  Matrix out(rows_, c1 - c0);
  for (int r = 0; r < rows_; ++r) {
    for (int c = c0; c < c1; ++c) out(r, c - c0) = (*this)(r, c);
  }
  return out;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  EECS_EXPECTS(a.cols() == b.rows());
  Matrix out(a.rows(), b.cols());
  const std::size_t n = static_cast<std::size_t>(b.cols());
  common::parallel_for(static_cast<std::size_t>(a.rows()), kRowGrain,
                       [&](std::size_t i0, std::size_t i1) {
                         simd::dispatch([&](auto isa) {
                           using D2 = typename decltype(isa)::F64;
                           for (int i = static_cast<int>(i0); i < static_cast<int>(i1); ++i) {
                             double* orow = out.row(i).data();
                             for (int k = 0; k < a.cols(); ++k) {
                               const double aik = a(i, k);
                               if (aik == 0.0) continue;
                               axpy_row<D2>(aik, b.row(k).data(), orow, n);
                             }
                           }
                         });
                       });
  return out;
}

Matrix transpose_times(const Matrix& a, const Matrix& b) {
  EECS_EXPECTS(a.rows() == b.rows());
  Matrix out(a.cols(), b.cols());
  // Output-row-major order (i outer, k inner) instead of the cache-friendlier
  // k-outer walk, so each task owns its rows; per-entry accumulation still
  // runs in increasing k, matching the serial result bit for bit.
  const std::size_t n = static_cast<std::size_t>(b.cols());
  common::parallel_for(static_cast<std::size_t>(a.cols()), kRowGrain,
                       [&](std::size_t i0, std::size_t i1) {
                         simd::dispatch([&](auto isa) {
                           using D2 = typename decltype(isa)::F64;
                           for (int i = static_cast<int>(i0); i < static_cast<int>(i1); ++i) {
                             double* orow = out.row(i).data();
                             for (int k = 0; k < a.rows(); ++k) {
                               const double aki = a(k, i);
                               if (aki == 0.0) continue;
                               axpy_row<D2>(aki, b.row(k).data(), orow, n);
                             }
                           }
                         });
                       });
  return out;
}

std::vector<double> operator*(const Matrix& a, std::span<const double> x) {
  EECS_EXPECTS(a.cols() == static_cast<int>(x.size()));
  std::vector<double> out(static_cast<std::size_t>(a.rows()), 0.0);
  common::parallel_for(static_cast<std::size_t>(a.rows()), 2 * kRowGrain,
                       [&](std::size_t i0, std::size_t i1) {
                         for (std::size_t i = i0; i < i1; ++i) {
                           out[i] = dot(a.row(static_cast<int>(i)), x);
                         }
                       });
  return out;
}

double dot(std::span<const double> a, std::span<const double> b) {
  EECS_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(std::span<const double> v) { return std::sqrt(dot(v, v)); }

double max_abs_diff(const Matrix& a, const Matrix& b) {
  EECS_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) m = std::max(m, std::abs(a(r, c) - b(r, c)));
  }
  return m;
}

}  // namespace eecs::linalg
