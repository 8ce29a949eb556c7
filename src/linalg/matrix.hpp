// Dense row-major double matrix with value semantics (Core Guidelines C.10,
// C.11). Sized for the workloads in this repository: PCA bases and GFK
// kernels of a few hundred rows/columns.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "common/contracts.hpp"

namespace eecs::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(int rows, int cols);

  /// Build from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(int n);
  /// Single-column matrix holding v.
  [[nodiscard]] static Matrix column(std::span<const double> v);
  /// Matrix whose rows are the given equally-sized vectors.
  [[nodiscard]] static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] double& operator()(int r, int c) {
    EECS_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double operator()(int r, int c) const {
    EECS_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                 static_cast<std::size_t>(c)];
  }

  [[nodiscard]] std::span<double> row(int r);
  [[nodiscard]] std::span<const double> row(int r) const;

  [[nodiscard]] std::vector<double> col(int c) const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  [[nodiscard]] Matrix transposed() const;

  /// Columns [c0, c1) as a new matrix.
  [[nodiscard]] Matrix slice_cols(int c0, int c1) const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  [[nodiscard]] std::span<const double> data() const { return data_; }
  [[nodiscard]] std::span<double> data() { return data_; }

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator+(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator-(Matrix lhs, const Matrix& rhs);
[[nodiscard]] Matrix operator*(Matrix lhs, double s);
[[nodiscard]] Matrix operator*(double s, Matrix rhs);
[[nodiscard]] Matrix operator*(const Matrix& a, const Matrix& b);

/// a^T * b without materializing the transpose.
[[nodiscard]] Matrix transpose_times(const Matrix& a, const Matrix& b);

/// Matrix-vector product.
[[nodiscard]] std::vector<double> operator*(const Matrix& a, std::span<const double> x);

/// Dot product. Requires equal sizes.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
[[nodiscard]] double norm(std::span<const double> v);

/// Max |a_ij - b_ij|; matrices must have equal shape.
[[nodiscard]] double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace eecs::linalg
