// Dense row-major matrix of doubles with the operations the QBD engine
// needs. Deliberately dependency-free: the matrices in this project are a
// few hundred to a few thousand rows, stored densely. The QBD blocks are
// mostly zeros, so the product and the LU kernels (lu.h) skip exact zeros.
// Each entry still receives the dense loops' other operations in the same
// order, so non-zero results are bit-identical to a dense implementation's.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace rlb::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  [[nodiscard]] Matrix transpose() const;

  /// Max row sum of absolute values (infinity norm).
  [[nodiscard]] double norm_inf() const;

  /// Largest absolute entry.
  [[nodiscard]] double max_abs() const;

  /// Row sums as a vector.
  [[nodiscard]] Vector row_sums() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix lhs, double s);
Matrix operator*(double s, Matrix rhs);

/// Matrix product that skips the zero entries of both operands, using a
/// row-compressed index of b built once per call. Each c(i,j) sums its
/// non-zero terms a(i,k)·b(k,j) in ascending k, as the dense ikj loop does;
/// a skipped term is an exact zero and would not change the sum.
Matrix operator*(const Matrix& a, const Matrix& b);

/// Row-vector times matrix: returns x^T A as a vector.
Vector vec_mat(const Vector& x, const Matrix& a);

/// Matrix times column vector.
Vector mat_vec(const Matrix& a, const Vector& x);

// -- Vector helpers -----------------------------------------------------

double dot(const Vector& a, const Vector& b);
double sum(const Vector& a);
double norm_inf(const Vector& a);
Vector& axpy(Vector& y, double alpha, const Vector& x);  // y += alpha * x
Vector scaled(Vector v, double s);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace rlb::linalg
