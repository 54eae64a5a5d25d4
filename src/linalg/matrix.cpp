#include "linalg/matrix.h"

#include <cmath>
#include <iomanip>
#include <ostream>

#include "util/require.h"

namespace rlb::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  RLB_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  RLB_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

double Matrix::norm_inf() const {
  double best = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) s += std::abs((*this)(i, j));
    best = std::max(best, s);
  }
  return best;
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::abs(v));
  return best;
}

Vector Matrix::row_sums() const {
  Vector out(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out[i] += (*this)(i, j);
  return out;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix lhs, double s) { return lhs *= s; }
Matrix operator*(double s, Matrix rhs) { return rhs *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  RLB_REQUIRE(a.cols() == b.rows(), "matmul shape mismatch");
  // Row-compressed index of b's non-zeros: row k's are entries
  // start[k]..start[k+1] of (col, val).
  std::vector<std::size_t> start(b.rows() + 1, 0);
  std::vector<std::size_t> col;
  Vector val;
  for (std::size_t k = 0; k < b.rows(); ++k) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      if (b(k, j) == 0.0) continue;
      col.push_back(j);
      val.push_back(b(k, j));
    }
    start[k + 1] = col.size();
  }
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t e = start[k]; e < start[k + 1]; ++e)
        c(i, col[e]) += aik * val[e];
    }
  }
  return c;
}

Vector vec_mat(const Vector& x, const Matrix& a) {
  RLB_REQUIRE(x.size() == a.rows(), "vec_mat shape mismatch");
  Vector out(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) out[j] += xi * a(i, j);
  }
  return out;
}

Vector mat_vec(const Matrix& a, const Vector& x) {
  RLB_REQUIRE(x.size() == a.cols(), "mat_vec shape mismatch");
  Vector out(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += a(i, j) * x[j];
    out[i] = s;
  }
  return out;
}

double dot(const Vector& a, const Vector& b) {
  RLB_REQUIRE(a.size() == b.size(), "dot shape mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double sum(const Vector& a) {
  double s = 0.0;
  for (double v : a) s += v;
  return s;
}

double norm_inf(const Vector& a) {
  double best = 0.0;
  for (double v : a) best = std::max(best, std::abs(v));
  return best;
}

Vector& axpy(Vector& y, double alpha, const Vector& x) {
  RLB_REQUIRE(y.size() == x.size(), "axpy shape mismatch");
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
  return y;
}

Vector scaled(Vector v, double s) {
  for (double& x : v) x *= s;
  return v;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j)
      os << std::setw(12) << std::setprecision(5) << m(i, j)
         << (j + 1 == m.cols() ? "" : " ");
    os << '\n';
  }
  return os;
}

}  // namespace rlb::linalg
