#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/require.h"

namespace rlb::linalg {

namespace {

/// Largest i - j over the non-zero entries of `a` below its diagonal.
std::size_t lower_bandwidth(const Matrix& a) {
  std::size_t p = 0;
  for (std::size_t i = 1; i < a.rows(); ++i)
    for (std::size_t j = 0; j + p < i; ++j)
      if (a(i, j) != 0.0) {
        p = i - j;
        break;
      }
  return p;
}

/// Overwrite `x`, the row-permuted right-hand sides, with the solution of
/// L·U·X = X. Row-oriented: X(i,:) -= L(i,j)·X(j,:) for ascending j, then
/// the same over U for descending i, skipping zero factors.
void substitute(const Matrix& lu, Matrix& x) {
  const std::size_t n = lu.rows();
  const std::size_t w = x.cols();
  if (n == 0 || w == 0) return;
  for (std::size_t i = 1; i < n; ++i) {
    double* xi = &x(i, 0);
    for (std::size_t j = 0; j < i; ++j) {
      const double f = lu(i, j);
      if (f == 0.0) continue;
      const double* xj = &x(j, 0);
      for (std::size_t c = 0; c < w; ++c) xi[c] -= f * xj[c];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    double* xi = &x(i, 0);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double f = lu(i, j);
      if (f == 0.0) continue;
      const double* xj = &x(j, 0);
      for (std::size_t c = 0; c < w; ++c) xi[c] -= f * xj[c];
    }
    const double pivot = lu(i, i);
    for (std::size_t c = 0; c < w; ++c) xi[c] /= pivot;
  }
}

}  // namespace

Lu::Lu(Matrix a) : lu_(std::move(a)), perm_(lu_.rows()) {
  RLB_REQUIRE(lu_.rows() == lu_.cols(), "LU needs a square matrix");
  const std::size_t n = lu_.rows();
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  // With lower bandwidth p, every multiplier of column k lies in rows
  // k+1..k+p: a row below k+p has been neither swapped nor updated yet, so
  // its entry in column k is still an original zero.
  const std::size_t p = lower_bandwidth(lu_);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t last = std::min(n - 1, k + p);
    // Partial pivoting: bring the largest |entry| in column k to the pivot.
    std::size_t piv = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i <= last; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best < 1e-300)
      throw std::runtime_error("Lu: matrix is numerically singular");
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
      std::swap(perm_[k], perm_[piv]);
    }
    const double* rk = &lu_(k, 0);
    for (std::size_t i = k + 1; i <= last; ++i) {
      double* ri = &lu_(i, 0);
      const double f = ri[k] / rk[k];
      ri[k] = f;
      if (f == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) ri[j] -= f * rk[j];
    }
  }
}

Vector Lu::solve(Vector b) const {
  const std::size_t n = size();
  RLB_REQUIRE(b.size() == n, "Lu::solve shape mismatch");
  Matrix x(n, 1);
  for (std::size_t i = 0; i < n; ++i) x(i, 0) = b[perm_[i]];
  substitute(lu_, x);
  return x.data();
}

Matrix Lu::solve(const Matrix& b) const {
  RLB_REQUIRE(b.rows() == size(), "Lu::solve shape mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t c = 0; c < b.cols(); ++c) x(i, c) = b(perm_[i], c);
  substitute(lu_, x);
  return x;
}

}  // namespace rlb::linalg
