// LU decomposition with partial pivoting, plus solve/inverse built on it.
#pragma once

#include "linalg/matrix.h"

namespace rlb::linalg {

/// Factorization P·A = L·U stored compactly. Throws std::runtime_error if A
/// is numerically singular.
///
/// The kernels skip exact zeros but give every entry the dense loops'
/// remaining operations in the same order. A skipped term is an exact zero,
/// so every non-zero result is bit-identical to the dense loops' (only the
/// sign of an exactly-zero entry could differ). The factorization measures
/// A's lower bandwidth p once and stops the pivot search and the
/// elimination of column k at row k + p: rows below it still hold their
/// original zeros in column k.
class Lu {
 public:
  explicit Lu(Matrix a);

  [[nodiscard]] std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b.
  [[nodiscard]] Vector solve(Vector b) const;

  /// Solve A X = B over the whole right-hand-side block at once: row-
  /// oriented substitution X(i,:) -= L(i,j)·X(j,:) for ascending j, then
  /// the same over U for descending i, skipping zero factors of L and U.
  /// Each column equals solve() of that column, bit for bit.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// A^{-1} (via n solves).
  [[nodiscard]] Matrix inverse() const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// One-shot helpers.
Vector solve(const Matrix& a, Vector b);
Matrix solve(const Matrix& a, const Matrix& b);
Matrix inverse(const Matrix& a);

/// Solve x^T A = b^T (i.e., A^T x = b) without forming the transpose at the
/// call site.
Vector solve_transposed(const Matrix& a, Vector b);

}  // namespace rlb::linalg
