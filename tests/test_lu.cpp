#include "linalg/lu.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace {

using rlb::linalg::Lu;
using rlb::linalg::Matrix;
using rlb::linalg::Vector;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// A uniform draw in [-1, 1) that is never zero.
double nonzero(rlb::sim::Rng& rng) {
  const double v = rng.next_double() * 2.0 - 1.0;
  return v == 0.0 ? 0.5 : v;
}

/// Non-zero diagonal of mixed sign and size, so partial pivoting swaps
/// rows; off-diagonal entries present with probability `density`.
Matrix random_sparse(std::size_t n, double density, rlb::sim::Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i == j || rng.next_double() < density) a(i, j) = nonzero(rng);
  return a;
}

/// Lower bandwidth p, upper bandwidth q, plus a dense first row: the shape
/// of the QBD boundary system with its normalization equation.
Matrix banded_dense_first_row(std::size_t n, std::size_t p, std::size_t q,
                              rlb::sim::Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i == 0 || (j + p >= i && j <= i + q)) a(i, j) = nonzero(rng);
  return a;
}

/// The matrices the kernels must handle: random sparse at 5-20% density,
/// dense, banded with a dense first row, and lower bandwidths 0 (upper
/// triangular) and n - 1 (a non-zero bottom-left corner).
std::vector<std::pair<std::string, Matrix>> kernel_cases() {
  rlb::sim::Rng rng(2024);
  std::vector<std::pair<std::string, Matrix>> cases;
  for (const double density : {0.05, 0.1, 0.2})
    cases.emplace_back("sparse " + std::to_string(density),
                       random_sparse(60, density, rng));
  cases.emplace_back("dense", random_sparse(40, 1.0, rng));
  cases.emplace_back("banded", banded_dense_first_row(80, 4, 6, rng));
  Matrix upper = random_sparse(30, 0.3, rng);
  for (std::size_t i = 0; i < 30; ++i)
    for (std::size_t j = 0; j < i; ++j) upper(i, j) = 0.0;
  cases.emplace_back("bandwidth 0", upper);
  Matrix corner = banded_dense_first_row(30, 1, 1, rng);
  corner(29, 0) = 0.75;
  cases.emplace_back("bandwidth n-1", corner);
  return cases;
}

/// Right-hand sides with non-zero entries apart from some zero rows and
/// one zero column.
Matrix random_rhs(std::size_t n, std::size_t w, rlb::sim::Rng& rng) {
  Matrix b(n, w);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < w; ++c)
      if (i % 7 != 3 && c != 1) b(i, c) = nonzero(rng);
  return b;
}

/// The dense factorization and solve the kernels replaced: full pivot
/// search and multiplier loop to row n, dot-product substitution over the
/// full triangles.
class ReferenceLu {
 public:
  explicit ReferenceLu(Matrix a) : lu_(std::move(a)), perm_(lu_.rows()) {
    const std::size_t n = lu_.rows();
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t piv = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i)
        if (std::abs(lu_(i, k)) > best) {
          best = std::abs(lu_(i, k));
          piv = i;
        }
      if (best < 1e-300) throw std::runtime_error("singular");
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
      std::swap(perm_[k], perm_[piv]);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double f = lu_(i, k) / lu_(k, k);
        lu_(i, k) = f;
        if (f == 0.0) continue;
        for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= f * lu_(k, j);
      }
    }
  }

  [[nodiscard]] Vector solve(const Vector& b) const {
    const std::size_t n = lu_.rows();
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
    for (std::size_t i = n; i-- > 0;) {
      for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu_(i, j) * x[j];
      x[i] /= lu_(i, i);
    }
    return x;
  }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

TEST(Lu, Solves2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  const Vector x = Lu(a).solve(Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 0;
  const Vector x = Lu(a).solve(Vector{2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(Lu lu(a), std::runtime_error);
}

TEST(Lu, RandomRoundTrip) {
  rlb::sim::Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 20 + trial * 7;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next_double() - 0.5;
      a(i, i) += n;  // diagonally dominant -> well conditioned
    }
    Vector x_true(n);
    for (auto& v : x_true) v = rng.next_double() * 2.0 - 1.0;
    const Vector b = rlb::linalg::mat_vec(a, x_true);
    const Vector x = Lu(a).solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Lu, InverseTimesSelfIsIdentity) {
  rlb::sim::Rng rng(7);
  const std::size_t n = 30;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next_double() - 0.5;
    a(i, i) += 5.0;
  }
  const Matrix inv = Lu(a).solve(Matrix::identity(n));
  const Matrix prod = a * inv;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Lu, MatrixRhsSolve) {
  Matrix a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 0;
  a(1, 0) = 0;
  a(1, 1) = 2;
  Matrix b(2, 2);
  b(0, 0) = 6;
  b(0, 1) = 3;
  b(1, 0) = 4;
  b(1, 1) = 2;
  const Matrix x = Lu(a).solve(b);
  EXPECT_NEAR(x(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 1.0, 1e-12);
}

TEST(Lu, MatrixSolveEqualsColumnSolvesBitwise) {
  rlb::sim::Rng rng(11);
  for (const auto& [name, a] : kernel_cases()) {
    const Lu lu(a);
    const Matrix b = random_rhs(a.rows(), 9, rng);
    const Matrix x = lu.solve(b);
    ASSERT_EQ(x.rows(), b.rows());
    ASSERT_EQ(x.cols(), b.cols());
    for (std::size_t c = 0; c < b.cols(); ++c) {
      Vector col(b.rows());
      for (std::size_t i = 0; i < b.rows(); ++i) col[i] = b(i, c);
      const Vector xc = lu.solve(col);
      for (std::size_t i = 0; i < b.rows(); ++i)
        ASSERT_TRUE(same_bits(x(i, c), xc[i]))
            << name << " (" << i << ", " << c << "): " << x(i, c)
            << " vs " << xc[i];
    }
  }
}

TEST(Lu, BandedFactorMatchesUnbandedReferenceBitwise) {
  rlb::sim::Rng rng(12);
  for (const auto& [name, a] : kernel_cases()) {
    const Lu lu(a);
    const ReferenceLu ref(a);
    for (int trial = 0; trial < 3; ++trial) {
      Vector b(a.rows());
      for (double& v : b) v = nonzero(rng);
      const Vector x = lu.solve(b);
      const Vector x_ref = ref.solve(b);
      for (std::size_t i = 0; i < b.size(); ++i)
        ASSERT_TRUE(same_bits(x[i], x_ref[i]))
            << name << " entry " << i << ": " << x[i] << " vs " << x_ref[i];
    }
  }
}

TEST(Lu, InverseOfBandedMatchesReferenceBitwise) {
  rlb::sim::Rng rng(13);
  const Matrix a = banded_dense_first_row(25, 3, 2, rng);
  const Matrix inv = Lu(a).solve(Matrix::identity(a.rows()));
  const ReferenceLu ref(a);
  for (std::size_t c = 0; c < a.rows(); ++c) {
    Vector e(a.rows(), 0.0);
    e[c] = 1.0;
    const Vector col = ref.solve(e);
    for (std::size_t i = 0; i < a.rows(); ++i)
      EXPECT_EQ(inv(i, c), col[i]) << "(" << i << ", " << c << ")";
  }
}

TEST(Lu, SingularThrowsWhenZeroPivotColumnIsInsideBand) {
  rlb::sim::Rng rng(14);
  // Column 5 of a bandwidth-2 matrix is zero: the pivot search at k = 5
  // finds only zeros in rows 5..7.
  Matrix zero_column = banded_dense_first_row(12, 2, 2, rng);
  for (std::size_t i = 0; i < 12; ++i) zero_column(i, 5) = 0.0;
  EXPECT_THROW(Lu lu(zero_column), std::runtime_error);
  EXPECT_THROW(ReferenceLu ref(zero_column), std::runtime_error);

  // Rows 6 and 7 are equal and lie inside the band, so elimination leaves
  // a zero pivot in column 7.
  Matrix twin_rows(10, 10);
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = i; j < 10 && j <= i + 1; ++j)
      twin_rows(i, j) = 1.0 + static_cast<double>(i + j);
  for (std::size_t j = 0; j < 10; ++j) twin_rows(7, j) = twin_rows(6, j);
  EXPECT_THROW(Lu lu(twin_rows), std::runtime_error);
  EXPECT_THROW(ReferenceLu ref(twin_rows), std::runtime_error);
}

}  // namespace
