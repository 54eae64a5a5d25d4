#include "linalg/matrix.h"

#include <cstring>
#include <initializer_list>
#include <utility>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace {

using rlb::linalg::Matrix;
using rlb::linalg::Vector;

Matrix make(std::size_t r, std::size_t c, std::initializer_list<double> v) {
  Matrix m(r, c);
  auto it = v.begin();
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = *it++;
  return m;
}

TEST(Matrix, IdentityAndFill) {
  const Matrix i = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
  const Matrix f(2, 2, 7.0);
  EXPECT_DOUBLE_EQ(f(1, 1), 7.0);
}

TEST(Matrix, AddSubtractScale) {
  const Matrix a = make(2, 2, {1, 2, 3, 4});
  const Matrix b = make(2, 2, {5, 6, 7, 8});
  const Matrix s = a + b;
  EXPECT_DOUBLE_EQ(s(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 12.0);
  const Matrix d = b - a;
  EXPECT_DOUBLE_EQ(d(0, 1), 4.0);
  const Matrix t = a * 2.0;
  EXPECT_DOUBLE_EQ(t(1, 0), 6.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(3, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Matrix, Multiply) {
  const Matrix a = make(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = make(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, MultiplyByIdentity) {
  const Matrix a = make(2, 2, {1.5, -2, 0.25, 4});
  const Matrix r = a * Matrix::identity(2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(r(i, j), a(i, j));
}

/// The dense ikj product the sparse kernel replaced: skips zero a(i,k)
/// only, and adds every b(k,j) term, zero or not.
Matrix reference_product(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k) {
      if (a(i, k) == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += a(i, k) * b(k, j);
    }
  return c;
}

/// Entries in [-1, 1) present with probability `density`; rows and columns
/// listed in `zero_rows` / `zero_cols` stay zero.
Matrix random_matrix(std::size_t r, std::size_t c, double density,
                     rlb::sim::Rng& rng,
                     std::initializer_list<std::size_t> zero_rows = {},
                     std::initializer_list<std::size_t> zero_cols = {}) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j)
      if (rng.next_double() < density) m(i, j) = rng.next_double() * 2 - 1;
  for (const std::size_t i : zero_rows)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = 0.0;
  for (const std::size_t j : zero_cols)
    for (std::size_t i = 0; i < r; ++i) m(i, j) = 0.0;
  return m;
}

void expect_same_bits(const Matrix& x, const Matrix& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  EXPECT_EQ(std::memcmp(x.data().data(), y.data().data(),
                        x.data().size() * sizeof(double)),
            0);
}

TEST(Matrix, SparseProductMatchesDenseReferenceBitwise) {
  rlb::sim::Rng rng(5);
  for (const double density : {0.02, 0.1, 0.25, 1.0}) {
    // Square, rectangular both ways, vector shapes.
    const std::pair<std::size_t, std::size_t> shapes[][2] = {
        {{40, 40}, {40, 40}}, {{17, 33}, {33, 8}}, {{8, 33}, {33, 29}},
        {{1, 50}, {50, 1}},   {{50, 1}, {1, 50}},  {{1, 12}, {12, 30}},
        {{30, 12}, {12, 1}}};
    for (const auto& s : shapes) {
      const Matrix a = random_matrix(s[0].first, s[0].second, density, rng);
      const Matrix b = random_matrix(s[1].first, s[1].second, density, rng);
      expect_same_bits(a * b, reference_product(a, b));
    }
  }
}

TEST(Matrix, SparseProductWithZeroRowsAndColumns) {
  rlb::sim::Rng rng(6);
  // Zero rows and columns of a, of b, and of both; all-zero operands.
  const Matrix a = random_matrix(20, 15, 0.3, rng, {0, 7, 19}, {2, 14});
  const Matrix b = random_matrix(15, 25, 0.3, rng, {0, 2, 9}, {0, 24});
  const Matrix dense_a = random_matrix(20, 15, 1.0, rng);
  const Matrix dense_b = random_matrix(15, 25, 1.0, rng);
  expect_same_bits(a * b, reference_product(a, b));
  expect_same_bits(dense_a * b, reference_product(dense_a, b));
  expect_same_bits(a * dense_b, reference_product(a, dense_b));
  const Matrix zero_a(20, 15), zero_b(15, 25);
  expect_same_bits(zero_a * dense_b, Matrix(20, 25));
  expect_same_bits(dense_a * zero_b, Matrix(20, 25));
}

TEST(Matrix, Transpose) {
  const Matrix a = make(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, Norms) {
  const Matrix a = make(2, 2, {1, -5, 2, 3});
  EXPECT_DOUBLE_EQ(a.norm_inf(), 6.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 5.0);
}

TEST(Matrix, RowSums) {
  const Matrix a = make(2, 2, {1, 2, -3, 3});
  const Vector rs = a.row_sums();
  EXPECT_DOUBLE_EQ(rs[0], 3.0);
  EXPECT_DOUBLE_EQ(rs[1], 0.0);
}

TEST(VectorOps, VecMatAndMatVec) {
  const Matrix a = make(2, 2, {1, 2, 3, 4});
  const Vector x{1.0, 1.0};
  const Vector row = rlb::linalg::vec_mat(x, a);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[1], 6.0);
  const Vector col = rlb::linalg::mat_vec(a, x);
  EXPECT_DOUBLE_EQ(col[0], 3.0);
  EXPECT_DOUBLE_EQ(col[1], 7.0);
}

TEST(VectorOps, DotSumNorm) {
  const Vector a{1, 2, 3};
  const Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(rlb::linalg::dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(rlb::linalg::sum(a), 6.0);
  EXPECT_DOUBLE_EQ(rlb::linalg::norm_inf(b), 6.0);
}

TEST(VectorOps, AxpyAndScaled) {
  Vector y{1, 1};
  const Vector x{2, 3};
  rlb::linalg::axpy(y, 2.0, x);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
  const Vector s = rlb::linalg::scaled({1, 2}, 3.0);
  EXPECT_DOUBLE_EQ(s[1], 6.0);
}

}  // namespace
