#include "linalg/eigen.h"

#include <gtest/gtest.h>

namespace {

using rlb::linalg::Matrix;
using rlb::linalg::power_iteration;

TEST(PowerIteration, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 0.2;
  a(1, 1) = 0.9;
  a(2, 2) = 0.5;
  const auto r = power_iteration(a);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 0.9, 1e-10);
}

TEST(PowerIteration, StochasticMatrixHasEigenvalueOne) {
  Matrix p(2, 2);
  p(0, 0) = 0.3;
  p(0, 1) = 0.7;
  p(1, 0) = 0.4;
  p(1, 1) = 0.6;
  const auto r = power_iteration(p);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 1.0, 1e-10);
}

TEST(PowerIteration, RankOneMatrix) {
  // a = u v^T with spectral radius v^T u.
  Matrix a(3, 3);
  const double u[3] = {1, 2, 3};
  const double v[3] = {0.5, 0.25, 0.125};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) a(i, j) = u[i] * v[j];
  const auto r = power_iteration(a);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 0.5 * 1 + 0.25 * 2 + 0.125 * 3, 1e-10);
}

TEST(PowerIteration, ZeroMatrix) {
  const Matrix a(4, 4, 0.0);
  const auto r = power_iteration(a);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, 0.0, 1e-12);
}

}  // namespace
