#include "markov/gth.h"

#include <cmath>

#include <gtest/gtest.h>

namespace {

namespace mk = rlb::markov;
using rlb::linalg::Matrix;
using rlb::linalg::Vector;

TEST(Gth, TwoStateChain) {
  Matrix q(2, 2);
  q(0, 0) = -1.0;
  q(0, 1) = 1.0;
  q(1, 0) = 2.0;
  q(1, 1) = -2.0;
  const Vector pi = mk::stationary_gth(q);
  EXPECT_NEAR(pi[0], 2.0 / 3.0, 1e-14);
  EXPECT_NEAR(pi[1], 1.0 / 3.0, 1e-14);
}

TEST(Gth, Mm1TruncatedGeometric) {
  const double rho = 0.8;
  const int n = 30;
  Matrix q(n, n, 0.0);
  for (int i = 0; i < n; ++i) {
    if (i + 1 < n) {
      q(i, i + 1) = rho;
      q(i, i) -= rho;
    }
    if (i > 0) {
      q(i, i - 1) = 1.0;
      q(i, i) -= 1.0;
    }
  }
  const Vector pi = mk::stationary_gth(q);
  for (int i = 1; i < n; ++i)
    EXPECT_NEAR(pi[i] / pi[i - 1], rho, 1e-12) << i;
}

TEST(Gth, SatisfiesBalanceEquations) {
  Matrix q(4, 4, 0.0);
  const double rates[4][4] = {{0, 1, 2, 0.5},
                              {0.3, 0, 1.5, 0},
                              {2, 0, 0, 1},
                              {0.7, 0.2, 0.1, 0}};
  for (int i = 0; i < 4; ++i) {
    double out = 0.0;
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      q(i, j) = rates[i][j];
      out += rates[i][j];
    }
    q(i, i) = -out;
  }
  const Vector pi = mk::stationary_gth(q);
  const Vector balance = rlb::linalg::vec_mat(pi, q);
  for (int j = 0; j < 4; ++j) EXPECT_NEAR(balance[j], 0.0, 1e-13);
  EXPECT_NEAR(rlb::linalg::sum(pi), 1.0, 1e-13);
}

TEST(Gth, ReducibleChainThrows) {
  Matrix q(2, 2, 0.0);  // two absorbing states, not irreducible
  EXPECT_THROW(mk::stationary_gth(q), std::runtime_error);
}

TEST(Gth, NumericallyExtremeRates) {
  // Rates spanning 12 orders of magnitude; GTH should stay accurate.
  Matrix q(3, 3, 0.0);
  q(0, 1) = 1e-6;
  q(1, 0) = 1e6;
  q(1, 2) = 1.0;
  q(2, 1) = 1.0;
  for (int i = 0; i < 3; ++i) {
    double out = 0.0;
    for (int j = 0; j < 3; ++j)
      if (i != j) out += q(i, j);
    q(i, i) = -out;
  }
  const Vector pi = mk::stationary_gth(q);
  // Detailed balance for this birth-death chain: pi0 * 1e-6 = pi1 * 1e6.
  EXPECT_NEAR(pi[0] * 1e-6 / (pi[1] * 1e6), 1.0, 1e-10);
  EXPECT_NEAR(pi[1] / pi[2], 1.0, 1e-10);
}

}  // namespace
