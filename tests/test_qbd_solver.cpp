#include "qbd/solver.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sqd/blocks_builder.h"

namespace {

using rlb::linalg::Matrix;
namespace qbd = rlb::qbd;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

// N = 1 collapses the whole construction to a plain M/M/1: one shape,
// boundary = {(0)}, level q = {(q+1)}. Gold standard for the solver.
qbd::Blocks mm1_as_bound_blocks(double lambda, int T = 1) {
  const BoundModel model(Params{1, 1, lambda, 1.0}, T, BoundKind::Lower);
  return rlb::sqd::build_bound_qbd(model).blocks;
}

TEST(QbdSolver, Mm1StationaryDistribution) {
  const double lambda = 0.7;
  const auto sol = qbd::solve(mm1_as_bound_blocks(lambda));
  // pi(0) = 1 - rho; pi(n) = (1-rho) rho^n.
  ASSERT_EQ(sol.pi_boundary.size(), 1u);
  EXPECT_NEAR(sol.pi_boundary[0], 1.0 - lambda, 1e-10);
  EXPECT_NEAR(sol.pi0[0], (1.0 - lambda) * lambda, 1e-10);
  EXPECT_NEAR(sol.pi1[0], (1.0 - lambda) * lambda * lambda, 1e-10);
  EXPECT_NEAR(sol.total_probability, 1.0, 1e-10);
  // R is the scalar rho.
  EXPECT_NEAR(sol.R(0, 0), lambda, 1e-10);
}

TEST(QbdSolver, Mm1TailAggregates) {
  const double rho = 0.6;
  const auto sol = qbd::solve(mm1_as_bound_blocks(rho));
  // tail_sum = sum_{n>=2} pi(n) = (1-rho) rho^2 / (1-rho) = rho^2.
  EXPECT_NEAR(sol.tail_sum[0], rho * rho, 1e-10);
  // tail_weighted = sum_{n>=2} (n-2) pi(n) = rho^3 / (1-rho).
  EXPECT_NEAR(sol.tail_weighted[0], std::pow(rho, 3) / (1.0 - rho), 1e-10);
}

TEST(QbdSolver, ScalarSolveMatchesFullSolveForLowerModel) {
  // Theorem 3: the improved (scalar rho^N) solve and the generic solve
  // agree on every probability block.
  for (double rho : {0.3, 0.7, 0.9}) {
    const BoundModel model(Params{3, 2, rho, 1.0}, 2, BoundKind::Lower);
    const auto q = rlb::sqd::build_bound_qbd(model);
    const auto full = qbd::solve(q.blocks);
    const auto scalar = qbd::solve_scalar(q.blocks, std::pow(rho, 3));
    for (std::size_t i = 0; i < full.pi_boundary.size(); ++i)
      EXPECT_NEAR(full.pi_boundary[i], scalar.pi_boundary[i], 1e-9);
    for (std::size_t i = 0; i < full.pi0.size(); ++i)
      EXPECT_NEAR(full.pi0[i], scalar.pi0[i], 1e-9);
    for (std::size_t i = 0; i < full.pi1.size(); ++i)
      EXPECT_NEAR(full.pi1[i], scalar.pi1[i], 1e-9);
  }
}

TEST(QbdSolver, GeometricTailTheorem3) {
  // pi_{q+1} = rho^N pi_q for the lower model: check via pi_2 = pi_1 R.
  const double rho = 0.8;
  const BoundModel model(Params{3, 2, rho, 1.0}, 2, BoundKind::Lower);
  const auto q = rlb::sqd::build_bound_qbd(model);
  const auto sol = qbd::solve(q.blocks);
  const auto pi2 = rlb::linalg::vec_mat(sol.pi1, sol.R);
  const double rate = std::pow(rho, 3);
  for (std::size_t i = 0; i < pi2.size(); ++i)
    EXPECT_NEAR(pi2[i], rate * sol.pi1[i], 1e-10) << i;
}

TEST(QbdSolver, StationarityResidual) {
  // The assembled solution satisfies the balance equations of the full
  // generator on boundary, level 0 and level 1 columns.
  const BoundModel model(Params{3, 2, 0.75, 1.0}, 2, BoundKind::Upper);
  const auto q = rlb::sqd::build_bound_qbd(model);
  const auto sol = qbd::solve(q.blocks);

  using rlb::linalg::vec_mat;
  using rlb::linalg::Vector;
  // Boundary columns: pi_b B00 + pi_0 B10 = 0.
  Vector res = vec_mat(sol.pi_boundary, q.blocks.B00);
  rlb::linalg::axpy(res, 1.0, vec_mat(sol.pi0, q.blocks.B10));
  EXPECT_LT(rlb::linalg::norm_inf(res), 1e-10);
  // Level-0 columns: pi_b B01 + pi_0 A1 + pi_1 A2 = 0.
  Vector res0 = vec_mat(sol.pi_boundary, q.blocks.B01);
  rlb::linalg::axpy(res0, 1.0, vec_mat(sol.pi0, q.blocks.A1));
  rlb::linalg::axpy(res0, 1.0, vec_mat(sol.pi1, q.blocks.A2));
  EXPECT_LT(rlb::linalg::norm_inf(res0), 1e-10);
  // Level-1 columns with pi_2 = pi_1 R.
  const Vector pi2 = vec_mat(sol.pi1, sol.R);
  Vector res1 = vec_mat(sol.pi0, q.blocks.A0);
  rlb::linalg::axpy(res1, 1.0, vec_mat(sol.pi1, q.blocks.A1));
  rlb::linalg::axpy(res1, 1.0, vec_mat(pi2, q.blocks.A2));
  EXPECT_LT(rlb::linalg::norm_inf(res1), 1e-10);
}

TEST(QbdSolver, ProbabilitiesNonNegativeAndNormalized) {
  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    const BoundModel model(Params{3, 2, 0.5, 1.0}, 2, kind);
    const auto q = rlb::sqd::build_bound_qbd(model);
    const auto sol = qbd::solve(q.blocks);
    for (double v : sol.pi_boundary) EXPECT_GE(v, -1e-12);
    for (double v : sol.pi0) EXPECT_GE(v, -1e-12);
    for (double v : sol.pi1) EXPECT_GE(v, -1e-12);
    EXPECT_NEAR(sol.total_probability, 1.0, 1e-9);
  }
}

TEST(QbdSolver, UnstableUpperThrows) {
  const BoundModel model(Params{3, 2, 0.95, 1.0}, 2, BoundKind::Upper);
  const auto q = rlb::sqd::build_bound_qbd(model);
  EXPECT_THROW(qbd::solve(q.blocks), qbd::UnstableError);
}

TEST(QbdSolver, ScalarRateOutsideUnitIntervalThrows) {
  const auto blocks = mm1_as_bound_blocks(0.5);
  EXPECT_THROW(qbd::solve_scalar(blocks, 1.0), qbd::UnstableError);
  EXPECT_THROW(qbd::solve_scalar(blocks, -0.1), qbd::UnstableError);
}

}  // namespace
