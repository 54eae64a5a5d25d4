#include "qbd/solver.h"

#include <cmath>

#include "linalg/lu.h"
#include "util/require.h"

namespace rlb::qbd {

using linalg::Matrix;
using linalg::Vector;

namespace {

/// Assemble and solve the boundary system. `corner` is the bottom-right
/// block A1 + R A2 (or A1 + rate * A2), `tail_weights` the per-entry
/// normalization coefficients for pi_1, i.e. row sums of (I - R)^{-1}.
struct BoundaryResult {
  Vector pi_b, pi0, pi1;
};

BoundaryResult solve_boundary(const Blocks& b, const Matrix& corner,
                              const Vector& tail_weights) {
  const std::size_t nb = b.boundary_size();
  const std::size_t m = b.block_size();
  const std::size_t n = nb + 2 * m;

  // Equations are columns of the block matrix; we solve M^T x = rhs with
  // one equation replaced by the normalization.
  Matrix mt(n, n, 0.0);  // M transposed
  const auto put_block_t = [&](const Matrix& blk, std::size_t row0,
                               std::size_t col0) {
    // Block sits at (row0, col0) of M; transpose its non-zeros into mt.
    for (std::size_t i = 0; i < blk.rows(); ++i)
      for (std::size_t j = 0; j < blk.cols(); ++j)
        if (blk(i, j) != 0.0) mt(col0 + j, row0 + i) = blk(i, j);
  };
  put_block_t(b.B00, 0, 0);
  put_block_t(b.B01, 0, nb);
  put_block_t(b.B10, nb, 0);
  put_block_t(b.A1, nb, nb);
  put_block_t(b.A0, nb, nb + m);
  put_block_t(b.A2, nb + m, nb);
  put_block_t(corner, nb + m, nb + m);

  // Replace the first equation with the normalization; the dropped balance
  // equation is recovered by the global balance redundancy.
  for (std::size_t j = 0; j < nb + m; ++j) mt(0, j) = 1.0;
  for (std::size_t j = 0; j < m; ++j) mt(0, nb + m + j) = tail_weights[j];
  Vector rhs(n, 0.0);
  rhs[0] = 1.0;

  const Vector x = linalg::Lu(std::move(mt)).solve(std::move(rhs));
  BoundaryResult out;
  out.pi_b.assign(x.begin(), x.begin() + nb);
  out.pi0.assign(x.begin() + nb, x.begin() + nb + m);
  out.pi1.assign(x.begin() + nb + m, x.end());
  return out;
}

}  // namespace

Solution solve(const Blocks& blocks, double tol) {
  Solution sol;
  sol.drift = drift_condition(blocks.A0, blocks.A1, blocks.A2);
  if (!sol.drift.stable)
    throw UnstableError("QBD drift condition fails: pi A0 e = " +
                        std::to_string(sol.drift.up) +
                        " >= pi A2 e = " + std::to_string(sol.drift.down));

  const GResult g = logarithmic_reduction(blocks.A0, blocks.A1, blocks.A2,
                                          tol);
  RLB_REQUIRE(g.converged, "logarithmic reduction did not converge");
  sol.logred_iterations = g.iterations;
  sol.R = rate_matrix_from_g(blocks.A0, blocks.A1, g.G);
  sol.r_residual = r_residual(blocks.A0, blocks.A1, blocks.A2, sol.R);

  const std::size_t m = blocks.block_size();
  const Matrix I = Matrix::identity(m);
  Matrix i_minus_r = I;
  i_minus_r -= sol.R;
  const linalg::Lu lu_imr(i_minus_r);
  const Vector tail_weights = lu_imr.solve(Vector(m, 1.0));

  Matrix corner = blocks.A1;
  corner += sol.R * blocks.A2;
  const BoundaryResult br = solve_boundary(blocks, corner, tail_weights);
  sol.pi_boundary = br.pi_b;
  sol.pi0 = br.pi0;
  sol.pi1 = br.pi1;

  // tail_sum = pi_1 (I-R)^{-1}  <=>  tail_sum (I-R) = pi_1.
  const linalg::Lu lu_imr_t(i_minus_r.transpose());
  sol.tail_sum = lu_imr_t.solve(sol.pi1);
  // tail_weighted = pi_1 R (I-R)^{-2} = ((tail_sum) R) (I-R)^{-1}.
  sol.tail_weighted = lu_imr_t.solve(linalg::vec_mat(sol.tail_sum, sol.R));

  sol.total_probability = linalg::sum(sol.pi_boundary) +
                          linalg::sum(sol.pi0) + linalg::sum(sol.tail_sum);
  return sol;
}

Solution solve_scalar(const Blocks& blocks, double rate) {
  Solution sol;
  sol.drift = drift_condition(blocks.A0, blocks.A1, blocks.A2);
  if (!(rate >= 0.0 && rate < 1.0))
    throw UnstableError("scalar rate " + std::to_string(rate) +
                        " outside [0, 1)");
  sol.scalar_rate = rate;

  const std::size_t m = blocks.block_size();
  Matrix corner = blocks.A1;
  {
    Matrix scaled_a2 = blocks.A2;
    scaled_a2 *= rate;
    corner += scaled_a2;
  }
  const Vector tail_weights(m, 1.0 / (1.0 - rate));
  const BoundaryResult br = solve_boundary(blocks, corner, tail_weights);
  sol.pi_boundary = br.pi_b;
  sol.pi0 = br.pi0;
  sol.pi1 = br.pi1;

  sol.tail_sum = linalg::scaled(sol.pi1, 1.0 / (1.0 - rate));
  sol.tail_weighted =
      linalg::scaled(sol.pi1, rate / ((1.0 - rate) * (1.0 - rate)));
  sol.total_probability = linalg::sum(sol.pi_boundary) +
                          linalg::sum(sol.pi0) + linalg::sum(sol.tail_sum);
  return sol;
}

}  // namespace rlb::qbd
