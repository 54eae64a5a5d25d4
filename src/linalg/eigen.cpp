#include "linalg/eigen.h"

#include <cmath>

#include "util/require.h"

namespace rlb::linalg {

SpectralResult power_iteration(const Matrix& a, double tol, int max_iter) {
  RLB_REQUIRE(a.rows() == a.cols(), "power iteration needs square matrix");
  const std::size_t n = a.rows();
  SpectralResult out;
  if (n == 0) {
    out.converged = true;
    return out;
  }
  Vector x(n, 1.0 / static_cast<double>(n));
  double lambda = 0.0;
  for (int it = 1; it <= max_iter; ++it) {
    Vector y = mat_vec(a, x);
    const double norm = norm_inf(y);
    out.iterations = it;
    if (norm == 0.0) {
      // Nilpotent direction; dominant eigenvalue is 0.
      out.value = 0.0;
      out.vector = x;
      out.converged = true;
      return out;
    }
    for (double& v : y) v /= norm;
    const double next = norm;
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) delta = std::max(delta, std::abs(y[i] - x[i]));
    x = std::move(y);
    if (std::abs(next - lambda) <= tol * (1.0 + std::abs(next)) &&
        delta <= 1e3 * tol) {
      out.value = next;
      out.vector = x;
      out.converged = true;
      return out;
    }
    lambda = next;
  }
  out.value = lambda;
  out.vector = x;
  out.converged = false;
  return out;
}

}  // namespace rlb::linalg
