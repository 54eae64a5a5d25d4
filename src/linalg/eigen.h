// Spectral helpers: power iteration for the dominant eigenvalue of a
// nonnegative matrix (used to check sp(R) < 1 and the Theorem-3 identity
// sp(R) = rho^N for the lower bound model).
#pragma once

#include "linalg/matrix.h"

namespace rlb::linalg {

struct SpectralResult {
  double value = 0.0;   ///< dominant eigenvalue estimate
  Vector vector;        ///< corresponding (right) eigenvector, 1-normalized
  int iterations = 0;
  bool converged = false;
};

/// Power iteration on a square matrix with nonnegative dominant eigenvalue.
SpectralResult power_iteration(const Matrix& a, double tol = 1e-12,
                               int max_iter = 20000);

}  // namespace rlb::linalg
