// Grassmann–Taksar–Heyman (GTH) stationary solver.
//
// GTH computes the stationary distribution of an irreducible CTMC generator
// using only additions of nonnegative numbers, which makes it backward
// stable — the right tool for the drift-condition chain pi*A = 0 of Neuts'
// Theorem 1.7.1 and for exact reference solutions.
#pragma once

#include "linalg/matrix.h"

namespace rlb::markov {

/// Stationary distribution of an irreducible CTMC generator (rows sum to 0).
linalg::Vector stationary_gth(const linalg::Matrix& generator);

}  // namespace rlb::markov
