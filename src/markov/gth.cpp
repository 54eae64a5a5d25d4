#include "markov/gth.h"

#include <stdexcept>

#include "util/require.h"

namespace rlb::markov {

linalg::Vector stationary_gth(const linalg::Matrix& generator) {
  RLB_REQUIRE(generator.rows() == generator.cols(), "GTH needs square input");
  const std::size_t n = generator.rows();
  RLB_REQUIRE(n > 0, "GTH on empty chain");
  linalg::Matrix q = generator;  // working copy; diagonal is never read

  // Elimination: fold state k into states 0..k-1.
  for (std::size_t k = n - 1; k >= 1; --k) {
    double s = 0.0;
    for (std::size_t j = 0; j < k; ++j) s += q(k, j);
    if (s <= 0.0)
      throw std::runtime_error("stationary_gth: chain is not irreducible");
    for (std::size_t i = 0; i < k; ++i) q(i, k) /= s;
    for (std::size_t i = 0; i < k; ++i) {
      const double f = q(i, k);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) q(i, j) += f * q(k, j);
    }
  }

  // Back substitution.
  linalg::Vector pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    double s = 0.0;
    for (std::size_t i = 0; i < k; ++i) s += pi[i] * q(i, k);
    pi[k] = s;
  }
  double total = 0.0;
  for (double v : pi) total += v;
  for (double& v : pi) v /= total;
  return pi;
}

}  // namespace rlb::markov
