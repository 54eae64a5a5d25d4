#include "util/combinatorics.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/require.h"

namespace rlb::util {

double binomial(int n, int k) {
  if (k < 0 || k > n || n < 0) return 0.0;
  if (k > n - k) k = n - k;
  double result = 1.0;
  for (int i = 1; i <= k; ++i) {
    result *= static_cast<double>(n - k + i);
    result /= static_cast<double>(i);
  }
  return result;
}

double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

double log_binomial(int n, int k) {
  RLB_REQUIRE(0 <= k && k <= n, "log_binomial domain");
  return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0);
}

std::uint64_t binomial_u64(int n, int k) {
  if (k < 0 || k > n || n < 0) return 0;
  if (k > n - k) k = n - k;
  unsigned __int128 result = 1;
  for (int i = 1; i <= k; ++i) {
    result *= static_cast<unsigned>(n - k + i);
    result /= static_cast<unsigned>(i);  // exact: C(n-k+i, i) is integral
    if (result > std::numeric_limits<std::uint64_t>::max())
      throw std::overflow_error("binomial_u64 overflow");
  }
  return static_cast<std::uint64_t>(result);
}

double binomial_ratio(int a, int n, int k) {
  RLB_REQUIRE(0 <= k && k <= n, "binomial_ratio: need 0 <= k <= n");
  RLB_REQUIRE(a <= n, "binomial_ratio: need a <= n");
  if (a < k) return 0.0;
  return std::exp(log_binomial(a, k) - log_binomial(n, k));
}

}  // namespace rlb::util
