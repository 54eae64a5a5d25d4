// Binomial coefficients and related identities.
//
// The SQ(d) transition law is built from ratios C(a, d) / C(N, d); for the
// parameter ranges in the paper (N up to a few hundred, d up to 50) the
// coefficients themselves can overflow 64-bit integers, so the double and
// log-domain versions are the workhorses. The exact 64-bit version is kept
// for state-space sizing, where values are small and exactness matters.
#pragma once

#include <cstdint>

namespace rlb::util {

/// C(n, k) as a double. Returns 0 for k < 0 or k > n. Accurate to ~1 ulp per
/// multiply (k multiplies); exact whenever the value fits in 2^53.
double binomial(int n, int k);

/// log |Gamma(x)|, the value std::lgamma returns, via the reentrant
/// lgamma_r: std::lgamma also writes the global `signgam`, which makes
/// concurrent callers race.
double log_gamma(double x);

/// log C(n, k) via log_gamma. Requires 0 <= k <= n.
double log_binomial(int n, int k);

/// Exact C(n, k) in 64 bits; throws std::overflow_error if it does not fit.
std::uint64_t binomial_u64(int n, int k);

/// Ratio C(a, k) / C(n, k) computed stably in the log domain.
/// Returns 0 when a < k. Requires 0 <= k <= n and a <= n.
double binomial_ratio(int a, int n, int k);

}  // namespace rlb::util
