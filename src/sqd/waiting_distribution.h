// Waiting-time distribution estimate built on the lower bound model.
//
// The paper bounds the MEAN delay. The same stationary solution yields a
// full waiting-time profile via the snapshot argument that is EXACT for
// the original SQ(d) system (FIFO + exponential service + no jockeying):
// a job that joins a queue holding v jobs waits Erlang(v, mu). Evaluating
// that mixture under the lower model's stationary distribution (a tight
// proxy for the true one) gives
//
//   P(W > t) ~= sum_m pi_LB(m) sum_g p_g(m) * P(Erlang(v_g(m), mu) > t),
//   P(Erlang(v, mu) > t) = P(Poisson(mu t) < v),
//
// with the matrix-geometric levels summed as a geometric series. Two
// precision notes: (1) for N = 1 this is the exact M/M/1 law; (2) for
// N > 1 it is an approximation on one count only — pi_LB vs the true
// stationary law — and its mean is typically CLOSER to the true E[W] than
// the bound model's own Little-based mean (the snapshot undoes the
// jockeying dynamics). It is not a certified bound; the paper's precedence
// argument covers mean costs only. Accuracy is validated against exact
// solutions and DES quantiles in tests/test_waiting_distribution.cpp.
#pragma once

#include <vector>

#include "sqd/bound_model.h"

namespace rlb::sqd {

/// Precomputed waiting-time profile: solves the lower model once, then
/// answers CCDF/quantile queries cheaply.
class WaitingProfile {
 public:
  /// Requires model.kind() == BoundKind::Lower and no rank speeds: the
  /// Erlang(v, mu) mixture assumes one service rate. `tail_tol` truncates
  /// the geometric level series.
  explicit WaitingProfile(const BoundModel& model, double tail_tol = 1e-10);

  /// P(W > t).
  [[nodiscard]] double ccdf(double t) const;

  /// Smallest t with P(W > t) <= 1 - q (e.g. q = 0.99 for the p99 wait).
  [[nodiscard]] double quantile(double q, double tol = 1e-4) const;

 private:
  double mu_;
  /// Mixture representation: weight[k] on Erlang(shape[k], mu).
  std::vector<int> shapes_;
  std::vector<double> weights_;
};

}  // namespace rlb::sqd
