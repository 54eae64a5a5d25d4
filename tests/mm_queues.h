// Closed-form M/M/1 and M/M/c results, the exact references the tests
// compare solvers and simulators against (SQ(1) with N servers is N
// independent M/M/1 queues; the lower bound model with N = 1 collapses to
// M/M/1).
#pragma once

#include <cmath>

#include "util/require.h"

namespace rlb::sqd {

/// M/M/1 with arrival rate lambda, service rate mu.
struct Mm1 {
  double lambda = 0.0;
  double mu = 1.0;

  [[nodiscard]] double rho() const { return lambda / mu; }

  /// E[L]
  [[nodiscard]] double mean_jobs() const {
    const double r = rho();
    RLB_REQUIRE(r < 1.0, "M/M/1 unstable");
    return r / (1.0 - r);
  }

  /// E[Lq]
  [[nodiscard]] double mean_waiting_jobs() const {
    const double r = rho();
    RLB_REQUIRE(r < 1.0, "M/M/1 unstable");
    return r * r / (1.0 - r);
  }

  /// E[T] = E[W] + 1/mu
  [[nodiscard]] double mean_sojourn() const {
    RLB_REQUIRE(rho() < 1.0, "M/M/1 unstable");
    return 1.0 / (mu - lambda);
  }

  /// E[W]
  [[nodiscard]] double mean_wait() const { return mean_sojourn() - 1.0 / mu; }

  /// P(L = n)
  [[nodiscard]] double prob_jobs(int n) const {
    const double r = rho();
    RLB_REQUIRE(r < 1.0, "M/M/1 unstable");
    RLB_REQUIRE(n >= 0, "job count must be non-negative");
    return (1.0 - r) * std::pow(r, n);
  }
};

/// M/M/c with total arrival rate lambda, per-server rate mu, c servers.
struct Mmc {
  double lambda = 0.0;
  double mu = 1.0;
  int c = 1;

  [[nodiscard]] double rho() const { return lambda / (c * mu); }

  /// P(wait > 0)
  [[nodiscard]] double erlang_c() const {
    const double a = lambda / mu;  // offered load
    RLB_REQUIRE(rho() < 1.0, "M/M/c unstable");
    // Stable recurrence for the Erlang-B blocking probability, then convert.
    double b = 1.0;  // Erlang B with 0 servers
    for (int k = 1; k <= c; ++k) b = a * b / (k + a * b);
    const double r = rho();
    return b / (1.0 - r * (1.0 - b));
  }

  /// E[Lq]
  [[nodiscard]] double mean_waiting_jobs() const {
    const double r = rho();
    return erlang_c() * r / (1.0 - r);
  }

  /// E[L]
  [[nodiscard]] double mean_jobs() const {
    return mean_waiting_jobs() + lambda / mu;
  }

  /// E[W]
  [[nodiscard]] double mean_wait() const {
    return mean_waiting_jobs() / lambda;
  }

  /// E[T]
  [[nodiscard]] double mean_sojourn() const { return mean_wait() + 1.0 / mu; }
};

}  // namespace rlb::sqd
