// Theorem 2's inputs: the interarrival laws' Laplace-Stieltjes transforms
// (sim::Distribution::lst) and the sigma root solve_sigma finds from them.
// The beta_k closed forms live here as test-local references, so Eq. (21)
// and the generating identity sum_k x^k beta_k = LST(mu(1-x)) are checked
// against the same law objects the simulators sample.
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/distributions.h"
#include "sim/gi_bound_sim.h"
#include "util/combinatorics.h"

namespace {

using rlb::sim::Distribution;
using rlb::sim::SigmaResult;
using rlb::sim::solve_sigma;

/// A renewal law with its beta_k = E[(mu U)^k / k! * e^{-mu U}] in closed
/// form, the probability of k potential services in one interarrival
/// interval.
struct Law {
  std::unique_ptr<Distribution> dist;
  std::function<double(int k, double mu)> beta;
};

Law exponential(double rate) {
  Law law;
  law.dist = rlb::sim::make_exponential(rate);
  // (rate/mu) * (mu/(rate+mu))^{k+1}, i.e. Eq. (21) with lambda = rate.
  law.beta = [rate](int k, double mu) {
    return rate / mu * std::pow(mu / (rate + mu), k + 1);
  };
  return law;
}

Law erlang(int shape, double nu) {
  Law law;
  law.dist = rlb::sim::make_erlang(shape, nu);
  // U ~ Erlang(n, nu): beta_k = C(k+n-1, k) mu^k nu^n / (mu+nu)^{k+n}.
  law.beta = [shape, nu](int k, double mu) {
    return rlb::util::binomial(k + shape - 1, k) * std::pow(mu, k) *
           std::pow(nu, shape) / std::pow(mu + nu, k + shape);
  };
  return law;
}

Law hyperexp(double p1, double rate1, double rate2) {
  Law law;
  law.dist = rlb::sim::make_hyperexp(p1, rate1, rate2);
  law.beta = [p1, rate1, rate2](int k, double mu) {
    const auto branch = [&](double rate) {
      return rate / mu * std::pow(mu / (rate + mu), k + 1);
    };
    return p1 * branch(rate1) + (1.0 - p1) * branch(rate2);
  };
  return law;
}

Law deterministic(double value) {
  Law law;
  law.dist = rlb::sim::make_deterministic(value);
  // The Poisson(mu * value) pmf at k.
  law.beta = [value](int k, double mu) {
    const double x = mu * value;
    return std::exp(k * std::log(x) - rlb::util::log_gamma(k + 1.0) - x);
  };
  return law;
}

// beta_k should always match the LST through the generating identity
// sum_k x^k beta_k = LST(mu(1-x)).
void check_beta_lst_consistency(const Law& a, double mu) {
  for (double x : {0.0, 0.3, 0.7, 0.95}) {
    double series = 0.0;
    double xk = 1.0;
    for (int k = 0; k < 400; ++k) {
      series += xk * a.beta(k, mu);
      xk *= x;
    }
    EXPECT_NEAR(series, a.dist->lst(mu * (1.0 - x)), 1e-10)
        << a.dist->name() << " x=" << x;
  }
}

TEST(Interarrival, ExponentialBetaMatchesPaperEq21) {
  // Eq. (21): beta_k = (lambda/mu) * mu^{k+1} / (lambda+mu)^{k+1}, and the
  // law's own transform generates it.
  const double lambda = 0.8, mu = 1.0;
  const Law a = exponential(lambda);
  for (int k = 0; k <= 10; ++k) {
    const double expected =
        lambda / mu * std::pow(mu / (lambda + mu), k + 1);
    EXPECT_NEAR(a.beta(k, mu), expected, 1e-14);
  }
  check_beta_lst_consistency(a, mu);
}

TEST(Interarrival, BetasFormDistribution) {
  // beta_k is the probability of k potential services in an interarrival
  // interval; they must sum to 1.
  const double mu = 1.0;
  std::vector<Law> laws;
  laws.push_back(exponential(0.7));
  laws.push_back(erlang(3, 2.1));
  laws.push_back(hyperexp(0.4, 2.0, 0.5));
  laws.push_back(deterministic(1.25));
  for (const Law& a : laws) {
    double total = 0.0;
    for (int k = 0; k < 500; ++k) total += a.beta(k, mu);
    EXPECT_NEAR(total, 1.0, 1e-9) << a.dist->name();
  }
}

TEST(Interarrival, BetaLstConsistency) {
  const double mu = 1.3;
  check_beta_lst_consistency(exponential(0.9), mu);
  check_beta_lst_consistency(erlang(4, 3.0), mu);
  check_beta_lst_consistency(hyperexp(0.3, 3.0, 0.6), mu);
  check_beta_lst_consistency(deterministic(0.8), mu);
}

TEST(Interarrival, LstAtZeroIsOne) {
  EXPECT_NEAR(rlb::sim::make_exponential(2.0)->lst(0.0), 1.0, 1e-14);
  EXPECT_NEAR(rlb::sim::make_erlang(2, 1.0)->lst(0.0), 1.0, 1e-14);
  EXPECT_NEAR(rlb::sim::make_hyperexp(0.5, 1.0, 2.0)->lst(0.0), 1.0, 1e-14);
  EXPECT_NEAR(rlb::sim::make_deterministic(1.0)->lst(0.0), 1.0, 1e-14);
}

TEST(Interarrival, Means) {
  EXPECT_DOUBLE_EQ(rlb::sim::make_exponential(2.0)->mean(), 0.5);
  EXPECT_DOUBLE_EQ(rlb::sim::make_erlang(3, 6.0)->mean(), 0.5);
  EXPECT_DOUBLE_EQ(rlb::sim::make_deterministic(0.5)->mean(), 0.5);
  EXPECT_DOUBLE_EQ(rlb::sim::make_hyperexp(0.5, 1.0, 1.0)->mean(), 1.0);
}

TEST(Sigma, PoissonGivesRho) {
  // Theorem 3: sigma = rho for Poisson arrivals.
  for (double lambda : {0.1, 0.5, 0.75, 0.9, 0.99}) {
    const SigmaResult r = solve_sigma(*rlb::sim::make_exponential(lambda), 1.0);
    EXPECT_NEAR(r.sigma, lambda, 1e-10) << lambda;
  }
}

TEST(Sigma, ErlangBelowPoisson) {
  // Smoother arrivals (CV < 1) queue less: sigma < rho.
  const double rho = 0.8;
  // mean 1/rho -> utilization rho
  const SigmaResult r = solve_sigma(*rlb::sim::make_erlang(4, 4.0 * rho), 1.0);
  EXPECT_LT(r.sigma, rho);
  EXPECT_GT(r.sigma, 0.0);
}

TEST(Sigma, HyperExpAbovePoisson) {
  // Burstier arrivals (CV > 1) queue more: sigma > rho.
  const double rho = 0.8;
  // Balanced-means hyperexponential with mean 1/rho.
  const double mean = 1.0 / rho;
  const double p1 = 0.9;
  const SigmaResult r = solve_sigma(
      *rlb::sim::make_hyperexp(p1, 2.0 * p1 / mean, 2.0 * (1.0 - p1) / mean),
      1.0);
  EXPECT_GT(r.sigma, rho);
  EXPECT_LT(r.sigma, 1.0);
}

TEST(Sigma, DeterministicSolvesFixedPoint) {
  const double rho = 0.9;
  const SigmaResult r =
      solve_sigma(*rlb::sim::make_deterministic(1.0 / rho), 1.0);
  // sigma = exp(-mu(1-sigma)/rho): verify the fixed point directly.
  EXPECT_NEAR(r.sigma, std::exp(-(1.0 - r.sigma) / rho), 1e-10);
  EXPECT_LT(r.sigma, rho);  // deterministic is the smoothest renewal input
}

TEST(Sigma, UnstableThrows) {
  // utilization 1.5
  EXPECT_THROW(solve_sigma(*rlb::sim::make_exponential(1.5), 1.0),
               std::runtime_error);
}

TEST(Sigma, SolvesTheorem2Equation) {
  // The returned sigma satisfies x = sum_k x^k beta_k.
  const Law a = erlang(2, 1.6);
  const double mu = 1.0;
  const SigmaResult r = solve_sigma(*a.dist, mu);
  double series = 0.0, xk = 1.0;
  for (int k = 0; k < 300; ++k) {
    series += xk * a.beta(k, mu);
    xk *= r.sigma;
  }
  EXPECT_NEAR(series, r.sigma, 1e-10);
}

}  // namespace
