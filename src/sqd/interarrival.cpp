#include "sqd/interarrival.h"

#include <cmath>
#include <stdexcept>

#include "util/combinatorics.h"
#include "util/require.h"
#include "util/rootfind.h"

namespace rlb::sqd {

// -- Exponential ---------------------------------------------------------

ExponentialInterarrival::ExponentialInterarrival(double rate) : rate_(rate) {
  RLB_REQUIRE(rate > 0.0, "rate must be positive");
}

double ExponentialInterarrival::lst(double s) const {
  return rate_ / (rate_ + s);
}

double ExponentialInterarrival::mean() const { return 1.0 / rate_; }

double ExponentialInterarrival::beta(int k, double mu) const {
  RLB_REQUIRE(k >= 0, "k >= 0");
  // (rate/mu) * (mu/(rate+mu))^{k+1}, i.e. Eq. (21) with lambda = rate.
  return rate_ / mu * std::pow(mu / (rate_ + mu), k + 1);
}

std::string ExponentialInterarrival::name() const { return "exponential"; }

// -- Erlang ---------------------------------------------------------------

ErlangInterarrival::ErlangInterarrival(int shape, double stage_rate)
    : shape_(shape), stage_rate_(stage_rate) {
  RLB_REQUIRE(shape >= 1, "shape >= 1");
  RLB_REQUIRE(stage_rate > 0.0, "stage rate must be positive");
}

double ErlangInterarrival::lst(double s) const {
  return std::pow(stage_rate_ / (stage_rate_ + s), shape_);
}

double ErlangInterarrival::mean() const { return shape_ / stage_rate_; }

double ErlangInterarrival::beta(int k, double mu) const {
  RLB_REQUIRE(k >= 0, "k >= 0");
  // U ~ Erlang(n, nu): beta_k = C(k+n-1, k) mu^k nu^n / (mu+nu)^{k+n}.
  const double nu = stage_rate_;
  return util::binomial(k + shape_ - 1, k) * std::pow(mu, k) *
         std::pow(nu, shape_) / std::pow(mu + nu, k + shape_);
}

std::string ErlangInterarrival::name() const {
  return "erlang(" + std::to_string(shape_) + ")";
}

// -- Hyperexponential ------------------------------------------------------

HyperExpInterarrival::HyperExpInterarrival(double p1, double rate1,
                                           double rate2)
    : p1_(p1), rate1_(rate1), rate2_(rate2) {
  RLB_REQUIRE(p1 >= 0.0 && p1 <= 1.0, "mixing probability in [0,1]");
  RLB_REQUIRE(rate1 > 0.0 && rate2 > 0.0, "rates must be positive");
}

double HyperExpInterarrival::lst(double s) const {
  return p1_ * rate1_ / (rate1_ + s) + (1.0 - p1_) * rate2_ / (rate2_ + s);
}

double HyperExpInterarrival::mean() const {
  return p1_ / rate1_ + (1.0 - p1_) / rate2_;
}

double HyperExpInterarrival::beta(int k, double mu) const {
  RLB_REQUIRE(k >= 0, "k >= 0");
  const auto branch = [&](double rate) {
    return rate / mu * std::pow(mu / (rate + mu), k + 1);
  };
  return p1_ * branch(rate1_) + (1.0 - p1_) * branch(rate2_);
}

std::string HyperExpInterarrival::name() const { return "hyperexp2"; }

// -- Deterministic ----------------------------------------------------------

DeterministicInterarrival::DeterministicInterarrival(double value)
    : value_(value) {
  RLB_REQUIRE(value > 0.0, "interarrival must be positive");
}

double DeterministicInterarrival::lst(double s) const {
  return std::exp(-s * value_);
}

double DeterministicInterarrival::mean() const { return value_; }

double DeterministicInterarrival::beta(int k, double mu) const {
  RLB_REQUIRE(k >= 0, "k >= 0");
  const double x = mu * value_;
  return std::exp(k * std::log(x) - util::log_gamma(k + 1.0) - x);
}

std::string DeterministicInterarrival::name() const { return "deterministic"; }

// -- sigma -----------------------------------------------------------------

SigmaResult solve_sigma(const Interarrival& a, double mu) {
  RLB_REQUIRE(mu > 0.0, "mu must be positive");
  const double rho = 1.0 / (mu * a.mean());
  if (rho >= 1.0)
    throw std::runtime_error("solve_sigma: utilization >= 1, no root in (0,1)");

  // f(x) = LST(mu(1-x)) - x: f(0) = beta_0 > 0 and f(1-) < 0 when rho < 1
  // (the slope of the LST term at x=1 is mu E[U] = 1/rho > 1).
  const auto f = [&](double x) { return a.lst(mu * (1.0 - x)) - x; };
  double hi = 1.0 - 1e-12;
  // Guard against f(hi) >= 0 from round-off very close to criticality.
  while (f(hi) >= 0.0 && hi > 0.5) hi = 1.0 - 4.0 * (1.0 - hi);
  RLB_REQUIRE(f(hi) < 0.0, "solve_sigma: failed to bracket the root");
  const util::RootResult r = util::find_root(f, 0.0, hi, 1e-14);
  RLB_REQUIRE(r.converged, "solve_sigma: root search did not converge");
  return {r.x, r.residual, r.iterations};
}

}  // namespace rlb::sqd
