#include "sqd/waiting_distribution.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sim/cluster_sim.h"
#include "sqd/bound_solver.h"
#include "sqd/exact_reference.h"

namespace {

using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;
using rlb::sqd::WaitingProfile;

/// P(W > t) at each of `ts`, from one profile of `model`.
std::vector<double> ccdf_at(const BoundModel& model,
                            const std::vector<double>& ts) {
  const WaitingProfile profile(model);
  std::vector<double> out;
  for (double t : ts) out.push_back(profile.ccdf(t));
  return out;
}

TEST(WaitingDistribution, Mm1ClosedForm) {
  // N = 1: the lower bound model IS M/M/1, whose waiting-time law is
  // P(W > t) = rho * exp(-(mu - lambda) t).
  const double rho = 0.7;
  const BoundModel model(Params{1, 1, rho, 1.0}, 1, BoundKind::Lower);
  const std::vector<double> ts{0.0, 0.5, 1.0, 2.0, 5.0};
  const auto ccdf = ccdf_at(model, ts);
  for (std::size_t k = 0; k < ts.size(); ++k)
    EXPECT_NEAR(ccdf[k], rho * std::exp(-(1.0 - rho) * ts[k]), 1e-8)
        << ts[k];
}

TEST(WaitingDistribution, BasicShapeProperties) {
  const BoundModel model(Params{3, 2, 0.8, 1.0}, 3, BoundKind::Lower);
  const std::vector<double> ts{0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
  const auto ccdf = ccdf_at(model, ts);
  for (std::size_t k = 0; k < ts.size(); ++k) {
    EXPECT_GE(ccdf[k], 0.0);
    EXPECT_LE(ccdf[k], 1.0);
    if (k > 0) {
      EXPECT_LE(ccdf[k], ccdf[k - 1] + 1e-12);  // non-increasing
    }
  }
  EXPECT_LT(ccdf.back(), 0.1);  // far tail decays
}

TEST(WaitingDistribution, MeanIntegralApproximatesTrueWait) {
  // E[W] = integral of the CCDF. The snapshot mixture undoes the lower
  // model's jockeying, so its mean should land between the Little-based
  // lower bound and close to the TRUE system's mean waiting time.
  const Params p{3, 2, 0.7, 1.0};
  const BoundModel model(p, 3, BoundKind::Lower);
  const double bound_mean =
      rlb::sqd::solve_lower_improved(model).mean_waiting_time;
  const double true_mean =
      rlb::sqd::solve_exact_truncated(p, 36).mean_waiting_time;

  std::vector<double> ts;
  const double dt = 0.02;
  for (double t = 0.0; t < 40.0; t += dt) ts.push_back(t);
  const auto ccdf = ccdf_at(model, ts);
  double integral = 0.0;
  for (std::size_t k = 1; k < ts.size(); ++k)
    integral += 0.5 * (ccdf[k] + ccdf[k - 1]) * dt;

  EXPECT_NEAR(integral, true_mean, 0.03 * (1.0 + true_mean));
  EXPECT_GT(integral, bound_mean);  // refines the Little-based value here
  EXPECT_LT(std::abs(integral - true_mean),
            std::abs(bound_mean - true_mean));
}

TEST(WaitingDistribution, ProbPositiveWaitMatchesBusyTarget) {
  // P(W > 0) = P(the joined server is busy); cross-check against a tiny
  // direct computation for N = 1 (it's rho).
  const double rho = 0.55;
  const BoundModel model(Params{1, 1, rho, 1.0}, 2, BoundKind::Lower);
  EXPECT_NEAR(ccdf_at(model, {0.0})[0], rho, 1e-9);
}

TEST(WaitingDistribution, QuantilesMatchDesSimulation) {
  // The lower model's waiting quantiles should approximate the real SQ(2)
  // system's DES quantiles where the mean bound is tight.
  const int n = 3;
  const double rho = 0.8;
  const BoundModel model(Params{n, 2, rho, 1.0}, 4, BoundKind::Lower);
  const double p95 = WaitingProfile(model).quantile(0.95);
  const double p50 = WaitingProfile(model).quantile(0.50);

  rlb::sim::ClusterConfig cfg;
  cfg.servers = n;
  rlb::sim::SqdPolicy policy(n, 2);
  const auto arr = rlb::sim::make_exponential(rho * n);
  rlb::sim::RenewalArrivals arrivals(*arr);
  const auto svc = rlb::sim::make_exponential(1.0);
  const auto r = rlb::sim::simulate_cluster(
      cfg, policy, arrivals, *svc,
      rlb::sim::AdaptivePlan::fixed(1, 800'000, 80'000, 31415),
      rlb::util::ThreadBudget::serial());
  // DES reports sojourn quantiles; convert waiting quantile to sojourn by
  // comparing against (wait + typical service) loosely: instead compare
  // wait quantiles with sojourn quantiles minus mean service with a wide
  // band (the distributions differ by an independent Exp(1)).
  EXPECT_NEAR(p95 + 1.0, r.p95_sojourn, 0.25 * r.p95_sojourn);
  EXPECT_LT(p50, r.p50_sojourn);
}

TEST(WaitingDistribution, QuantileMonotoneInQ) {
  const BoundModel model(Params{3, 2, 0.75, 1.0}, 3, BoundKind::Lower);
  double prev = 0.0;
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double t = WaitingProfile(model).quantile(q);
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(WaitingDistribution, HigherLoadStochasticallyLarger) {
  const std::vector<double> ts{0.5, 1.0, 2.0};
  const auto low = ccdf_at(
      BoundModel(Params{3, 2, 0.5, 1.0}, 3, BoundKind::Lower), ts);
  const auto high = ccdf_at(
      BoundModel(Params{3, 2, 0.9, 1.0}, 3, BoundKind::Lower), ts);
  for (std::size_t k = 0; k < ts.size(); ++k) EXPECT_GT(high[k], low[k]);
}

TEST(WaitingDistribution, DomainChecks) {
  const BoundModel lower(Params{2, 2, 0.5, 1.0}, 1, BoundKind::Lower);
  const BoundModel upper(Params{2, 2, 0.5, 1.0}, 1, BoundKind::Upper);
  EXPECT_THROW(ccdf_at(upper, {1.0}), std::invalid_argument);
  EXPECT_THROW(ccdf_at(lower, {-1.0}), std::invalid_argument);
  EXPECT_THROW((void)WaitingProfile(lower).quantile(1.0),
               std::invalid_argument);
  // The Erlang(v, mu) mixture assumes one service rate.
  const BoundModel ranked(Params{2, 2, 0.5, 1.0}, 1, BoundKind::Lower,
                          {1.5, 0.5});
  EXPECT_THROW(ccdf_at(ranked, {1.0}), std::invalid_argument);
}

}  // namespace

namespace {

TEST(WaitingProfile, ObjectMatchesFreeFunctions) {
  // One profile answering many queries gives the same numbers as a fresh
  // profile built for each query.
  const BoundModel model(Params{3, 2, 0.75, 1.0}, 3, BoundKind::Lower);
  const WaitingProfile profile(model);
  for (double t : {0.0, 0.5, 1.5, 3.0})
    EXPECT_EQ(profile.ccdf(t), WaitingProfile(model).ccdf(t)) << t;
  EXPECT_EQ(profile.quantile(0.95), WaitingProfile(model).quantile(0.95));
}

TEST(WaitingProfile, RepeatedQueriesAreCheap) {
  const BoundModel model(Params{6, 2, 0.8, 1.0}, 3, BoundKind::Lower);
  const WaitingProfile profile(model);
  // Many queries after one solve; just exercise them for sanity.
  double prev = 1.0;
  for (double t = 0.0; t <= 10.0; t += 0.1) {
    const double c = profile.ccdf(t);
    EXPECT_LE(c, prev + 1e-12);
    prev = c;
  }
}

}  // namespace
