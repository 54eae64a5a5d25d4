// Empirical validation of Theorem 2: the lower bound model's level tail
// decays with ratio sigma^N for renewal (non-Poisson) arrivals.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sim/gi_bound_sim.h"
#include "sqd/bound_solver.h"

namespace {

using rlb::sim::AdaptivePlan;
using rlb::sim::simulate_gi_lower_bound;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

rlb::util::ThreadBudget& serial() { return rlb::util::ThreadBudget::serial(); }

/// One run of `arrivals` arrivals, the first `warmup` of them discarded.
rlb::sim::GiBoundSimResult run_one(const BoundModel& model,
                                   const rlb::sim::Distribution& interarrival,
                                   std::uint64_t arrivals,
                                   std::uint64_t warmup, std::uint64_t seed) {
  return simulate_gi_lower_bound(
      model, interarrival, AdaptivePlan::fixed(1, arrivals, warmup, seed),
      serial());
}

TEST(GiBoundSim, PoissonTailRatioIsRhoN) {
  // Theorem 3 special case: sigma = rho.
  const double rho = 0.85;
  const Params p{3, 2, rho, 1.0};
  const BoundModel model(p, 2, BoundKind::Lower);
  const auto arr = rlb::sim::make_exponential(rho * 3);
  const auto r = run_one(model, *arr, 3'000'000, 300'000, 99);
  EXPECT_NEAR(r.level_tail_ratio, std::pow(rho, 3), 0.05);
}

TEST(GiBoundSim, UnitRankSpeedsMatchHomogeneousStatistically) {
  // The hetero path samples the departing rank differently (weighted scan
  // vs uniform pick), so all-ones speeds give the same law through a
  // different stream: statistically close, not bit-identical.
  const double rho = 0.8;
  const Params p{3, 2, rho, 1.0};
  const BoundModel homog_model(p, 2, BoundKind::Lower);
  const BoundModel ones_model(p, 2, BoundKind::Lower, {1.0, 1.0, 1.0});
  const auto arr = rlb::sim::make_exponential(rho * 3);
  const auto homog = run_one(homog_model, *arr, 2'000'000, 200'000, 17);
  const auto hetero = run_one(ones_model, *arr, 2'000'000, 200'000, 17);
  EXPECT_NEAR(hetero.mean_jobs, homog.mean_jobs,
              0.03 * (1.0 + homog.mean_jobs));
  EXPECT_NEAR(hetero.mean_waiting_jobs, homog.mean_waiting_jobs,
              0.03 * (1.0 + homog.mean_waiting_jobs));
}

TEST(GiBoundSim, HeteroAgreesWithCtmcJumpChain) {
  // With exponential interarrivals the GI simulator runs the
  // heterogeneous-rate CTMC that the matrix-geometric solver solves
  // exactly, through an independent implementation: the exact mean must
  // lie within a few CI half-widths of the simulated one.
  const double rho = 0.8;
  const Params p{4, 2, rho, 1.0};
  const BoundModel model(p, 3, BoundKind::Lower, {1.5, 1.5, 0.5, 0.5});
  const auto arr = rlb::sim::make_exponential(rho * 4);
  const auto gi = run_one(model, *arr, 2'000'000, 200'000, 19);
  const auto exact = rlb::sqd::solve_bound(model);
  EXPECT_NEAR(gi.mean_waiting_jobs, exact.mean_waiting_jobs,
              3.0 * gi.ci95_waiting_jobs);
  EXPECT_NEAR(gi.mean_jobs, exact.mean_jobs, 0.02 * exact.mean_jobs);
}

TEST(GiBoundSim, HeteroIsThreadBudgetInvariant) {
  const double rho = 0.8;
  const Params p{3, 2, rho, 1.0};
  const BoundModel model(p, 2, BoundKind::Lower, {1.5, 1.0, 0.5});
  const auto arr = rlb::sim::make_exponential(rho * 3);
  const auto plan = AdaptivePlan::fixed(3, 120'000, 12'000, 29);
  const auto one = simulate_gi_lower_bound(model, *arr, plan, serial());
  rlb::util::ThreadBudget four(4);
  const auto parallel = simulate_gi_lower_bound(model, *arr, plan, four);
  EXPECT_DOUBLE_EQ(parallel.mean_jobs, one.mean_jobs);
  EXPECT_DOUBLE_EQ(parallel.mean_waiting_jobs, one.mean_waiting_jobs);
  ASSERT_EQ(parallel.total_jobs_dist.size(), one.total_jobs_dist.size());
}

TEST(GiBoundSim, ValidatesRankSpeeds) {
  // The simulator takes its speeds from the model, whose constructor
  // checks them: a bad profile never reaches a run.
  const Params p{3, 2, 0.8, 1.0};
  EXPECT_THROW(BoundModel(p, 2, BoundKind::Lower, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(BoundModel(p, 2, BoundKind::Lower, {0.0, 1.5, 1.5}),
               std::invalid_argument);
}

TEST(GiBoundSim, PoissonMatchesMatrixGeometricSolver) {
  const double rho = 0.7;
  const Params p{3, 2, rho, 1.0};
  const BoundModel model(p, 2, BoundKind::Lower);
  const auto solved = rlb::sqd::solve_lower_improved(model);
  const auto arr = rlb::sim::make_exponential(rho * 3);
  const auto r = run_one(model, *arr, 3'000'000, 300'000, 7);
  EXPECT_NEAR(r.mean_waiting_jobs, solved.mean_waiting_jobs,
              0.03 * (1.0 + solved.mean_waiting_jobs));
}

TEST(GiBoundSim, ErlangTailRatioIsSigmaN) {
  // Theorem 2 proper: Erlang-3 arrivals, sigma < rho.
  const double rho = 0.85;
  const int n = 2;
  const Params p{n, 2, rho, 1.0};
  const BoundModel model(p, 2, BoundKind::Lower);
  // Cluster-level Erlang-3 stream with rate rho * n.
  const auto arr = rlb::sim::make_erlang(3, 3.0 * rho * n);
  // The cluster sees interarrivals at rate rho*n with mu = 1 per server;
  // the level tail of the N-server bound model uses the AGGREGATE service
  // rate N*mu between arrivals, so sigma comes from the simulated law's
  // transform at mu -> N*mu.
  const double sigma = rlb::sim::solve_sigma(*arr, n * 1.0).sigma;
  const auto r = run_one(model, *arr, 4'000'000, 400'000, 13);
  // sigma is the per-job decay; levels span N jobs, so the level-mass
  // ratio is sigma^N (Theorem 2).
  EXPECT_NEAR(r.level_tail_ratio, std::pow(sigma, n), 0.05);
  // And distinctly below the Poisson ratio rho^N.
  EXPECT_LT(r.level_tail_ratio, std::pow(rho, n) - 0.01);
}

TEST(GiBoundSim, HyperExpTailHeavierThanPoisson) {
  const double rho = 0.8;
  const int n = 2;
  const Params p{n, 2, rho, 1.0};
  const BoundModel model(p, 2, BoundKind::Lower);
  const auto arr = rlb::sim::make_hyperexp_fitted(1.0 / (rho * n), 4.0);
  const auto r = run_one(model, *arr, 4'000'000, 400'000, 17);
  EXPECT_GT(r.level_tail_ratio, std::pow(rho, n) + 0.02);
}

TEST(GiBoundSim, DistributionIsNormalized) {
  const Params p{3, 2, 0.6, 1.0};
  const BoundModel model(p, 2, BoundKind::Lower);
  const auto arr = rlb::sim::make_exponential(0.6 * 3);
  const auto r = run_one(model, *arr, 500'000, 50'000, 3);
  double total = 0.0;
  for (double v : r.total_jobs_dist) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(GiBoundSim, RejectsUpperModel) {
  const BoundModel model(Params{2, 2, 0.5, 1.0}, 1, BoundKind::Upper);
  const auto arr = rlb::sim::make_exponential(1.0);
  EXPECT_THROW(run_one(model, *arr, 1000, 10, 1),
               std::invalid_argument);
}

}  // namespace
