#include "sqd/tail_distribution.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fast_sqd.h"
#include "sqd/asymptotic.h"
#include "sqd/bound_solver.h"

namespace {

using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::marginal_queue_tail;
using rlb::sqd::Params;

TEST(TailDistribution, BasicShape) {
  const BoundModel model(Params{3, 2, 0.7, 1.0}, 2, BoundKind::Lower);
  const auto td = marginal_queue_tail(model, 12);
  ASSERT_EQ(td.tail.size(), 13u);
  EXPECT_NEAR(td.tail[0], 1.0, 1e-9);
  for (std::size_t k = 1; k < td.tail.size(); ++k) {
    EXPECT_LE(td.tail[k], td.tail[k - 1] + 1e-12) << k;  // non-increasing
    EXPECT_GE(td.tail[k], 0.0);
  }
  EXPECT_LT(td.tail.back(), 0.05);  // far tail is small at rho = 0.7
}

TEST(TailDistribution, SingleServerIsMm1Geometric) {
  const double rho = 0.8;
  const BoundModel model(Params{1, 1, rho, 1.0}, 1, BoundKind::Lower);
  const auto td = marginal_queue_tail(model, 15);
  // M/M/1: P(Q >= k) = rho^k.
  for (int k = 0; k <= 15; ++k)
    EXPECT_NEAR(td.tail[k], std::pow(rho, k), 1e-8) << k;
}

TEST(TailDistribution, MeanMatchesBoundSolver) {
  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    for (const std::vector<double>& speeds :
         {std::vector<double>{}, {1.5, 1.0, 0.5}}) {
      const BoundModel model(Params{3, 2, 0.6, 1.0}, 2, kind, speeds);
      const auto td = marginal_queue_tail(model, 60);
      const auto r = rlb::sqd::solve_bound(model);
      // mean queue per server from the tail == mean_jobs / N.
      EXPECT_NEAR(td.mean_queue_length(), r.mean_jobs / 3.0, 1e-6);
    }
  }
}

TEST(TailDistribution, LowerTailMatchesSimulatedSystemClosely) {
  // The lower model's marginal tail should track the real SQ(2) system's
  // tail (the lower bound is "remarkably tight").
  const Params p{3, 2, 0.8, 1.0};
  const BoundModel model(p, 3, BoundKind::Lower);
  const auto td = marginal_queue_tail(model, 8);

  rlb::sim::FastSqdConfig cfg;
  cfg.params = p;
  cfg.tail_kmax = 8;
  const auto sim = rlb::sim::simulate_sqd_fast(
      cfg, rlb::sim::AdaptivePlan::fixed(1, 2'000'000, 200'000, 555),
      rlb::util::ThreadBudget::serial());
  ASSERT_EQ(sim.marginal_tail.size(), 9u);
  for (int k = 0; k <= 8; ++k)
    EXPECT_NEAR(td.tail[k], sim.marginal_tail[k], 0.03) << k;
}

TEST(TailDistribution, AsymptoticTailIsDoublyExponential) {
  // Sanity link to Mitzenmacher's s_i: the finite-N lower-model tail at
  // moderate N should be close to s_i for small i.
  const double rho = 0.7;
  const BoundModel model(Params{6, 2, rho, 1.0}, 3, BoundKind::Lower);
  const auto td = marginal_queue_tail(model, 4);
  for (int i = 1; i <= 3; ++i) {
    const double s_i = rlb::sqd::asymptotic_queue_tail(rho, 2, i);
    EXPECT_NEAR(td.tail[i], s_i, 0.05) << i;
  }
}

TEST(TailDistribution, UpperDominatesLower) {
  const Params p{3, 2, 0.6, 1.0};
  const auto lo = marginal_queue_tail(BoundModel(p, 2, BoundKind::Lower), 10);
  const auto hi = marginal_queue_tail(BoundModel(p, 2, BoundKind::Upper), 10);
  // Stochastic ordering of workloads shows up in the mean; individual tail
  // points should also be ordered for this configuration.
  EXPECT_LE(lo.mean_queue_length(), hi.mean_queue_length() + 1e-9);
}

TEST(TailDistribution, RejectsNegativeKmax) {
  const BoundModel model(Params{2, 2, 0.5, 1.0}, 1, BoundKind::Lower);
  EXPECT_THROW(marginal_queue_tail(model, -1), std::invalid_argument);
}

}  // namespace
