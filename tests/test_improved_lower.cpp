// Theorems 2 and 3: the improved lower bound solver.
#include <cmath>

#include <gtest/gtest.h>

#include "mm_queues.h"
#include "sim/distributions.h"
#include "sim/gi_bound_sim.h"
#include "sqd/bound_solver.h"

namespace {

using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::BoundResult;
using rlb::sqd::Params;

TEST(ImprovedLower, AgreesWithGenericSolverEverywhere) {
  // Theorem 3 says the full matrix-geometric solve and the scalar rho^N
  // solve produce the same stationary quantities for the lower model.
  for (int n : {2, 3, 4}) {
    for (int t : {1, 2, 3}) {
      for (double rho : {0.3, 0.6, 0.85, 0.95}) {
        const BoundModel model(Params{n, 2, rho, 1.0}, t, BoundKind::Lower);
        const auto q = rlb::sqd::build_bound_qbd(model);
        const BoundResult generic = rlb::sqd::solve_bound(model, q);
        const BoundResult improved =
            rlb::sqd::solve_lower_improved(model, q, rho);
        EXPECT_NEAR(generic.mean_waiting_jobs, improved.mean_waiting_jobs,
                    1e-7 * (1.0 + generic.mean_waiting_jobs))
            << "N=" << n << " T=" << t << " rho=" << rho;
        EXPECT_NEAR(generic.mean_delay, improved.mean_delay,
                    1e-7 * generic.mean_delay);
      }
    }
  }
}

TEST(ImprovedLower, DefaultUsesPoissonSigma) {
  const BoundModel model(Params{3, 2, 0.7, 1.0}, 2, BoundKind::Lower);
  const BoundResult r = rlb::sqd::solve_lower_improved(model);
  EXPECT_NEAR(r.scalar_rate, std::pow(0.7, 3), 1e-12);
  EXPECT_EQ(r.logred_iterations, 0);  // no G/R iteration ran
}

TEST(ImprovedLower, SigmaFromTheorem2MatchesRhoForPoisson) {
  const double rho = 0.8;
  const auto arrivals = rlb::sim::make_exponential(rho);  // mu = 1
  const double sigma = rlb::sim::solve_sigma(*arrivals, 1.0).sigma;
  const BoundModel model(Params{3, 2, rho, 1.0}, 2, BoundKind::Lower);
  const BoundResult via_sigma = rlb::sqd::solve_lower_improved(model, sigma);
  const BoundResult via_rho = rlb::sqd::solve_lower_improved(model);
  EXPECT_NEAR(via_sigma.mean_delay, via_rho.mean_delay, 1e-9);
}

TEST(ImprovedLower, RejectsUpperModel) {
  const BoundModel model(Params{3, 2, 0.7, 1.0}, 2, BoundKind::Upper);
  EXPECT_THROW(rlb::sqd::solve_lower_improved(model), std::invalid_argument);
}

TEST(ImprovedLower, RejectsSigmaOutsideUnitInterval) {
  const BoundModel model(Params{3, 2, 0.7, 1.0}, 2, BoundKind::Lower);
  EXPECT_THROW(rlb::sqd::solve_lower_improved(model, 1.0),
               std::invalid_argument);
  EXPECT_THROW(rlb::sqd::solve_lower_improved(model, 0.0),
               std::invalid_argument);
}

TEST(ImprovedLower, SingleServerIsMm1) {
  const double lambda = 0.85;
  const BoundModel model(Params{1, 1, lambda, 1.0}, 1, BoundKind::Lower);
  const BoundResult r = rlb::sqd::solve_lower_improved(model);
  const rlb::sqd::Mm1 ref{lambda, 1.0};
  EXPECT_NEAR(r.mean_delay, ref.mean_sojourn(), 1e-9);
}

TEST(ImprovedLower, MonotoneInRho) {
  const int n = 3, t = 2;
  double prev = 0.0;
  for (double rho = 0.1; rho < 0.99; rho += 0.1) {
    const BoundModel model(Params{n, 2, rho, 1.0}, t, BoundKind::Lower);
    const double delay = rlb::sqd::solve_lower_improved(model).mean_delay;
    EXPECT_GT(delay, prev);
    prev = delay;
  }
}

TEST(ImprovedLower, HighUtilizationStillSolvable) {
  // The improved path avoids the G iteration, so it stays cheap and
  // numerically clean even at rho = 0.99.
  const BoundModel model(Params{6, 2, 0.99, 1.0}, 2, BoundKind::Lower);
  const BoundResult r = rlb::sqd::solve_lower_improved(model);
  EXPECT_GT(r.mean_delay, 10.0);  // heavily loaded
  EXPECT_NEAR(r.total_probability, 1.0, 1e-8);
}

}  // namespace
