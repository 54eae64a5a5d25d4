// End-to-end regression anchors: specific numbers a correct implementation
// must reproduce (computed from the exact truncated CTMC and the solvers
// themselves, then frozen). These catch silent regressions that the
// relative/property tests could miss.
#include <cmath>

#include <gtest/gtest.h>

#include "qbd/solver.h"
#include "sim/fast_sqd.h"
#include "sqd/asymptotic.h"
#include "sqd/bound_solver.h"
#include "sqd/exact_reference.h"
#include "sqd/tail_distribution.h"

namespace {

using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

// Figure 10(a) midpoint: N = 3, d = 2, T = 2, rho = 0.5.
TEST(Anchors, Fig10aMidpoint) {
  const Params p{3, 2, 0.5, 1.0};
  const double lower =
      rlb::sqd::solve_lower_improved(BoundModel(p, 2, BoundKind::Lower))
          .mean_delay;
  const double upper =
      rlb::sqd::solve_bound(BoundModel(p, 2, BoundKind::Upper)).mean_delay;
  const double exact = rlb::sqd::solve_exact_truncated(p, 40).mean_delay;
  // Frozen values (1e-3 tolerance; solver-grade quantities).
  EXPECT_NEAR(lower, 1.3102, 2e-3);
  EXPECT_NEAR(upper, 1.4547, 2e-3);
  EXPECT_NEAR(exact, 1.3520, 2e-3);
  EXPECT_NEAR(rlb::sqd::asymptotic_delay(0.5, 2), 1.2657, 2e-3);
}

// Figure 10(b): T = 3 tightens the upper bound at the same configuration.
TEST(Anchors, Fig10bTighterUpper) {
  const Params p{3, 2, 0.5, 1.0};
  const double upper3 =
      rlb::sqd::solve_bound(BoundModel(p, 3, BoundKind::Upper)).mean_delay;
  EXPECT_NEAR(upper3, 1.3601, 2e-3);
  EXPECT_LT(upper3, 1.4547);
}

// Figure 10(a) high-load lower bound.
TEST(Anchors, Fig10aHighLoad) {
  const Params p{3, 2, 0.9, 1.0};
  const double lower =
      rlb::sqd::solve_lower_improved(BoundModel(p, 2, BoundKind::Lower))
          .mean_delay;
  EXPECT_NEAR(lower, 3.9600, 5e-3);
}

// The upper model's instability frontier for T = 2, N = 3 sits between
// rho = 0.80 and rho = 0.85 (Figure 10(a)'s blow-up region).
TEST(Anchors, UpperStabilityFrontier) {
  const BoundModel stable(Params{3, 2, 0.80, 1.0}, 2, BoundKind::Upper);
  EXPECT_NO_THROW(rlb::sqd::solve_bound(stable));
  const BoundModel unstable(Params{3, 2, 0.85, 1.0}, 2, BoundKind::Upper);
  EXPECT_THROW(rlb::sqd::solve_bound(unstable), rlb::qbd::UnstableError);
}

// Exact reference values for tiny systems (independent of the QBD path).
TEST(Anchors, ExactSmallSystems) {
  // N = 2, d = 2 is symmetric JSQ; classic well-studied system.
  const auto jsq2 = rlb::sqd::solve_exact_truncated(Params{2, 2, 0.5, 1.0}, 60);
  EXPECT_NEAR(jsq2.mean_jobs, 1.4263, 2e-3);
  const auto sq1 = rlb::sqd::solve_exact_truncated(Params{2, 1, 0.5, 1.0}, 60);
  EXPECT_NEAR(sq1.mean_jobs, 2.0, 2e-3);  // two independent M/M/1 at 0.5
}

// Simulation consistency anchor: three estimators of the same quantity.
TEST(Anchors, ThreeWayAgreementModerateLoad) {
  const Params p{3, 2, 0.7, 1.0};
  const double exact = rlb::sqd::solve_exact_truncated(p, 36).mean_delay;

  rlb::sim::FastSqdConfig cfg;
  cfg.params = p;
  const auto sim = rlb::sim::simulate_sqd_fast(
      cfg, rlb::sim::AdaptivePlan::fixed(1, 2'000'000, 200'000, 2024),
      rlb::util::ThreadBudget::serial());

  const double lower =
      rlb::sqd::solve_lower_improved(BoundModel(p, 4, BoundKind::Lower))
          .mean_delay;
  const double upper =
      rlb::sqd::solve_bound(BoundModel(p, 4, BoundKind::Upper)).mean_delay;

  EXPECT_NEAR(sim.mean_delay, exact, 4.0 * sim.ci95_delay + 0.01);
  // With T = 4 the sandwich is tight at rho = 0.7.
  EXPECT_LE(lower, exact + 1e-6);
  EXPECT_GE(upper, exact - 1e-6);
  EXPECT_LT(upper - lower, 0.06);
}

// Marginal tails line up across methods at a figure-like configuration
// (moderate load, where the lower bound is tight; at rho = 0.9 the T = 3
// truncation visibly under-weights the tail for N = 6 — see Figure 10(c)).
TEST(Anchors, TailThreeWay) {
  const Params p{6, 2, 0.7, 1.0};
  const auto bound_tail =
      rlb::sqd::marginal_queue_tail(BoundModel(p, 3, BoundKind::Lower), 6);

  rlb::sim::FastSqdConfig cfg;
  cfg.params = p;
  cfg.tail_kmax = 6;
  const auto sim = rlb::sim::simulate_sqd_fast(
      cfg, rlb::sim::AdaptivePlan::fixed(1, 2'000'000, 200'000, 77),
      rlb::util::ThreadBudget::serial());

  for (int k = 1; k <= 6; ++k)
    EXPECT_NEAR(bound_tail.tail[k], sim.marginal_tail[k], 0.02) << k;
}

}  // namespace
