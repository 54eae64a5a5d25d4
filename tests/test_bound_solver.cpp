#include "sqd/bound_solver.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "mm_queues.h"
#include "sqd/asymptotic.h"

namespace {

using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::BoundResult;
using rlb::sqd::Params;

TEST(BoundSolver, SingleServerIsExactMm1) {
  // N = 1: both bound models ARE M/M/1, so the "bounds" are exact.
  for (double lambda : {0.3, 0.7, 0.95}) {
    const rlb::sqd::Mm1 ref{lambda, 1.0};
    for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
      const BoundModel model(Params{1, 1, lambda, 1.0}, 1, kind);
      const BoundResult r = rlb::sqd::solve_bound(model);
      EXPECT_NEAR(r.mean_waiting_jobs, ref.mean_waiting_jobs(), 1e-9);
      EXPECT_NEAR(r.mean_jobs, ref.mean_jobs(), 1e-9);
      EXPECT_NEAR(r.mean_delay, ref.mean_sojourn(), 1e-9);
    }
  }
}

TEST(BoundSolver, LowerBelowUpper) {
  for (double rho : {0.2, 0.5, 0.7}) {
    for (int t : {2, 3}) {
      const Params p{3, 2, rho, 1.0};
      const double lower =
          rlb::sqd::solve_bound(BoundModel(p, t, BoundKind::Lower)).mean_delay;
      const double upper =
          rlb::sqd::solve_bound(BoundModel(p, t, BoundKind::Upper)).mean_delay;
      EXPECT_LE(lower, upper + 1e-9) << rho << ' ' << t;
    }
  }
}

TEST(BoundSolver, BoundsTightenWithT) {
  // Larger T truncates less: lower bounds increase, upper bounds decrease.
  // The upper model may be unstable at small T (treat as +infinity).
  const Params p{3, 2, 0.6, 1.0};
  double prev_lower = 0.0;
  double prev_upper = std::numeric_limits<double>::infinity();
  for (int t = 1; t <= 4; ++t) {
    const double lower =
        rlb::sqd::solve_bound(BoundModel(p, t, BoundKind::Lower)).mean_delay;
    double upper = std::numeric_limits<double>::infinity();
    try {
      upper =
          rlb::sqd::solve_bound(BoundModel(p, t, BoundKind::Upper)).mean_delay;
    } catch (const rlb::qbd::UnstableError&) {
    }
    EXPECT_GE(lower, prev_lower - 1e-9) << t;
    EXPECT_LE(upper, prev_upper + 1e-9) << t;
    prev_lower = lower;
    prev_upper = upper;
  }
  // And they pinch: by T = 4 the gap is small at this moderate load.
  EXPECT_LT(prev_upper - prev_lower, 0.05);
}

TEST(BoundSolver, DelayAtLeastServiceTime) {
  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    const BoundModel model(Params{4, 2, 0.4, 1.0}, 2, kind);
    const BoundResult r = rlb::sqd::solve_bound(model);
    EXPECT_GE(r.mean_delay, 1.0);
    EXPECT_GE(r.mean_waiting_jobs, 0.0);
    EXPECT_NEAR(r.mean_delay, r.mean_waiting_time + 1.0, 1e-12);
  }
}

TEST(BoundSolver, LittleLawInternalConsistency) {
  const BoundModel model(Params{3, 2, 0.8, 1.0}, 3, BoundKind::Lower);
  const BoundResult r = rlb::sqd::solve_bound(model);
  EXPECT_NEAR(r.mean_waiting_time, r.mean_waiting_jobs / (0.8 * 3), 1e-12);
}

TEST(BoundSolver, LightLoadMatchesAsymptotic) {
  // At light load every finite-N effect vanishes; bounds and the N->inf
  // approximation all converge to ~1.
  const Params p{6, 2, 0.05, 1.0};
  const double lower =
      rlb::sqd::solve_bound(BoundModel(p, 2, BoundKind::Lower)).mean_delay;
  const double upper =
      rlb::sqd::solve_bound(BoundModel(p, 2, BoundKind::Upper)).mean_delay;
  const double asym = rlb::sqd::asymptotic_delay(0.05, 2);
  EXPECT_NEAR(lower, asym, 0.01);
  EXPECT_NEAR(upper, asym, 0.01);
}

TEST(BoundSolver, ReportsDiagnostics) {
  const BoundModel model(Params{3, 2, 0.7, 1.0}, 2, BoundKind::Lower);
  const BoundResult r = rlb::sqd::solve_bound(model);
  EXPECT_GT(r.logred_iterations, 0);
  EXPECT_LT(r.r_residual, 1e-10);
  EXPECT_EQ(r.block_size, 6u);
  EXPECT_GT(r.boundary_size, 0u);
  EXPECT_NEAR(r.total_probability, 1.0, 1e-9);
  EXPECT_GT(r.prob_boundary, 0.0);
  EXPECT_LT(r.prob_boundary, 1.0);
}

TEST(BoundSolver, ProbBoundaryShrinksWithLoad) {
  const int T = 2;
  double prev = 1.0;
  for (double rho : {0.3, 0.6, 0.9}) {
    const BoundModel model(Params{3, 2, rho, 1.0}, T, BoundKind::Lower);
    const double pb = rlb::sqd::solve_bound(model).prob_boundary;
    EXPECT_LT(pb, prev);
    prev = pb;
  }
}

TEST(BoundSolver, JsqCaseMatchesAdanStyleBounds) {
  // d = N (JSQ), N = 2: the lower bound model is the classic jockeying
  // model, whose mean queue length is known to be extremely close to the
  // true symmetric-JSQ value; sanity-check monotonicity and a ballpark
  // figure at rho = 0.5: true E[W_jsq] ~ 0.24 (Adan et al. report ~0.2).
  const Params p{2, 2, 0.5, 1.0};
  const double lower =
      rlb::sqd::solve_bound(BoundModel(p, 3, BoundKind::Lower)).mean_waiting_time;
  const double upper =
      rlb::sqd::solve_bound(BoundModel(p, 3, BoundKind::Upper)).mean_waiting_time;
  EXPECT_GT(upper, lower - 1e-12);
  EXPECT_GT(lower, 0.0);
  EXPECT_LT(upper, 1.0);
}

}  // namespace
