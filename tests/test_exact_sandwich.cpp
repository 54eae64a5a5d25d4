// The paper's central claim, verified against exact (truncated-CTMC)
// solutions of the ORIGINAL SQ(d) process: lower bound <= exact <= upper
// bound, with a remarkably tight lower bound.
#include <cmath>
#include <ostream>

#include <gtest/gtest.h>

#include "mm_queues.h"
#include "qbd/solver.h"
#include "sqd/bound_solver.h"
#include "sqd/exact_reference.h"

namespace {

using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::ExactResult;
using rlb::sqd::Params;

// Truncation cap per server count: keeps the dense GTH solve fast while
// holding the truncation mass far below the bound gaps at the loads used.
int cap_for(int n) { return n == 2 ? 70 : (n == 3 ? 36 : 26); }

struct Case {
  int n, d, t;
  double rho;
};

// CTest names each case by its printed value (n2_d2_T1_rho0.3). Without a
// printer gtest dumps Case's bytes, padding included, so the names would
// change from one build to the next.
void PrintTo(const Case& c, std::ostream* os) {
  *os << 'n' << c.n << "_d" << c.d << "_T" << c.t << "_rho" << c.rho;
}

class SandwichTest : public ::testing::TestWithParam<Case> {};

TEST_P(SandwichTest, LowerExactUpperOrdering) {
  const Case c = GetParam();
  const Params p{c.n, c.d, c.rho, 1.0};
  const ExactResult exact = rlb::sqd::solve_exact_truncated(p, cap_for(c.n));
  // Truncation deflates the exact mean by roughly (tail mass) x (jobs per
  // tail state); widen the one-sided assertions by a conservative multiple.
  const double slack =
      std::max(1e-6, 20.0 * exact.truncation_mass * cap_for(c.n));
  ASSERT_LT(exact.truncation_mass, 1e-3);

  const double lower =
      rlb::sqd::solve_bound(BoundModel(p, c.t, BoundKind::Lower))
          .mean_waiting_jobs;
  EXPECT_LE(lower, exact.mean_waiting_jobs + slack) << "lower bound violated";

  try {
    const double upper =
        rlb::sqd::solve_bound(BoundModel(p, c.t, BoundKind::Upper))
            .mean_waiting_jobs;
    EXPECT_GE(upper, exact.mean_waiting_jobs - slack)
        << "upper bound violated";
  } catch (const rlb::qbd::UnstableError&) {
    // The upper model may be unstable at small T / high rho; the bound
    // then holds vacuously (+infinity).
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SandwichTest,
    ::testing::Values(Case{2, 2, 1, 0.3}, Case{2, 2, 1, 0.6},
                      Case{2, 2, 2, 0.6}, Case{2, 2, 2, 0.8},
                      Case{2, 2, 3, 0.9}, Case{3, 2, 1, 0.5},
                      Case{3, 2, 2, 0.3}, Case{3, 2, 2, 0.6},
                      Case{3, 2, 2, 0.75}, Case{3, 2, 3, 0.8},
                      Case{3, 3, 2, 0.6}, Case{3, 3, 2, 0.8},
                      Case{3, 1, 2, 0.5}, Case{4, 2, 2, 0.5},
                      Case{4, 3, 2, 0.65}, Case{4, 4, 2, 0.6}));

TEST(SandwichTightness, LowerBoundRemarkablyAccurate) {
  // Paper Section V: "the lower bounds are remarkably tight". Check the
  // relative error against the exact solution for the Figure 10(a,b)
  // configuration N = 3 at several loads.
  for (double rho : {0.3, 0.5, 0.7, 0.8}) {
    const Params p{3, 2, rho, 1.0};
    const ExactResult exact = rlb::sqd::solve_exact_truncated(p, cap_for(3));
    const double lower =
        rlb::sqd::solve_bound(BoundModel(p, 3, BoundKind::Lower)).mean_delay;
    const double rel = std::abs(exact.mean_delay - lower) / exact.mean_delay;
    EXPECT_LT(rel, 0.04) << "rho=" << rho;  // within 4%
  }
}

TEST(SandwichTightness, UpperBoundTightensFromT2ToT3) {
  // Figure 10(a) vs 10(b): at N = 3, rho = 0.5, the T = 3 upper bound is
  // closer to the exact value than the T = 2 one.
  const Params p{3, 2, 0.5, 1.0};
  const ExactResult exact = rlb::sqd::solve_exact_truncated(p, cap_for(3));
  const double u2 =
      rlb::sqd::solve_bound(BoundModel(p, 2, BoundKind::Upper)).mean_delay;
  const double u3 =
      rlb::sqd::solve_bound(BoundModel(p, 3, BoundKind::Upper)).mean_delay;
  EXPECT_LT(std::abs(u3 - exact.mean_delay), std::abs(u2 - exact.mean_delay));
}

TEST(ExactReference, Sq1IsIndependentMm1s) {
  // d = 1 splits the Poisson stream uniformly: each server is M/M/1 with
  // arrival rate lambda.
  const Params p{3, 1, 0.6, 1.0};
  const ExactResult exact = rlb::sqd::solve_exact_truncated(p, cap_for(3));
  const rlb::sqd::Mm1 ref{0.6, 1.0};
  EXPECT_NEAR(exact.mean_jobs, 3 * ref.mean_jobs(), 1e-3);
  EXPECT_NEAR(exact.mean_delay, ref.mean_sojourn(), 1e-3);
}

TEST(ExactReference, TruncationMassDecaysWithCap) {
  const Params p{2, 2, 0.8, 1.0};
  const ExactResult a = rlb::sqd::solve_exact_truncated(p, 20);
  const ExactResult b = rlb::sqd::solve_exact_truncated(p, 40);
  EXPECT_LT(b.truncation_mass, a.truncation_mass);
  EXPECT_LT(b.truncation_mass, 1e-4);
}

TEST(ExactReference, JsqBeatsRandomRouting) {
  const double rho = 0.7;
  const ExactResult jsq =
      rlb::sqd::solve_exact_truncated(Params{3, 3, rho, 1.0}, cap_for(3));
  const ExactResult sq1 =
      rlb::sqd::solve_exact_truncated(Params{3, 1, rho, 1.0}, cap_for(3));
  EXPECT_LT(jsq.mean_delay, sq1.mean_delay);
}

}  // namespace
