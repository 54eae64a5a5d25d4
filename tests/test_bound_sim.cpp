// End-to-end validation of the bound models' exact solutions:
// build_bound_qbd and the matrix-geometric solvers against a truncated
// CTMC built straight from BoundModel::transitions() and solved by GTH,
// homogeneous and with rank speeds.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "markov/ctmc.h"
#include "markov/gth.h"
#include "sqd/bound_solver.h"

namespace {

namespace ss = rlb::statespace;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

/// The bound model with arrivals past `cap` jobs dropped, over the states
/// reachable from the empty system, solved exactly by GTH.
struct Truncated {
  int cap = 0;
  double mean_waiting_jobs = 0.0;
  double mean_jobs = 0.0;
  /// Stationary mass within one level (N jobs) of the cap: how much the
  /// truncation can have bent the answer.
  double edge_mass = 0.0;
  int max_gap = 0;
};

Truncated solve_truncated(const BoundModel& model, int cap = 120) {
  const int n = model.params().N;
  const auto capped = [&](const ss::State& m) {
    std::vector<rlb::markov::Rated> out;
    for (const auto& t : model.transitions(m))
      if (ss::total_jobs(t.to) <= cap) out.push_back({t.to, t.rate});
    return out;
  };
  const ss::State empty(static_cast<std::size_t>(n), 0);
  const auto chain = rlb::markov::build_ctmc(empty, capped);
  const auto pi = rlb::markov::stationary_gth(chain.generator);
  Truncated out{cap};
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const ss::State& m = chain.states[i];
    out.mean_waiting_jobs += pi[i] * ss::waiting_jobs(m);
    out.mean_jobs += pi[i] * ss::total_jobs(m);
    if (ss::total_jobs(m) > cap - n) out.edge_mass += pi[i];
    out.max_gap = std::max(out.max_gap, ss::gap(m));
  }
  return out;
}

/// Agreement of an exact solve with the oracle: the truncation moves a
/// mean by about (jobs at the cap) x (mass there), so the tolerance
/// scales with the oracle's edge mass, plus round-off.
void expect_matches_oracle(const rlb::sqd::BoundResult& exact,
                           const Truncated& oracle) {
  const double tol = 10.0 * oracle.cap * oracle.edge_mass + 1e-9;
  EXPECT_NEAR(exact.mean_waiting_jobs, oracle.mean_waiting_jobs,
              tol * (1.0 + oracle.mean_waiting_jobs));
  EXPECT_NEAR(exact.mean_jobs, oracle.mean_jobs,
              tol * (1.0 + oracle.mean_jobs));
}

TEST(BoundSim, UnitRankSpeedsReproduceHomogeneousExactly) {
  // All-ones rank speeds build the same transition rates, so the blocks
  // and every solver output are bit-identical, not just close.
  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    const Params p{3, 2, 0.75, 1.0};
    const auto homog = rlb::sqd::solve_bound(BoundModel(p, 2, kind));
    const BoundModel ones_model(p, 2, kind, {1.0, 1.0, 1.0});
    const auto ones = rlb::sqd::solve_bound(ones_model);
    EXPECT_EQ(ones.mean_waiting_jobs, homog.mean_waiting_jobs);
    EXPECT_EQ(ones.mean_jobs, homog.mean_jobs);
    EXPECT_EQ(ones.mean_delay, homog.mean_delay);
  }
}

TEST(BoundSim, HeteroGapBoundStillHolds) {
  // The redirection rules are rate-independent: S(T) confines the chain
  // for any rank-speed profile, both bound kinds.
  const std::vector<double> speeds{1.6, 1.2, 0.8, 0.4};
  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    const BoundModel model(Params{4, 2, 0.8, 1.0}, 2, kind, speeds);
    EXPECT_LE(solve_truncated(model, 40).max_gap, 2);
  }
}

TEST(BoundSim, FastServiceOfLongQueuesShrinksBacklog) {
  // Speeding up the longest queues at equal total capacity strictly helps
  // the lower model's backlog.
  const Params p{4, 2, 0.8, 1.0};
  const BoundModel skewed_model(p, 3, BoundKind::Lower, {1.5, 1.5, 0.5, 0.5});
  const auto homog = rlb::sqd::solve_bound(BoundModel(p, 3, BoundKind::Lower));
  const auto skewed = rlb::sqd::solve_bound(skewed_model);
  EXPECT_LT(skewed.mean_waiting_jobs, 0.9 * homog.mean_waiting_jobs);
}

TEST(BoundSim, LowerModelMatchesSolver) {
  const BoundModel model(Params{3, 2, 0.7, 1.0}, 2, BoundKind::Lower);
  expect_matches_oracle(rlb::sqd::solve_bound(model), solve_truncated(model));
}

TEST(BoundSim, UpperModelMatchesSolver) {
  const BoundModel model(Params{3, 2, 0.55, 1.0}, 2, BoundKind::Upper);
  expect_matches_oracle(rlb::sqd::solve_bound(model), solve_truncated(model));
}

TEST(BoundSim, ImprovedSolverMatchesSimulationToo) {
  const BoundModel model(Params{2, 2, 0.8, 1.0}, 2, BoundKind::Lower);
  expect_matches_oracle(rlb::sqd::solve_lower_improved(model),
                        solve_truncated(model));
}

TEST(BoundSim, LowerBelowUpperInSimulation) {
  const Params p{3, 2, 0.6, 1.0};
  const auto low = solve_truncated(BoundModel(p, 2, BoundKind::Lower));
  const auto up = solve_truncated(BoundModel(p, 2, BoundKind::Upper));
  EXPECT_LT(low.mean_waiting_jobs, up.mean_waiting_jobs);
}

TEST(BoundSim, RankSpeedFleetSolvesAreCertifiedAndMatchTheOracle) {
  // hetero_fleet_bounds at its default flags: N = 4, d = 2, T = 3,
  // rho = 0.75, fast half at `fast`, slow half at 2 - fast. Both models
  // solve with the benchmark's certificates, agree with the oracle, and
  // print the scenario's delays; the lower model's scalar-rate path
  // (Theorem 3, rate rho^N, valid since the speeds sum to N) agrees too.
  const double fast[] = {1.0, 1.25, 1.5, 1.75};
  const double lower[] = {1.9323, 1.7409, 1.5971, 1.4902};
  const double upper[] = {2.4798, 1.9092, 1.6521, 1.5053};
  const Params p{4, 2, 0.75, 1.0};
  for (int row = 0; row < 4; ++row) {
    SCOPED_TRACE(fast[row]);
    const double slow = 2.0 - fast[row];
    const std::vector<double> speeds{fast[row], fast[row], slow, slow};
    for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
      SCOPED_TRACE(kind == BoundKind::Lower ? "lower" : "upper");
      const BoundModel model(p, 3, kind, speeds);
      const auto exact = rlb::sqd::solve_bound(model);
      // The certificates perf/checks.h applies to every solve.
      EXPECT_LE(std::abs(exact.total_probability - 1.0), 1e-9);
      EXPECT_LE(exact.r_residual, 1e-10);
      expect_matches_oracle(exact, solve_truncated(model));
      const double printed = kind == BoundKind::Lower ? lower[row] : upper[row];
      EXPECT_NEAR(exact.mean_delay, printed, 5e-5);
      if (fast[row] == 1.0) {
        const BoundModel homogeneous(p, 3, kind);
        const auto reference = rlb::sqd::solve_bound(homogeneous);
        EXPECT_EQ(exact.mean_delay, reference.mean_delay);
      }
      if (kind == BoundKind::Lower) {
        const auto improved = rlb::sqd::solve_lower_improved(model);
        EXPECT_NEAR(improved.mean_waiting_jobs, exact.mean_waiting_jobs,
                    1e-8 * (1.0 + exact.mean_waiting_jobs));
      }
    }
  }
}

}  // namespace
