// End-to-end validation: simulate the bound-model CTMCs directly and check
// the matrix-geometric solutions against them.
#include <gtest/gtest.h>

#include "sim/bound_sim.h"
#include "sqd/bound_solver.h"

namespace {

using rlb::sim::AdaptivePlan;
using rlb::sim::simulate_bound_model;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

rlb::util::ThreadBudget& serial() { return rlb::util::ThreadBudget::serial(); }

/// One chain of `steps` steps, the first `warmup` of them discarded.
rlb::sim::BoundSimResult run_one(const BoundModel& model, std::uint64_t steps,
                                 std::uint64_t warmup, std::uint64_t seed) {
  return simulate_bound_model(
      model, AdaptivePlan::fixed(1, steps, warmup, seed), serial());
}

TEST(BoundSim, GapNeverExceedsThreshold) {
  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    const BoundModel model(Params{3, 2, 0.8, 1.0}, 2, kind);
    const auto r = run_one(model, 200'000, 10'000, 31337);
    EXPECT_LE(r.max_gap_seen, 2.0);
  }
}

TEST(BoundSim, UnitRankSpeedsReproduceHomogeneousExactly) {
  // All-ones rank speeds build the same transition rates, so the jump
  // chain consumes the RNG identically: bit-identical results, not just
  // statistically close.
  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    const BoundModel model(Params{3, 2, 0.75, 1.0}, 2, kind);
    const auto homog = run_one(model, 200'000, 10'000, 21);
    const auto hetero = simulate_bound_model(
        model, AdaptivePlan::fixed(1, 200'000, 10'000, 21), serial(),
        {1.0, 1.0, 1.0});
    EXPECT_DOUBLE_EQ(hetero.mean_waiting_jobs, homog.mean_waiting_jobs);
    EXPECT_DOUBLE_EQ(hetero.mean_jobs, homog.mean_jobs);
    EXPECT_DOUBLE_EQ(hetero.max_gap_seen, homog.max_gap_seen);
  }
}

TEST(BoundSim, HeteroGapBoundStillHolds) {
  // The redirection rules are rate-independent: S(T) confines the chain
  // for any rank-speed profile, both bound kinds.
  const std::vector<double> speeds{1.6, 1.2, 0.8, 0.4};
  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    const BoundModel model(Params{4, 2, 0.8, 1.0}, 2, kind);
    const auto r = simulate_bound_model(
        model, AdaptivePlan::fixed(1, 200'000, 10'000, 23), serial(), speeds);
    EXPECT_LE(r.max_gap_seen, 2.0);
  }
}

TEST(BoundSim, FastServiceOfLongQueuesShrinksBacklog) {
  // Speeding up the longest queues at equal total capacity strictly helps
  // the lower model's backlog.
  const BoundModel model(Params{4, 2, 0.8, 1.0}, 3, BoundKind::Lower);
  const auto homog = run_one(model, 1'000'000, 100'000, 29);
  const auto skewed = simulate_bound_model(
      model, AdaptivePlan::fixed(1, 1'000'000, 100'000, 29), serial(),
      {1.5, 1.5, 0.5, 0.5});
  EXPECT_LT(skewed.mean_waiting_jobs, 0.9 * homog.mean_waiting_jobs);
}

TEST(BoundSim, HeteroIsThreadBudgetInvariant) {
  const BoundModel model(Params{3, 2, 0.8, 1.0}, 2, BoundKind::Lower);
  const std::vector<double> speeds{1.5, 1.0, 0.5};
  const auto plan = AdaptivePlan::fixed(3, 120'000, 12'000, 31);
  const auto one = simulate_bound_model(model, plan, serial(), speeds);
  rlb::util::ThreadBudget four(4);
  const auto parallel = simulate_bound_model(model, plan, four, speeds);
  EXPECT_DOUBLE_EQ(parallel.mean_waiting_jobs, one.mean_waiting_jobs);
  EXPECT_DOUBLE_EQ(parallel.mean_jobs, one.mean_jobs);
}

TEST(BoundSim, ValidatesRankSpeeds) {
  const BoundModel model(Params{3, 2, 0.8, 1.0}, 2, BoundKind::Lower);
  const auto plan = AdaptivePlan::fixed(1, 1000, 100, 1);
  EXPECT_THROW(simulate_bound_model(model, plan, serial(), {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(simulate_bound_model(model, plan, serial(), {1.0, -1.0, 1.0}),
               std::invalid_argument);
}

TEST(BoundSim, LowerModelMatchesSolver) {
  const BoundModel model(Params{3, 2, 0.7, 1.0}, 2, BoundKind::Lower);
  const auto solved = rlb::sqd::solve_bound(model);
  const auto sim = run_one(model, 4'000'000, 400'000, 7);
  EXPECT_NEAR(sim.mean_waiting_jobs, solved.mean_waiting_jobs,
              0.03 * (1.0 + solved.mean_waiting_jobs));
  EXPECT_NEAR(sim.mean_jobs, solved.mean_jobs,
              0.03 * (1.0 + solved.mean_jobs));
}

TEST(BoundSim, UpperModelMatchesSolver) {
  const BoundModel model(Params{3, 2, 0.55, 1.0}, 2, BoundKind::Upper);
  const auto solved = rlb::sqd::solve_bound(model);
  const auto sim = run_one(model, 4'000'000, 400'000, 11);
  EXPECT_NEAR(sim.mean_waiting_jobs, solved.mean_waiting_jobs,
              0.05 * (1.0 + solved.mean_waiting_jobs));
}

TEST(BoundSim, ImprovedSolverMatchesSimulationToo) {
  const BoundModel model(Params{2, 2, 0.8, 1.0}, 2, BoundKind::Lower);
  const auto improved = rlb::sqd::solve_lower_improved(model);
  const auto sim = run_one(model, 4'000'000, 400'000, 13);
  EXPECT_NEAR(sim.mean_waiting_jobs, improved.mean_waiting_jobs,
              0.03 * (1.0 + improved.mean_waiting_jobs));
}

TEST(BoundSim, LowerBelowUpperInSimulation) {
  const Params p{3, 2, 0.6, 1.0};
  const auto plan = AdaptivePlan::fixed(1, 2'000'000, 200'000, 17);
  const auto low =
      simulate_bound_model(BoundModel(p, 2, BoundKind::Lower), plan, serial());
  const auto up =
      simulate_bound_model(BoundModel(p, 2, BoundKind::Upper), plan, serial());
  EXPECT_LT(low.mean_waiting_jobs, up.mean_waiting_jobs + 0.02);
}

TEST(BoundSim, RejectsBadWarmup) {
  const BoundModel model(Params{2, 2, 0.5, 1.0}, 1, BoundKind::Lower);
  AdaptivePlan plan = AdaptivePlan::fixed(1, 100, 0, 1);
  plan.warmup_jobs = 100;  // the whole budget
  EXPECT_THROW(simulate_bound_model(model, plan, serial()),
               std::invalid_argument);
}

}  // namespace
