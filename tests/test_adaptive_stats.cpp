// Statistical correctness of the adaptive (--target-ci) machinery: the
// confidence intervals the sequential-stopping runs certify must COVER.
//
// Strategy: run many independent seeded adaptive cells of a model with a
// closed-form answer — SQ(1) with N = 1 is exactly M/M/1, so the fast
// jump-chain simulator's mean delay has the textbook value 1/(mu(1-rho))
// and the bound model's mean waiting jobs under Poisson arrivals is
// rho^2/(1-rho) — and
// count how often the certified interval [mean ± half_width] contains
// the truth. The empirical coverage must sit in a tolerance band around
// the nominal confidence level. Everything is seeded, so the suite is
// deterministic; it is merely slower than the unit tests, hence the
// `statistical` CTest label (CMakeLists.txt) and its own CI step.
//
// The bands are deliberately one-sided-loose downward: batch-means
// intervals are approximate (autocorrelation, df pooling) and sequential
// stopping peeks at the data, both of which shave a little coverage.
// What the suite must catch is a broken pooling formula or a round loop
// that stops on fantasy intervals — failures that crater coverage far
// below any band here.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include <gtest/gtest.h>

#include "mm_queues.h"
#include "sim/distributions.h"
#include "sim/fast_sqd.h"
#include "sim/gi_bound_sim.h"
#include "sim/replica.h"
#include "sqd/bound_model.h"
#include "util/thread_budget.h"

namespace {

using rlb::sim::AdaptivePlan;
using rlb::util::ThreadBudget;

constexpr double kRho = 0.7;
constexpr int kCells = 80;

/// The adaptive plan one coverage cell runs: small rounds, room to grow,
/// a fixed absolute warmup well past the M/M/1 mixing time at rho = 0.7.
AdaptivePlan coverage_plan(double target, double confidence,
                           std::uint64_t seed) {
  AdaptivePlan plan;
  plan.replicas = 2;
  plan.target_ci = target;
  plan.confidence = confidence;
  plan.initial_jobs = 8'000;
  plan.max_jobs = 64 * 8'000;
  plan.warmup_jobs = 500;
  plan.base_seed = seed;
  return plan;
}

/// Fraction of `kCells` independent adaptive M/M/1 cells whose certified
/// interval covers the exact mean sojourn time. Cells that cap out
/// un-converged still report an honest half-width and count like any
/// other (their interval is just wider).
double mm1_coverage(double confidence) {
  const rlb::sqd::Mm1 exact{kRho, 1.0};
  int covered = 0;
  for (int cell = 0; cell < kCells; ++cell) {
    rlb::sim::FastSqdConfig cfg;
    cfg.params = {1, 1, kRho, 1.0};  // SQ(1), N = 1: exactly M/M/1
    const auto seed = static_cast<std::uint64_t>(1000 + 7 * cell);
    const auto res = rlb::sim::simulate_sqd_fast(
        cfg, coverage_plan(0.08, confidence, seed),
        ThreadBudget::serial());
    if (std::abs(res.mean_delay - exact.mean_sojourn()) <=
        res.adaptive.half_width)
      ++covered;
  }
  const double coverage = static_cast<double>(covered) / kCells;
  // Realized value in the log: band failures are easier to diagnose
  // with the number in hand, and drift toward a band edge is visible
  // before it fails.
  std::cout << "[coverage] nominal " << confidence << " -> empirical "
            << coverage << " over " << kCells << " cells\n";
  return coverage;
}

TEST(AdaptiveCoverage, Mm1MeanDelayAtNominal90) {
  const double coverage = mm1_coverage(0.90);
  EXPECT_GE(coverage, 0.75) << "90% CIs cover far too rarely";
  EXPECT_LE(coverage, 1.00);
}

TEST(AdaptiveCoverage, Mm1MeanDelayAtNominal95) {
  const double coverage = mm1_coverage(0.95);
  EXPECT_GE(coverage, 0.82) << "95% CIs cover far too rarely";
  EXPECT_LE(coverage, 1.00);
}

TEST(AdaptiveCoverage, Mm1MeanDelayAtNominal99) {
  const double coverage = mm1_coverage(0.99);
  EXPECT_GE(coverage, 0.90) << "99% CIs cover far too rarely";
  EXPECT_LE(coverage, 1.00);
}

TEST(AdaptiveCoverage, BoundCtmcWaitingJobsAtNominal95) {
  // Same experiment through the OTHER CI machinery: the bound-model
  // simulator tracks its waiting-jobs time average with time-weighted
  // batch means (WeightedBatchMeans). With Poisson arrivals the lower
  // bound model at N = 1 collapses to M/M/1, whose mean queue length is
  // rho^2 / (1 - rho).
  const rlb::sqd::Mm1 exact{kRho, 1.0};
  const rlb::sqd::BoundModel model(rlb::sqd::Params{1, 1, kRho, 1.0}, 2,
                                   rlb::sqd::BoundKind::Lower);
  const auto interarrival = rlb::sim::make_exponential(kRho);
  int covered = 0;
  constexpr int kCtmcCells = 40;  // events cost more than jumps
  for (int cell = 0; cell < kCtmcCells; ++cell) {
    const auto seed = static_cast<std::uint64_t>(9000 + 13 * cell);
    const auto res = rlb::sim::simulate_gi_lower_bound(
        model, *interarrival, coverage_plan(0.10, 0.95, seed),
        ThreadBudget::serial());
    if (std::abs(res.mean_waiting_jobs - exact.mean_waiting_jobs()) <=
        res.adaptive.half_width)
      ++covered;
  }
  const double coverage = static_cast<double>(covered) / kCtmcCells;
  EXPECT_GE(coverage, 0.80);
  EXPECT_LE(coverage, 1.00);
}

TEST(AdaptiveCoverage, IntervalsAreNotVacuouslyWide) {
  // Coverage bands alone could be gamed by infinite intervals; pin the
  // other side: converged cells certify at most the requested target.
  const auto res = rlb::sim::simulate_sqd_fast(
      [] {
        rlb::sim::FastSqdConfig cfg;
        cfg.params = {1, 1, kRho, 1.0};
        return cfg;
      }(),
      coverage_plan(0.08, 0.95, 424'242),
      ThreadBudget::serial());
  ASSERT_TRUE(res.adaptive.converged);
  EXPECT_LE(res.adaptive.half_width, 0.08);
  EXPECT_GT(res.adaptive.half_width, 0.0);
}

}  // namespace
