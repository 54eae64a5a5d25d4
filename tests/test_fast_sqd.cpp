#include "sim/fast_sqd.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "mm_queues.h"
#include "sim/cluster_sim.h"
#include "sqd/asymptotic.h"
#include "sqd/exact_reference.h"

namespace {

using namespace rlb::sim;
using rlb::sqd::Params;

/// One replica of `jobs` jobs (10% warmup) on the calling thread.
FastSqdResult quick(Params p, std::uint64_t jobs = 600'000) {
  FastSqdConfig cfg;
  cfg.params = p;
  return simulate_sqd_fast(cfg,
                           AdaptivePlan::fixed(1, jobs, jobs / 10, 20240612),
                           rlb::util::ThreadBudget::serial());
}

TEST(FastSqd, Mm1Case) {
  const double lambda = 0.75;
  const auto r = quick(Params{1, 1, lambda, 1.0});
  const rlb::sqd::Mm1 ref{lambda, 1.0};
  EXPECT_NEAR(r.mean_delay, ref.mean_sojourn(), 4.0 * r.ci95_delay + 0.05);
}

TEST(FastSqd, MatchesExactSmallSystem) {
  const Params p{3, 2, 0.7, 1.0};
  const auto exact = rlb::sqd::solve_exact_truncated(p, 33);
  const auto r = quick(p, 2'000'000);
  EXPECT_NEAR(r.mean_delay, exact.mean_delay, 4.0 * r.ci95_delay + 0.02);
}

TEST(FastSqd, MatchesEventDrivenSimulator) {
  // The jump-chain estimator and the full DES must agree — they simulate
  // the same system by very different mechanisms.
  const int n = 5;
  const double lambda = 0.85;
  const auto fast = quick(Params{n, 2, lambda, 1.0}, 1'500'000);
  ClusterConfig cfg;
  cfg.servers = n;
  SqdPolicy policy(n, 2);
  const auto arr = make_exponential(lambda * n);
  RenewalArrivals arrivals(*arr);
  const auto svc = make_exponential(1.0);
  const auto slow = simulate_cluster(
      cfg, policy, arrivals, *svc,
      AdaptivePlan::fixed(1, 1'500'000, 150'000, 999),
      rlb::util::ThreadBudget::serial());
  EXPECT_NEAR(fast.mean_delay, slow.mean_sojourn,
              4.0 * (fast.ci95_delay + slow.ci95_sojourn) + 0.03);
}

TEST(FastSqd, ApproachesAsymptoticForLargeN) {
  // Mitzenmacher's formula is exact as N -> infinity; N = 300 at moderate
  // load should be within a fraction of a percent.
  const double lambda = 0.75;
  const auto r = quick(Params{300, 2, lambda, 1.0}, 2'000'000);
  const double asym = rlb::sqd::asymptotic_delay(lambda, 2);
  EXPECT_NEAR(r.mean_delay, asym, 0.01 * asym + 4.0 * r.ci95_delay);
}

TEST(FastSqd, FiniteNDelayExceedsAsymptotic) {
  // Figure 9/10 direction: small N delays are HIGHER than the asymptotic
  // prediction, especially at high utilization.
  const double lambda = 0.95;
  const auto r = quick(Params{3, 2, lambda, 1.0}, 3'000'000);
  EXPECT_GT(r.mean_delay, rlb::sqd::asymptotic_delay(lambda, 2));
}

TEST(FastSqd, WaitIsDelayMinusService) {
  const auto r = quick(Params{4, 2, 0.6, 1.0});
  EXPECT_NEAR(r.mean_wait, r.mean_delay - 1.0, 1e-12);
  EXPECT_NEAR(r.mean_queue_seen + 1.0, r.mean_delay, 1e-12);
}

TEST(FastSqd, Reproducible) {
  const auto a = quick(Params{4, 2, 0.8, 1.0}, 100'000);
  const auto b = quick(Params{4, 2, 0.8, 1.0}, 100'000);
  EXPECT_DOUBLE_EQ(a.mean_delay, b.mean_delay);
}

TEST(FastSqd, MeasuresRequestedJobs) {
  const auto r = quick(Params{2, 1, 0.5, 1.0}, 100'000);
  EXPECT_EQ(r.jobs_measured, 100'000u - 10'000u);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(FastSqd, ForwarderRunsTheFixedPlanFromItsConfig) {
  // The plan-less forwarder is the plan entry on AdaptivePlan::fixed of
  // cfg's budget fields, with the stopping report left default.
  FastSqdConfig cfg;
  cfg.params = Params{4, 2, 0.8, 1.0};
  cfg.jobs = 90'000;
  cfg.warmup = 9'000;
  cfg.seed = 31;
  cfg.replicas = 3;
  cfg.tail_kmax = 4;
  rlb::util::ThreadBudget budget(2);
  const auto forwarded = simulate_sqd_fast(cfg, budget);
  const auto planned = simulate_sqd_fast(
      cfg, AdaptivePlan::fixed(3, 90'000, 9'000, 31), budget);
  EXPECT_TRUE(same_bits(forwarded.mean_delay, planned.mean_delay));
  EXPECT_TRUE(same_bits(forwarded.mean_wait, planned.mean_wait));
  EXPECT_TRUE(same_bits(forwarded.ci95_delay, planned.ci95_delay));
  EXPECT_TRUE(same_bits(forwarded.mean_queue_seen, planned.mean_queue_seen));
  EXPECT_EQ(forwarded.jobs_measured, planned.jobs_measured);
  ASSERT_EQ(forwarded.marginal_tail.size(), planned.marginal_tail.size());
  for (std::size_t k = 0; k < planned.marginal_tail.size(); ++k)
    EXPECT_TRUE(same_bits(forwarded.marginal_tail[k],
                          planned.marginal_tail[k]))
        << k;
  EXPECT_EQ(planned.adaptive.rounds, 1);
  EXPECT_EQ(forwarded.adaptive.rounds, 0);
  EXPECT_EQ(forwarded.adaptive.jobs_used, 0u);
  EXPECT_EQ(forwarded.adaptive.half_width, 0.0);
  EXPECT_FALSE(forwarded.adaptive.converged);
}

}  // namespace
