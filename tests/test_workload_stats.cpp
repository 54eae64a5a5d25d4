// Statistical property tests for the realistic-workload primitives
// (ctest -L statistical): sample moments of the heavy-tailed service
// laws against their analytic values, the nonstationary arrival
// processes against their closed-form rates, the windowed statistics
// of a warm M/M/1 against the stationary sojourn law, and random routing
// over N servers (the engine's memoryless loop) against the M/M/1 closed
// forms. Deterministic —
// fixed seeds, fixed budgets — so a pass is reproducible and a failure
// is a real regression, not noise.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/arrival_process.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace {

using namespace rlb::sim;

constexpr double kTwoPi = 6.283185307179586476925286766559;

StreamingMoments sample_many(const Distribution& d, std::uint64_t seed,
                             int n) {
  Rng rng(seed);
  StreamingMoments s;
  for (int i = 0; i < n; ++i) s.add(d.sample(rng));
  return s;
}

TEST(HeavyTailMoments, ParetoMatchesAnalyticMeanAndScv) {
  // alpha = 2.5, scale derived for mean 2: scv = 1/(alpha(alpha-2)) = 0.8.
  const auto d = make_pareto_mean(2.0, 2.5);
  EXPECT_NEAR(d->mean(), 2.0, 1e-12);
  const auto s = sample_many(*d, 101, 2'000'000);
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  const double scv = s.variance() / (s.mean() * s.mean());
  // Heavy-tailed variance converges slowly; 15% at 2e6 samples is tight
  // enough to catch a wrong formula (off by alpha or by the square).
  EXPECT_NEAR(scv, 0.8, 0.15);
  // Support starts at the scale: mean * (alpha-1)/alpha = 1.2.
  EXPECT_GE(s.min(), 1.2);
}

TEST(HeavyTailMoments, ParetoScaleFormIsConsistent) {
  // make_pareto(alpha, scale): mean = alpha*scale/(alpha-1) = 3.
  const auto d = make_pareto(3.0, 2.0);
  EXPECT_NEAR(d->mean(), 3.0, 1e-12);
  const auto s = sample_many(*d, 103, 500'000);
  EXPECT_NEAR(s.mean(), 3.0, 0.03);
  EXPECT_GE(s.min(), 2.0);
}

TEST(HeavyTailMoments, LognormalMatchesMeanAndCv) {
  const auto d = make_lognormal(2.0, 1.5);
  const auto s = sample_many(*d, 107, 1'000'000);
  EXPECT_NEAR(s.mean(), 2.0, 0.04);
  EXPECT_NEAR(s.stddev() / s.mean(), 1.5, 0.05);
}

TEST(HeavyTailMoments, HyperexpFitHitsMeanAndScv) {
  const auto d = make_hyperexp_fitted(1.0, 4.0);
  EXPECT_NEAR(d->mean(), 1.0, 1e-12);
  const auto s = sample_many(*d, 109, 1'000'000);
  EXPECT_NEAR(s.mean(), 1.0, 0.01);
  EXPECT_NEAR(s.variance() / (s.mean() * s.mean()), 4.0, 0.12);
}

TEST(NonstationaryArrivals, SinusoidalPerWindowRateTracksLambdaT) {
  // Fold arrivals from many periods into phase windows and compare each
  // window's empirical rate with the integral of lambda(t) over it.
  const double lambda0 = 5.0, amp = 0.8, period = 100.0;
  SinusoidalArrivalProcess a(lambda0, amp, period);
  const int windows_per_period = 10;
  const double width = period / windows_per_period;
  const int periods = 400;
  std::vector<double> counts(windows_per_period, 0.0);
  Rng rng(223);
  double t = 0.0;
  for (;;) {
    t += a.next(rng);
    if (t >= periods * period) break;
    const auto w = static_cast<int>(std::fmod(t, period) / width);
    counts[w] += 1.0;
  }
  for (int w = 0; w < windows_per_period; ++w) {
    const double t0 = w * width, t1 = (w + 1) * width;
    // integral of lambda0 (1 + amp sin(2 pi t / T)) over [t0, t1]
    const double expected =
        periods * (lambda0 * width +
                   lambda0 * amp * (period / kTwoPi) *
                       (std::cos(kTwoPi * t0 / period) -
                        std::cos(kTwoPi * t1 / period)));
    // ~sqrt(expected) Poisson noise; 4 sigma keeps the test deterministic
    // in spirit and failure-worthy in fact.
    EXPECT_NEAR(counts[w], expected, 4.0 * std::sqrt(expected)) << w;
  }
}

TEST(NonstationaryArrivals, SinusoidalMeanRateIsLambda0) {
  SinusoidalArrivalProcess a(3.0, 0.5, 40.0);
  EXPECT_NEAR(a.mean_rate(), 3.0, 1e-12);
  Rng rng(227);
  double total_time = 0.0;
  const int n = 300'000;
  for (int i = 0; i < n; ++i) total_time += a.next(rng);
  EXPECT_NEAR(n / total_time, 3.0, 0.05);
}

TEST(WindowedMm1, WarmWindowP99MatchesStationarySojournLaw) {
  // M/M/1 at rho = 0.7: stationary sojourn ~ Exp(mu - lambda), so
  // p99 = ln(100) / (mu - lambda) and P(sojourn > tau) = e^{-(mu-lambda)
  // tau}. Warm windows (past the transient) must reproduce both.
  const double lambda = 0.7, mu = 1.0, tau = 5.0;
  ClusterConfig cfg;
  cfg.servers = 1;
  cfg.window_width = 2'000.0;
  cfg.sla_threshold = tau;
  const auto arr = make_exponential(lambda);
  RenewalArrivals arrivals(*arr);
  const auto svc = make_exponential(mu);
  SqdPolicy policy(1, 1);
  const auto res = simulate_cluster(
      cfg, policy, arrivals, *svc, AdaptivePlan::fixed(1, 400'000, 40'000, 229),
      rlb::util::ThreadBudget::serial());

  const double p99_theory = std::log(100.0) / (mu - lambda);
  ASSERT_GT(res.windows.size(), 40u);
  // Average the warm windows' p99 (skip the first 10% — the transient
  // the windowed view exists to expose).
  double p99_sum = 0.0;
  int p99_count = 0;
  for (std::size_t w = res.windows.size() / 10;
       w + 1 < res.windows.size(); ++w) {  // last window is partial
    if (res.windows[w].count == 0) continue;
    p99_sum += res.windows[w].p99_sojourn;
    ++p99_count;
  }
  ASSERT_GT(p99_count, 30);
  // Each window holds only ~lambda * width = 1400 samples, and the
  // nearest-rank p99 of so few draws from an exponential tail is biased
  // a few percent low — so the per-window average gets a wider band than
  // the whole-run estimate below.
  EXPECT_NEAR(p99_sum / p99_count, p99_theory, 0.12 * p99_theory);

  // Whole-run aggregates against the same law.
  EXPECT_NEAR(res.p99_sojourn, p99_theory, 0.05 * p99_theory);
  const double sla_theory = std::exp(-(mu - lambda) * tau);
  EXPECT_NEAR(res.sla_violation_fraction, sla_theory, 0.1 * sla_theory);
  EXPECT_NEAR(res.mean_sojourn, 1.0 / (mu - lambda), 0.07 / (mu - lambda));
}

TEST(WindowedMm1, WindowCountsMatchThroughput) {
  // Warm windows of an M/M/1 at rate lambda complete ~lambda * width jobs.
  const double lambda = 0.5;
  ClusterConfig cfg;
  cfg.servers = 1;
  cfg.window_width = 4'000.0;
  const auto arr = make_exponential(lambda);
  RenewalArrivals arrivals(*arr);
  const auto svc = make_exponential(1.0);
  SqdPolicy policy(1, 1);
  const auto res = simulate_cluster(
      cfg, policy, arrivals, *svc, AdaptivePlan::fixed(1, 200'000, 20'000, 233),
      rlb::util::ThreadBudget::serial());
  ASSERT_GT(res.windows.size(), 20u);
  const double expected = lambda * cfg.window_width;
  for (std::size_t w = 2; w + 1 < res.windows.size(); ++w)
    EXPECT_NEAR(static_cast<double>(res.windows[w].count), expected,
                5.0 * std::sqrt(expected))
        << w;
}

TEST(MemorylessMm1, RandomRoutingMatchesTheMm1ClosedForms) {
  // sq(1) sends each job to a uniform server, so under Poisson arrivals
  // at load rho and Exp(1) service each of the N servers is an M/M/1
  // queue: sojourn ~ Exp(1 - rho), wait mean rho / (1 - rho), utilization
  // rho, N rho / (1 - rho) jobs in system. The cell runs the engine's
  // memoryless loop, whose service times are read off the departure
  // clock, so every per-job output is checked, not just the mean.
  const int n = 10;
  const std::uint64_t jobs = 2'000'000;
  for (const double rho : {0.5, 0.8}) {
    SCOPED_TRACE("rho = " + std::to_string(rho));
    const double gap = 1.0 - rho;
    const double tau = 2.0 / gap;  // SLA fraction e^{-2}
    ClusterConfig cfg;
    cfg.servers = n;
    cfg.sla_threshold = tau;
    const auto arr = make_exponential(rho * n);
    RenewalArrivals arrivals(*arr);
    const auto svc = make_exponential(1.0);
    SqdPolicy policy(n, 1);
    const auto res = simulate_cluster(
        cfg, policy, arrivals, *svc,
        AdaptivePlan::fixed(1, jobs, jobs / 10, 307),
        rlb::util::ThreadBudget::serial());

    // Means within the printed 95% CI. The wait is the sojourn less a
    // service-time mean whose own error (~1e-3) the CI dwarfs.
    const double ci = res.ci95_sojourn;
    EXPECT_NEAR(res.mean_sojourn, 1.0 / gap, ci);
    EXPECT_NEAR(res.mean_wait, rho / gap, ci);
    // Time averages: by Little's law L = N rho W, so W's interval maps
    // onto L; the busy fraction of ~2e5 time units of 10 servers has a
    // standard error near 2e-3.
    EXPECT_NEAR(res.mean_jobs_in_system, n * rho / gap, n * rho * ci);
    EXPECT_NEAR(res.utilization, rho, 0.01);
    // p99 = ln(100) / (1 - rho). A reservoir of R samples puts the
    // standard error of the 0.99 quantile near sqrt(0.99 * 0.01 / R) /
    // f(p99), where the density there is 0.01 * (1 - rho); allow four.
    const double p99 = std::log(100.0) / gap;
    const double p99_se =
        std::sqrt(0.99 * 0.01 / static_cast<double>(cfg.quantile_reservoir)) /
        (0.01 * gap);
    EXPECT_NEAR(res.p99_sojourn, p99, 4.0 * p99_se);
    // P(sojourn > tau) = e^{-(1 - rho) tau}.
    EXPECT_NEAR(res.sla_violation_fraction, std::exp(-gap * tau), 0.005);
  }
}

}  // namespace
