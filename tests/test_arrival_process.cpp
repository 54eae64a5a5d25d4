#include "sim/arrival_process.h"

#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "sim/cluster_sim.h"
#include "sim/stats.h"

namespace {

using namespace rlb::sim;

TEST(RenewalArrivals, MatchesDistribution) {
  const auto d = make_exponential(2.0);
  RenewalArrivals a(*d);
  EXPECT_NEAR(a.mean_rate(), 2.0, 1e-12);
  Rng rng(1);
  StreamingMoments s;
  for (int i = 0; i < 200000; ++i) s.add(a.next(rng));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(MmppArrivals, MeanRateMatchesTheory) {
  // Phases at rates 3 and 1, switching 0.5 / 1.5: p1 = 1.5/2 = 0.75.
  MmppArrivals a(3.0, 1.0, 0.5, 1.5);
  EXPECT_NEAR(a.mean_rate(), 0.75 * 3.0 + 0.25 * 1.0, 1e-12);
  Rng rng(3);
  double total_time = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) total_time += a.next(rng);
  EXPECT_NEAR(n / total_time, a.mean_rate(), 0.02 * a.mean_rate());
}

TEST(MmppArrivals, BurstyFactoryHitsMeanRate) {
  for (double factor : {1.5, 3.0, 5.0}) {
    MmppArrivals a = MmppArrivals::bursty(2.0, factor, 10.0);
    EXPECT_NEAR(a.mean_rate(), 2.0, 1e-9) << factor;
    Rng rng(7);
    double total_time = 0.0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) total_time += a.next(rng);
    EXPECT_NEAR(n / total_time, 2.0, 0.05) << factor;
  }
}

TEST(MmppArrivals, InterarrivalsPositivelyCorrelated) {
  // Burstiness means gap lengths cluster by phase: lag-1 autocorrelation
  // > 0, unlike any renewal process. Use a moderate burst factor so BOTH
  // phases generate arrivals (an on/off process with a silent phase has
  // isolated long gaps and hence negative lag-1 correlation).
  MmppArrivals a = MmppArrivals::bursty(1.0, 1.8, 50.0);
  Rng rng(11);
  const int n = 300000;
  std::vector<double> gaps(n);
  for (auto& g : gaps) g = a.next(rng);
  double mean = 0.0;
  for (double g : gaps) mean += g;
  mean /= n;
  double cov = 0.0, var = 0.0;
  for (int i = 0; i + 1 < n; ++i) {
    cov += (gaps[i] - mean) * (gaps[i + 1] - mean);
    var += (gaps[i] - mean) * (gaps[i] - mean);
  }
  EXPECT_GT(cov / var, 0.05);
}

TEST(MmppArrivals, DegenerateSymmetricIsPoissonLike) {
  // Equal phase rates make the modulation invisible.
  MmppArrivals a(2.0, 2.0, 1.0, 1.0);
  Rng rng(13);
  StreamingMoments s;
  for (int i = 0; i < 200000; ++i) s.add(a.next(rng));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.stddev() / s.mean(), 1.0, 0.02);  // CV of exponential
}

TEST(MmppArrivals, ClusterDelayExceedsPoissonAtEqualRate) {
  // The paper's future-work motivation: MAP burstiness inflates delay
  // beyond what any Poisson model predicts.
  const int n = 4;
  const double rho = 0.8;
  ClusterConfig cfg;
  cfg.servers = n;
  const auto plan = AdaptivePlan::fixed(1, 400'000, 40'000, 17);
  auto& serial = rlb::util::ThreadBudget::serial();
  const auto svc = make_exponential(1.0);

  SqdPolicy policy(n, 2);
  const auto arr_poisson = make_exponential(rho * n);
  RenewalArrivals poisson(*arr_poisson);
  const auto base = simulate_cluster(cfg, policy, poisson, *svc, plan, serial);

  MmppArrivals bursty = MmppArrivals::bursty(rho * n, 4.0, 25.0);
  const auto modulated =
      simulate_cluster(cfg, policy, bursty, *svc, plan, serial);

  EXPECT_GT(modulated.mean_sojourn, 1.3 * base.mean_sojourn);
}

TEST(MmppArrivals, ValidatesParameters) {
  EXPECT_THROW(MmppArrivals(0.0, 0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(MmppArrivals(1.0, 1.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(MmppArrivals::bursty(1.0, 0.5, 1.0), std::invalid_argument);
}

TEST(MmppArrivals, ResetReturnsToInitialPhase) {
  MmppArrivals a = MmppArrivals::bursty(1.0, 5.0, 100.0);
  Rng rng1(23), rng2(23);
  std::vector<double> first;
  for (int i = 0; i < 50; ++i) first.push_back(a.next(rng1));
  a.reset();
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a.next(rng2), first[i]);
}

TEST(BatchArrivalProcess, PreservesMeanRate) {
  // Base rate lambda / b with mean batch b keeps the job rate at lambda:
  // the batch_arrivals scenario's equal-load construction.
  const double lambda = 2.0;
  for (double b : {1.0, 2.0, 5.0}) {
    for (auto sizes : {BatchArrivalProcess::BatchSizes::Geometric,
                       BatchArrivalProcess::BatchSizes::Fixed}) {
      if (sizes == BatchArrivalProcess::BatchSizes::Fixed &&
          b != std::floor(b))
        continue;
      const auto base = make_exponential(lambda / b);
      BatchArrivalProcess a(std::make_unique<RenewalArrivals>(*base), b,
                            sizes);
      EXPECT_NEAR(a.mean_rate(), lambda, 1e-12);
      Rng rng(29);
      double total_time = 0.0;
      const int n = 400000;
      for (int i = 0; i < n; ++i) total_time += a.next(rng);
      EXPECT_NEAR(n / total_time, lambda, 0.05 * lambda) << b;
    }
  }
}

TEST(BatchArrivalProcess, FixedBatchOfOneReproducesBaseStream) {
  // Degenerate batch size 1 draws nothing extra: bit-identical gaps.
  const auto base = make_exponential(3.0);
  RenewalArrivals plain(*base);
  BatchArrivalProcess batched(std::make_unique<RenewalArrivals>(*base), 1.0,
                              BatchArrivalProcess::BatchSizes::Fixed);
  Rng rng1(31), rng2(31);
  for (int i = 0; i < 1000; ++i)
    EXPECT_DOUBLE_EQ(batched.next(rng1), plain.next(rng2));
}

TEST(BatchArrivalProcess, FixedBatchesArriveTogether) {
  const auto base = make_exponential(1.0);
  BatchArrivalProcess a(std::make_unique<RenewalArrivals>(*base), 4.0,
                        BatchArrivalProcess::BatchSizes::Fixed);
  Rng rng(37);
  for (int epoch = 0; epoch < 100; ++epoch) {
    EXPECT_GT(a.next(rng), 0.0);  // the batch's first job ends the gap
    for (int j = 0; j < 3; ++j) EXPECT_EQ(a.next(rng), 0.0);
  }
}

TEST(BatchArrivalProcess, GeometricBatchSizesHaveRequestedMean) {
  const auto base = make_deterministic(1.0);
  BatchArrivalProcess a(std::make_unique<RenewalArrivals>(*base), 3.0,
                        BatchArrivalProcess::BatchSizes::Geometric);
  Rng rng(41);
  // Jobs per unit time = mean batch size when the base gap is exactly 1.
  const int epochs = 200000;
  std::uint64_t jobs = 0;
  double time = 0.0;
  while (time < epochs) {
    time += a.next(rng);
    ++jobs;
  }
  EXPECT_NEAR(static_cast<double>(jobs) / epochs, 3.0, 0.05);
}

TEST(BatchArrivalProcess, CloneCopiesMidBatchState) {
  const auto base = make_deterministic(1.0);
  BatchArrivalProcess a(std::make_unique<RenewalArrivals>(*base), 4.0,
                        BatchArrivalProcess::BatchSizes::Fixed);
  Rng rng(43);
  EXPECT_GT(a.next(rng), 0.0);  // open a batch of 4, 3 jobs remaining
  const auto clone = a.clone();
  Rng rng1(47), rng2(47);
  for (int i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(a.next(rng1), clone->next(rng2));
}

TEST(BatchArrivalProcess, ResetClearsPendingBatch) {
  const auto base = make_deterministic(1.0);
  BatchArrivalProcess a(std::make_unique<RenewalArrivals>(*base), 4.0,
                        BatchArrivalProcess::BatchSizes::Fixed);
  Rng rng(53);
  EXPECT_GT(a.next(rng), 0.0);
  a.reset();
  EXPECT_GT(a.next(rng), 0.0);  // a fresh epoch, not a leftover zero gap
}

TEST(BatchArrivalProcess, ValidatesParameters) {
  const auto base = make_exponential(1.0);
  EXPECT_THROW(BatchArrivalProcess(nullptr, 2.0), std::invalid_argument);
  EXPECT_THROW(BatchArrivalProcess(std::make_unique<RenewalArrivals>(*base),
                                   0.5),
               std::invalid_argument);
  EXPECT_THROW(BatchArrivalProcess(std::make_unique<RenewalArrivals>(*base),
                                   2.5,
                                   BatchArrivalProcess::BatchSizes::Fixed),
               std::invalid_argument);
}

TEST(BatchArrivalProcess, NameDescribesTheCompound) {
  const auto base = make_exponential(1.0);
  BatchArrivalProcess a(std::make_unique<RenewalArrivals>(*base), 4.0,
                        BatchArrivalProcess::BatchSizes::Geometric);
  EXPECT_EQ(a.name(), "batch(geom,4)/renewal(exp)");
}

}  // namespace
