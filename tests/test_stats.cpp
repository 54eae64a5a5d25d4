#include "sim/stats.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace {

using rlb::sim::BatchMeans;
using rlb::sim::StreamingMoments;
using rlb::sim::t_quantile;
using rlb::sim::WeightedBatchMeans;

TEST(StreamingMoments, SmallSeries) {
  StreamingMoments s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingMoments, SingleValue) {
  StreamingMoments s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingMoments, NumericallyStableForShiftedData) {
  StreamingMoments s;
  const double offset = 1e9;
  for (int i = 0; i < 1000; ++i) s.add(offset + (i % 2));
  EXPECT_NEAR(s.mean(), offset + 0.5, 1e-3);
  EXPECT_NEAR(s.variance(), 0.25, 0.01);
}

TEST(BatchMeans, MeanOverBatches) {
  BatchMeans bm(2);
  for (double x : {1.0, 3.0, 5.0, 7.0}) bm.add(x);
  EXPECT_EQ(bm.completed_batches(), 2u);
  EXPECT_DOUBLE_EQ(bm.mean(), 4.0);  // batch means 2 and 6
}

TEST(BatchMeans, IncompleteBatchIgnored) {
  BatchMeans bm(3);
  bm.add(1.0);
  bm.add(2.0);
  EXPECT_EQ(bm.completed_batches(), 0u);
  EXPECT_DOUBLE_EQ(bm.half_width(0.95), 0.0);
}

TEST(BatchMeans, CoverageOnIidNormal) {
  // The 95% CI should contain the true mean ~95% of the time.
  rlb::sim::Rng rng(61);
  int covered = 0;
  const int replications = 300;
  for (int r = 0; r < replications; ++r) {
    BatchMeans bm(50);
    for (int i = 0; i < 1000; ++i) bm.add(rng.normal() + 10.0);
    if (std::abs(bm.mean() - 10.0) <= bm.half_width(0.95)) ++covered;
  }
  EXPECT_GT(covered, replications * 0.9);
  EXPECT_LE(covered, replications);
}

TEST(BatchMeans, HalfwidthShrinksWithData) {
  rlb::sim::Rng rng(67);
  BatchMeans small(100), large(100);
  for (int i = 0; i < 1000; ++i) small.add(rng.normal());
  for (int i = 0; i < 100000; ++i) large.add(rng.normal());
  EXPECT_LT(large.half_width(0.95), small.half_width(0.95));
}

TEST(StreamingMoments, MergeMatchesSingleStream) {
  rlb::sim::Rng rng(17);
  std::vector<double> xs(5000);
  for (double& x : xs) x = rng.normal() * 3.0 + 7.0;

  StreamingMoments whole;
  for (double x : xs) whole.add(x);

  // Split at an arbitrary point and merge: identical counts/extrema,
  // mean/variance equal up to floating-point reassociation.
  StreamingMoments left, right;
  for (std::size_t i = 0; i < xs.size(); ++i)
    (i < 1234 ? left : right).add(xs[i]);
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(StreamingMoments, MergeWithEmptySides) {
  StreamingMoments filled, empty;
  filled.add(1.0);
  filled.add(3.0);
  StreamingMoments a = filled;
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(filled);  // adopt
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
}

TEST(BatchMeans, MergeAtBatchBoundaryMatchesSingleStream) {
  rlb::sim::Rng rng(23);
  std::vector<double> xs(4000);
  for (double& x : xs) x = rng.normal();

  BatchMeans whole(100);
  for (double x : xs) whole.add(x);

  BatchMeans left(100), right(100);
  for (std::size_t i = 0; i < xs.size(); ++i)
    (i < 2000 ? left : right).add(xs[i]);  // split on a batch boundary
  left.merge(right);
  EXPECT_EQ(left.completed_batches(), whole.completed_batches());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.half_width(0.95), whole.half_width(0.95), 1e-12);
}

TEST(BatchMeans, MergeDropsPartialBatchesAndPoolsDf) {
  BatchMeans a(10), b(10);
  for (int i = 0; i < 25; ++i) a.add(1.0);  // 2 complete + 5 dangling
  for (int i = 0; i < 17; ++i) b.add(2.0);  // 1 complete + 7 dangling
  a.merge(b);
  EXPECT_EQ(a.completed_batches(), 3u);  // partial batches discarded
  EXPECT_NEAR(a.mean(), (1.0 + 1.0 + 2.0) / 3.0, 1e-12);
}

TEST(BatchMeans, MergeRejectsMismatchedBatchSizes) {
  BatchMeans a(10), b(20);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(TQuantile, KnownValues) {
  EXPECT_NEAR(t_quantile(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(t_quantile(0.95, 10), 2.228, 1e-3);
  EXPECT_NEAR(t_quantile(0.95, 30), 2.042, 1e-3);
  EXPECT_NEAR(t_quantile(0.95, 1000), 1.96, 1e-3);
  // The other table levels, spot-checked against standard t tables.
  EXPECT_NEAR(t_quantile(0.90, 1), 6.314, 1e-3);
  EXPECT_NEAR(t_quantile(0.90, 10), 1.812, 1e-3);
  EXPECT_NEAR(t_quantile(0.90, 1000), 1.645, 1e-3);
  EXPECT_NEAR(t_quantile(0.99, 1), 63.657, 1e-3);
  EXPECT_NEAR(t_quantile(0.99, 10), 3.169, 1e-3);
  EXPECT_NEAR(t_quantile(0.99, 1000), 2.576, 1e-3);
}

TEST(TQuantile, MonotoneDecreasingInDfAndIncreasingInConfidence) {
  for (double confidence : {0.90, 0.95, 0.99})
    for (std::uint64_t df = 1; df < 40; ++df)
      EXPECT_GE(t_quantile(confidence, df), t_quantile(confidence, df + 1));
  for (std::uint64_t df : {1ull, 5ull, 20ull, 100ull, 1000ull}) {
    EXPECT_LT(t_quantile(0.90, df), t_quantile(0.95, df));
    EXPECT_LT(t_quantile(0.95, df), t_quantile(0.99, df));
  }
}

TEST(TQuantile, RejectsUnsupportedConfidenceLevels) {
  EXPECT_THROW(t_quantile(0.5, 10), std::invalid_argument);
  EXPECT_THROW(t_quantile(0.975, 10), std::invalid_argument);
  EXPECT_THROW(t_quantile(1.0, 10), std::invalid_argument);
}

TEST(BatchMeans, HalfWidthOrderedByConfidence) {
  rlb::sim::Rng rng(91);
  BatchMeans bm(20);
  for (int i = 0; i < 2000; ++i) bm.add(rng.normal());
  EXPECT_GT(bm.half_width(0.90), 0.0);
  EXPECT_LT(bm.half_width(0.90), bm.half_width(0.95));
  EXPECT_LT(bm.half_width(0.95), bm.half_width(0.99));
}

TEST(WeightedBatchMeans, UnitWeightsMatchBatchMeans) {
  rlb::sim::Rng rng(37);
  BatchMeans plain(25);
  WeightedBatchMeans weighted(25);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal() + 3.0;
    plain.add(x);
    weighted.add(x, 1.0);
  }
  EXPECT_EQ(weighted.completed_batches(), plain.completed_batches());
  EXPECT_DOUBLE_EQ(weighted.mean(), plain.mean());
  EXPECT_DOUBLE_EQ(weighted.half_width(0.95), plain.half_width(0.95));
}

TEST(WeightedBatchMeans, BatchStatisticIsTheWeightedMean) {
  WeightedBatchMeans w(2);
  w.add(1.0, 3.0);  // batch 1: (3*1 + 1*5) / 4 = 2
  w.add(5.0, 1.0);
  w.add(10.0, 2.0);  // batch 2: (2*10 + 2*0) / 4 = 5
  w.add(0.0, 2.0);
  EXPECT_EQ(w.completed_batches(), 2u);
  EXPECT_DOUBLE_EQ(w.mean(), 3.5);
}

TEST(WeightedBatchMeans, MergeDropsPartialsAndChecksBatchSize) {
  WeightedBatchMeans a(10), b(10), c(20);
  for (int i = 0; i < 25; ++i) a.add(1.0, 1.0);  // 2 complete + partial
  for (int i = 0; i < 17; ++i) b.add(2.0, 1.0);  // 1 complete + partial
  a.merge(b);
  EXPECT_EQ(a.completed_batches(), 3u);
  EXPECT_NEAR(a.mean(), 4.0 / 3.0, 1e-12);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
  EXPECT_THROW(WeightedBatchMeans(0), std::invalid_argument);
}

}  // namespace

namespace {

using rlb::sim::ReservoirQuantiles;

TEST(ReservoirQuantiles, ExactForSmallStreams) {
  ReservoirQuantiles rq(1000);
  for (int i = 1; i <= 101; ++i) rq.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(rq.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(rq.quantile(0.5), 51.0);
  EXPECT_DOUBLE_EQ(rq.quantile(1.0), 101.0);
  EXPECT_EQ(rq.count(), 101u);
}

TEST(ReservoirQuantiles, ApproximatesLargeUniformStream) {
  ReservoirQuantiles rq(50'000, 7);
  rlb::sim::Rng rng(123);
  for (int i = 0; i < 1'000'000; ++i) rq.add(rng.next_double());
  EXPECT_NEAR(rq.quantile(0.5), 0.5, 0.01);
  EXPECT_NEAR(rq.quantile(0.95), 0.95, 0.01);
  EXPECT_NEAR(rq.quantile(0.99), 0.99, 0.01);
}

TEST(ReservoirQuantiles, ExponentialTailQuantiles) {
  ReservoirQuantiles rq(50'000, 11);
  rlb::sim::Rng rng(321);
  for (int i = 0; i < 500'000; ++i) rq.add(rng.exponential(1.0));
  // Quantiles of Exp(1): -ln(1-q).
  EXPECT_NEAR(rq.quantile(0.5), std::log(2.0), 0.02);
  EXPECT_NEAR(rq.quantile(0.95), -std::log(0.05), 0.1);
}

TEST(ReservoirQuantiles, DomainChecks) {
  ReservoirQuantiles rq(10);
  EXPECT_THROW(rq.quantile(0.5), std::invalid_argument);  // empty
  rq.add(1.0);
  EXPECT_THROW(rq.quantile(1.5), std::invalid_argument);
  EXPECT_THROW(ReservoirQuantiles(0), std::invalid_argument);
}

TEST(ReservoirQuantiles, InterleavedAddAndQuery) {
  ReservoirQuantiles rq(100, 3);
  for (int i = 0; i < 50; ++i) rq.add(i);
  const double q1 = rq.quantile(0.5);
  for (int i = 50; i < 100; ++i) rq.add(i);
  const double q2 = rq.quantile(0.5);
  EXPECT_LT(q1, q2);  // median moved right as larger values arrived
}

TEST(ReservoirQuantiles, MergeOfSmallStreamsIsExactConcatenation) {
  ReservoirQuantiles a(1000, 1), b(1000, 2);
  for (int i = 1; i <= 60; ++i) a.add(i);
  for (int i = 61; i <= 101; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.count(), 101u);
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 51.0);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 101.0);
}

TEST(ReservoirQuantiles, MergedLargeStreamsApproximateUnionQuantiles) {
  // Two uniform streams over disjoint halves of [0, 1]; the merged
  // reservoir must report quantiles of the union.
  ReservoirQuantiles a(20'000, 5), b(20'000, 6);
  rlb::sim::Rng rng(77);
  for (int i = 0; i < 300'000; ++i) a.add(rng.next_double() * 0.5);
  for (int i = 0; i < 300'000; ++i) b.add(0.5 + rng.next_double() * 0.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 600'000u);
  EXPECT_NEAR(a.quantile(0.25), 0.25, 0.02);
  EXPECT_NEAR(a.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(a.quantile(0.95), 0.95, 0.02);
}

TEST(ReservoirQuantiles, MergeWeightsUnequalStreams) {
  // 9:1 stream-length imbalance: the short stream should contribute ~10%
  // of the merged sample mass.
  ReservoirQuantiles a(10'000, 9), b(10'000, 10);
  rlb::sim::Rng rng(88);
  for (int i = 0; i < 900'000; ++i) a.add(0.0);
  for (int i = 0; i < 100'000; ++i) b.add(1.0);
  a.merge(b);
  // P(x == 1) should be ~0.1 in the merged reservoir.
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(a.quantile(0.97), 1.0);
}

TEST(ReservoirQuantiles, MergeIsDeterministic) {
  const auto build = [] {
    ReservoirQuantiles a(500, 3), b(500, 4);
    rlb::sim::Rng rng(55);
    for (int i = 0; i < 5'000; ++i) a.add(rng.next_double());
    for (int i = 0; i < 5'000; ++i) b.add(rng.next_double() + 1.0);
    a.merge(b);
    return a;
  };
  auto first = build();
  auto second = build();
  for (double q : {0.1, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(first.quantile(q), second.quantile(q));
}

TEST(ReservoirQuantiles, MergeRejectsMismatchedCapacities) {
  ReservoirQuantiles a(10), b(20);
  b.add(1.0);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

}  // namespace
