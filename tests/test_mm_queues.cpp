#include "mm_queues.h"

#include <gtest/gtest.h>

namespace {

using rlb::sqd::Mm1;
using rlb::sqd::Mmc;

TEST(Mm1, ClassicValues) {
  const Mm1 q{0.5, 1.0};
  EXPECT_DOUBLE_EQ(q.rho(), 0.5);
  EXPECT_DOUBLE_EQ(q.mean_jobs(), 1.0);
  EXPECT_DOUBLE_EQ(q.mean_waiting_jobs(), 0.5);
  EXPECT_DOUBLE_EQ(q.mean_sojourn(), 2.0);
  EXPECT_DOUBLE_EQ(q.mean_wait(), 1.0);
}

TEST(Mm1, LittleLawConsistency) {
  for (double lambda : {0.1, 0.5, 0.9}) {
    const Mm1 q{lambda, 1.0};
    EXPECT_NEAR(q.mean_jobs(), lambda * q.mean_sojourn(), 1e-12);
    EXPECT_NEAR(q.mean_waiting_jobs(), lambda * q.mean_wait(), 1e-12);
  }
}

TEST(Mm1, GeometricDistribution) {
  const Mm1 q{0.7, 1.0};
  double total = 0.0;
  for (int n = 0; n < 200; ++n) total += q.prob_jobs(n);
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(q.prob_jobs(1) / q.prob_jobs(0), 0.7, 1e-12);
}

TEST(Mm1, UnstableThrows) {
  const Mm1 q{1.2, 1.0};
  EXPECT_THROW((void)q.mean_jobs(), std::invalid_argument);
}

TEST(Mmc, SingleServerReducesToMm1) {
  const Mm1 ref{0.8, 1.0};
  const Mmc q{0.8, 1.0, 1};
  EXPECT_NEAR(q.mean_waiting_jobs(), ref.mean_waiting_jobs(), 1e-12);
  EXPECT_NEAR(q.mean_sojourn(), ref.mean_sojourn(), 1e-12);
  // Erlang C for c=1 is just rho.
  EXPECT_NEAR(q.erlang_c(), 0.8, 1e-12);
}

TEST(Mmc, KnownErlangCValue) {
  // Textbook example: c = 2, lambda = 1.5, mu = 1 (rho = 0.75):
  // C = (a^c / c!) / ((1-rho) sum + ...) = 0.6428571...
  const Mmc q{1.5, 1.0, 2};
  EXPECT_NEAR(q.erlang_c(), 0.6428571428571429, 1e-12);
}

TEST(Mmc, ManyServersLowLoadNoWait) {
  const Mmc q{0.5, 1.0, 50};
  EXPECT_LT(q.erlang_c(), 1e-10);
  EXPECT_NEAR(q.mean_sojourn(), 1.0, 1e-9);
}

TEST(Mmc, LittleLawConsistency) {
  const Mmc q{4.0, 1.0, 6};
  EXPECT_NEAR(q.mean_jobs(), q.mean_waiting_jobs() + 4.0, 1e-12);
  EXPECT_NEAR(q.mean_wait() * 4.0, q.mean_waiting_jobs(), 1e-12);
}

}  // namespace
