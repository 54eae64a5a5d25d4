#include "sim/windowed_stats.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace {

using namespace rlb::sim;

TEST(WindowedMoments, BucketsByTime) {
  WindowedMoments wm(10.0);
  wm.add(0.0, 1.0);
  wm.add(9.999, 3.0);
  wm.add(10.0, 5.0);   // exactly on the edge: belongs to window 1
  wm.add(25.0, 7.0);
  ASSERT_EQ(wm.windows(), 3u);
  EXPECT_EQ(wm.count(0), 2u);
  EXPECT_DOUBLE_EQ(wm.mean(0), 2.0);
  EXPECT_EQ(wm.count(1), 1u);
  EXPECT_DOUBLE_EQ(wm.mean(1), 5.0);
  EXPECT_EQ(wm.count(2), 1u);
  EXPECT_DOUBLE_EQ(wm.window_start(2), 20.0);
}

TEST(WindowedMoments, UntouchedWindowsAreEmpty) {
  WindowedMoments wm(1.0);
  wm.add(5.5, 2.0);
  ASSERT_EQ(wm.windows(), 6u);
  for (std::size_t w = 0; w < 5; ++w) EXPECT_EQ(wm.count(w), 0u) << w;
  EXPECT_EQ(wm.count(5), 1u);
}

TEST(WindowedMoments, MergeMatchesSingleStream) {
  WindowedMoments a(2.0), b(2.0), all(2.0);
  const std::vector<std::pair<double, double>> obs{
      {0.5, 1.0}, {1.5, 2.0}, {2.5, 3.0}, {5.0, 4.0}, {7.5, 5.0}};
  for (std::size_t i = 0; i < obs.size(); ++i) {
    all.add(obs[i].first, obs[i].second);
    (i % 2 == 0 ? a : b).add(obs[i].first, obs[i].second);
  }
  a.merge(b);
  ASSERT_EQ(a.windows(), all.windows());
  for (std::size_t w = 0; w < all.windows(); ++w) {
    EXPECT_EQ(a.count(w), all.count(w)) << w;
    if (all.count(w) > 0) {
      EXPECT_DOUBLE_EQ(a.mean(w), all.mean(w)) << w;
    }
  }
}

TEST(WindowedMoments, MergeIsOrderInsensitive) {
  // Integer-valued observations keep every sum exactly representable, so
  // merge order-insensitivity is bit-exact, not just approximate.
  const auto build = [](std::uint64_t salt) {
    WindowedMoments wm(4.0);
    for (std::uint64_t i = 0; i < 50; ++i)
      wm.add(static_cast<double>((i * 7 + salt) % 32),
             static_cast<double>((i * 13 + salt) % 11));
    return wm;
  };
  WindowedMoments ab = build(1), ba = build(2);
  const WindowedMoments a = build(1), b = build(2);
  ab = a;
  ab.merge(b);
  ba = b;
  ba.merge(a);
  ASSERT_EQ(ab.windows(), ba.windows());
  for (std::size_t w = 0; w < ab.windows(); ++w) {
    EXPECT_EQ(ab.count(w), ba.count(w)) << w;
    if (ab.count(w) == 0) continue;
    EXPECT_EQ(ab.mean(w), ba.mean(w)) << w;
    EXPECT_EQ(ab.window(w).min(), ba.window(w).min()) << w;
    EXPECT_EQ(ab.window(w).max(), ba.window(w).max()) << w;
  }
}

TEST(WindowedMoments, MergeGrowsToTheLongerRun) {
  WindowedMoments a(1.0), b(1.0);
  a.add(0.5, 1.0);
  b.add(4.5, 2.0);
  a.merge(b);
  ASSERT_EQ(a.windows(), 5u);
  EXPECT_EQ(a.count(4), 1u);
}

TEST(WindowedMoments, Validates) {
  EXPECT_THROW(WindowedMoments(0.0), std::invalid_argument);
  EXPECT_THROW(WindowedMoments(-1.0), std::invalid_argument);
  WindowedMoments wm(1.0);
  EXPECT_THROW(wm.add(-0.5, 1.0), std::invalid_argument);
  EXPECT_THROW((void)wm.window(0), std::invalid_argument);
  WindowedMoments other(2.0);
  EXPECT_THROW(wm.merge(other), std::invalid_argument);
}

TEST(WindowedQuantiles, ExactWhileSamplesFit) {
  WindowedQuantiles wq(10.0, 100, 7);
  for (int i = 0; i < 100; ++i)
    wq.add(5.0, static_cast<double>(i));       // window 0: 0..99
  for (int i = 0; i < 50; ++i)
    wq.add(15.0, static_cast<double>(10 * i));  // window 1: 0..490
  EXPECT_EQ(wq.count(0), 100u);
  EXPECT_DOUBLE_EQ(wq.quantile(0, 0.5), 50.0);  // rank round(q*(n-1))
  EXPECT_DOUBLE_EQ(wq.quantile(0, 0.99), 98.0);
  EXPECT_DOUBLE_EQ(wq.quantile(1, 1.0), 490.0);
}

TEST(WindowedQuantiles, SeedingIsIndependentOfTouchOrder) {
  // Window k's reservoir seeds from (seed, k), never from which window
  // was touched first: filling windows in different orders gives
  // bit-identical reservoirs.
  WindowedQuantiles fwd(1.0, 8, 99), rev(1.0, 8, 99);
  for (int w = 0; w < 4; ++w)
    for (int i = 0; i < 100; ++i)
      fwd.add(w + 0.5, w * 1000.0 + i);
  for (int w = 3; w >= 0; --w)
    for (int i = 0; i < 100; ++i)
      rev.add(w + 0.5, w * 1000.0 + i);
  ASSERT_EQ(fwd.windows(), rev.windows());
  for (std::size_t w = 0; w < fwd.windows(); ++w)
    for (double q : {0.1, 0.5, 0.9, 0.99})
      EXPECT_EQ(fwd.quantile(w, q), rev.quantile(w, q)) << w << " " << q;
}

TEST(WindowedQuantiles, MergeMatchesSingleStreamWhileExact) {
  WindowedQuantiles a(5.0, 1000, 3), b(5.0, 1000, 3), all(5.0, 1000, 3);
  for (int i = 0; i < 200; ++i) {
    const double t = (i % 3) * 5.0 + 1.0;
    const double x = static_cast<double>(i);
    all.add(t, x);
    (i % 2 == 0 ? a : b).add(t, x);
  }
  a.merge(b);
  ASSERT_EQ(a.windows(), all.windows());
  for (std::size_t w = 0; w < all.windows(); ++w) {
    EXPECT_EQ(a.count(w), all.count(w)) << w;
    for (double q : {0.25, 0.5, 0.95})
      EXPECT_DOUBLE_EQ(a.quantile(w, q), all.quantile(w, q)) << w;
  }
}

TEST(WindowedQuantiles, Validates) {
  EXPECT_THROW(WindowedQuantiles(0.0, 10, 1), std::invalid_argument);
  EXPECT_THROW(WindowedQuantiles(1.0, 0, 1), std::invalid_argument);
  WindowedQuantiles wq(1.0, 10, 1);
  EXPECT_THROW((void)wq.quantile(0, 0.5), std::invalid_argument);
  WindowedQuantiles narrow(2.0, 10, 1), small(1.0, 5, 1);
  EXPECT_THROW(wq.merge(narrow), std::invalid_argument);
  EXPECT_THROW(wq.merge(small), std::invalid_argument);
}

}  // namespace
