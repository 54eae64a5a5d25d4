#include "statespace/shapes.h"

#include <set>

#include <gtest/gtest.h>

#include "util/combinatorics.h"

namespace {

namespace ss = rlb::statespace;
using ss::State;

TEST(Shapes, CountMatchesBinomialFormula) {
  for (int n = 1; n <= 12; ++n) {
    for (int t = 0; t <= 4; ++t) {
      const auto shapes = ss::enumerate_shapes(n, t);
      EXPECT_EQ(shapes.size(), ss::shape_count(n, t)) << n << ' ' << t;
      EXPECT_EQ(shapes.size(), rlb::util::binomial_u64(n + t - 1, t));
    }
  }
}

TEST(Shapes, PaperBlockSizes) {
  // Figure 10 configurations.
  EXPECT_EQ(ss::shape_count(3, 2), 6u);    // C(4,2)
  EXPECT_EQ(ss::shape_count(3, 3), 10u);   // C(5,3)
  EXPECT_EQ(ss::shape_count(6, 3), 56u);   // C(8,3)
  EXPECT_EQ(ss::shape_count(12, 3), 364u); // C(14,3)
}

TEST(Shapes, AllValidAndDistinct) {
  const auto shapes = ss::enumerate_shapes(5, 3);
  std::set<State> seen;
  for (const State& s : shapes) {
    EXPECT_TRUE(ss::is_valid_state(s));
    EXPECT_EQ(s.back(), 0);
    EXPECT_LE(s.front(), 3);
    EXPECT_EQ(s.size(), 5u);
    EXPECT_TRUE(seen.insert(s).second) << "duplicate shape";
  }
}

TEST(Shapes, SingleServer) {
  const auto shapes = ss::enumerate_shapes(1, 5);
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0], (State{0}));
}

TEST(Shapes, ZeroThreshold) {
  const auto shapes = ss::enumerate_shapes(4, 0);
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0], (State{0, 0, 0, 0}));
}

}  // namespace
