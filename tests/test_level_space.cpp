#include "statespace/level_space.h"

#include <set>

#include <gtest/gtest.h>

namespace {

namespace ss = rlb::statespace;
using ss::LevelSpace;
using ss::State;

TEST(LevelSpace, BoundaryContainsAllIdleStates) {
  const LevelSpace space(3, 2);
  EXPECT_EQ(space.boundary_total_max(), 4);
  for (const State& m : space.boundary_states()) {
    EXPECT_LE(ss::total_jobs(m), 4);
    EXPECT_LE(ss::gap(m), 2);
  }
  // Every state with an idle server must be in the boundary: check the
  // extreme (T, T, 0) = (2, 2, 0).
  const auto loc = space.locate({2, 2, 0});
  EXPECT_TRUE(loc.boundary);
}

TEST(LevelSpace, LevelStatesHaveBusyServers) {
  for (int n : {2, 3, 6}) {
    for (int t : {1, 2, 3}) {
      const LevelSpace space(n, t);
      for (std::size_t j = 0; j < space.block_size(); ++j) {
        for (int q : {0, 1, 3}) {
          const State m = space.level_state(q, j);
          EXPECT_GE(m.back(), 1) << ss::to_string(m);
          const int tot = ss::total_jobs(m);
          EXPECT_GT(tot, space.boundary_total_max() + q * n);
          EXPECT_LE(tot, space.boundary_total_max() + (q + 1) * n);
        }
      }
    }
  }
}

TEST(LevelSpace, BlockSizeIsShapeCount) {
  const LevelSpace space(6, 3);
  EXPECT_EQ(space.block_size(), 56u);
  EXPECT_EQ(space.level0_states().size(), 56u);
}

TEST(LevelSpace, LocateRoundTrip) {
  const LevelSpace space(4, 2);
  for (int q = 0; q <= 3; ++q) {
    for (std::size_t j = 0; j < space.block_size(); ++j) {
      const State m = space.level_state(q, j);
      const auto loc = space.locate(m);
      EXPECT_FALSE(loc.boundary);
      EXPECT_EQ(loc.level, q);
      EXPECT_EQ(loc.index, j);
    }
  }
  for (std::size_t i = 0; i < space.boundary_states().size(); ++i) {
    const auto loc = space.locate(space.boundary_states()[i]);
    EXPECT_TRUE(loc.boundary);
    EXPECT_EQ(loc.index, i);
  }
}

TEST(LevelSpace, ShiftBijectionBetweenLevels) {
  const LevelSpace space(5, 2);
  for (std::size_t j = 0; j < space.block_size(); ++j) {
    const State m0 = space.level_state(0, j);
    const State m1 = space.level_state(1, j);
    State shifted = m0;
    for (int& v : shifted) v += 1;
    EXPECT_EQ(shifted, m1);
  }
}

TEST(LevelSpace, OrderingByTotalThenLex) {
  const LevelSpace space(3, 3);
  const auto& states = space.level0_states();
  for (std::size_t i = 1; i < states.size(); ++i) {
    const int prev = ss::total_jobs(states[i - 1]);
    const int cur = ss::total_jobs(states[i]);
    EXPECT_TRUE(prev < cur || (prev == cur && states[i - 1] < states[i]));
  }
}

TEST(LevelSpace, BoundaryStatesAreExactlyGapBoundedSmallTotals) {
  // Exhaustive cross-check for N = 3, T = 2: enumerate all sorted vectors
  // with total <= 4 and gap <= 2 by brute force.
  const LevelSpace space(3, 2);
  std::set<State> expected;
  for (int a = 0; a <= 4; ++a)
    for (int b = 0; b <= a; ++b)
      for (int c = 0; c <= b; ++c)
        if (a + b + c <= 4 && a - c <= 2) expected.insert({a, b, c});
  std::set<State> actual(space.boundary_states().begin(),
                         space.boundary_states().end());
  EXPECT_EQ(actual, expected);
}

TEST(LevelSpace, ContainsChecksGapAndShape) {
  const LevelSpace space(3, 2);
  EXPECT_TRUE(space.contains({3, 2, 1}));
  EXPECT_FALSE(space.contains({4, 1, 1}));   // gap 3 > 2
  EXPECT_FALSE(space.contains({1, 2, 3}));   // unsorted
  EXPECT_FALSE(space.contains({2, 1}));      // wrong arity
}

TEST(LevelSpace, LocateRejectsOutOfSpace) {
  const LevelSpace space(3, 2);
  EXPECT_THROW((void)space.locate({5, 1, 1}), std::invalid_argument);
}

TEST(LevelSpace, RequiresPositiveThreshold) {
  EXPECT_THROW(LevelSpace(3, 0), std::invalid_argument);
}

}  // namespace
