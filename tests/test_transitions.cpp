#include "sqd/transitions.h"

#include <gtest/gtest.h>

#include "statespace/shapes.h"

namespace {

namespace ss = rlb::statespace;
using rlb::sqd::arrival_group_probability;
using rlb::sqd::arrival_transitions;
using rlb::sqd::departure_transitions;
using rlb::sqd::Params;
using ss::State;

double total_rate(const std::vector<rlb::sqd::Transition>& ts) {
  double s = 0.0;
  for (const auto& t : ts) s += t.rate;
  return s;
}

TEST(Transitions, ArrivalRatesSumToLambdaN) {
  for (int n : {2, 3, 5, 8}) {
    for (int d = 1; d <= n; ++d) {
      const Params p{n, d, 0.7, 1.0};
      // Try several states with different tie structures.
      std::vector<State> states;
      states.push_back(State(n, 0));
      states.push_back(State(n, 2));
      State distinct(n);
      for (int i = 0; i < n; ++i) distinct[i] = n - i;
      states.push_back(distinct);
      for (const State& m : states) {
        EXPECT_NEAR(total_rate(arrival_transitions(m, p)),
                    p.total_arrival_rate(), 1e-10)
            << ss::to_string(m) << " d=" << d;
      }
    }
  }
}

TEST(Transitions, DistinctStateRatesMatchPaperFormula) {
  // All distinct: m = (3, 2, 1); paper: rate to m + e_i is
  // C(i-1, d-1)/C(N, d) * lambda*N for i >= d (1-based).
  const Params p{3, 2, 0.5, 1.0};
  const State m{3, 2, 1};
  const auto ts = arrival_transitions(m, p);
  // C(3,2) = 3; i=2: C(1,1)=1 -> 1/3; i=3: C(2,1)=2 -> 2/3. i=1: zero.
  ASSERT_EQ(ts.size(), 2u);
  double rate_e2 = 0.0, rate_e3 = 0.0;
  for (const auto& t : ts) {
    if (t.to == State{3, 3, 1}) rate_e2 = t.rate;
    if (t.to == State{3, 2, 2}) rate_e3 = t.rate;
  }
  EXPECT_NEAR(rate_e2, 1.0 / 3.0 * 1.5, 1e-12);
  EXPECT_NEAR(rate_e3, 2.0 / 3.0 * 1.5, 1e-12);
}

TEST(Transitions, TieGroupArrivalEntersHead) {
  // m = (2, 1, 1): arrivals into the tied group must produce (2, 2, 1).
  const Params p{3, 2, 0.5, 1.0};
  const State m{2, 1, 1};
  const auto ts = arrival_transitions(m, p);
  bool found = false;
  for (const auto& t : ts) {
    EXPECT_NE(t.to, (State{2, 1, 2}));  // never an unsorted/tail arrival
    if (t.to == State{2, 2, 1}) {
      found = true;
      // Group [2..3] 1-based: (C(3,2) - C(1,2))/C(3,2) = 3/3 = 1... minus
      // nothing: C(1,2) = 0, so probability 1 of joining the tied pair.
      EXPECT_NEAR(t.rate, p.total_arrival_rate(), 1e-12);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Transitions, JsqSendsEverythingToShortest) {
  const Params p{4, 4, 0.9, 1.0};
  const State m{5, 4, 2, 1};
  const auto ts = arrival_transitions(m, p);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].to, (State{5, 4, 2, 2}));
  EXPECT_NEAR(ts[0].rate, p.total_arrival_rate(), 1e-12);
}

TEST(Transitions, RandomRoutingIsUniform) {
  const Params p{4, 1, 0.6, 1.0};
  const State m{4, 3, 2, 1};
  const auto ts = arrival_transitions(m, p);
  ASSERT_EQ(ts.size(), 4u);
  for (const auto& t : ts)
    EXPECT_NEAR(t.rate, p.total_arrival_rate() / 4.0, 1e-12);
}

TEST(Transitions, DeparturesFromBusyGroupsOnly) {
  const Params p{4, 2, 0.5, 1.0};
  const State m{3, 1, 1, 0};
  const auto ts = departure_transitions(m, p);
  // Groups: {3}, {1,1}, {0}: two departing groups.
  ASSERT_EQ(ts.size(), 2u);
  double rate_top = 0.0, rate_mid = 0.0;
  for (const auto& t : ts) {
    if (t.to == State{2, 1, 1, 0}) rate_top = t.rate;
    if (t.to == State{3, 1, 0, 0}) rate_mid = t.rate;
  }
  EXPECT_NEAR(rate_top, 1.0, 1e-12);
  EXPECT_NEAR(rate_mid, 2.0, 1e-12);  // group of size 2
}

TEST(Transitions, DepartureRatesSumToBusyServers) {
  const Params p{5, 3, 0.5, 2.0};
  const State m{4, 4, 1, 1, 0};
  EXPECT_NEAR(total_rate(departure_transitions(m, p)), 4 * p.mu, 1e-12);
}

TEST(Transitions, EmptySystemHasNoDepartures) {
  const Params p{3, 2, 0.5, 1.0};
  EXPECT_TRUE(departure_transitions(State{0, 0, 0}, p).empty());
}

TEST(Transitions, AllTransitionsConcatenates) {
  // The original process's transitions split into the two kinds: every
  // arrival target holds one job more, every departure target one fewer.
  const Params p{3, 2, 0.5, 1.0};
  const State m{2, 1, 0};
  const auto arrivals = arrival_transitions(m, p);
  const auto departures = departure_transitions(m, p);
  EXPECT_EQ(arrivals.size(), 2u);  // the longest queue is never polled alone
  EXPECT_EQ(departures.size(), 2u);
  for (const auto& t : arrivals)
    EXPECT_EQ(ss::total_jobs(t.to), ss::total_jobs(m) + 1);
  for (const auto& t : departures)
    EXPECT_EQ(ss::total_jobs(t.to), ss::total_jobs(m) - 1);
}

TEST(Transitions, GroupProbabilitiesFormDistribution) {
  // Over any tie structure the group probabilities must sum to 1.
  for (int n : {3, 6, 10}) {
    for (int d = 1; d <= n; d += 2) {
      const Params p{n, d, 0.5, 1.0};
      // Partition n into groups of sizes 1..; use a few random-ish splits.
      const std::vector<std::vector<int>> splits = {
          std::vector<int>(n, 1),     // all distinct
          {n},                        // all tied
      };
      for (const auto& split : splits) {
        double sum = 0.0;
        int head = 0;
        for (int g : split) {
          sum += arrival_group_probability(head, g, p);
          head += g;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12) << n << ' ' << d;
      }
    }
  }
}

TEST(Transitions, TargetsStaySorted) {
  const Params p{6, 3, 0.8, 1.0};
  const State m{4, 4, 3, 2, 2, 2};
  for (const auto& ts :
       {arrival_transitions(m, p), departure_transitions(m, p)})
    for (const auto& t : ts)
      EXPECT_TRUE(ss::is_valid_state(t.to)) << ss::to_string(t.to);
}

}  // namespace
