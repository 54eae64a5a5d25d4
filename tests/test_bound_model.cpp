#include "sqd/bound_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "statespace/level_space.h"

namespace {

namespace ss = rlb::statespace;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;
using rlb::sqd::Transition;
using ss::State;

double total_rate(const std::vector<Transition>& ts) {
  double s = 0.0;
  for (const auto& t : ts) s += t.rate;
  return s;
}

/// The original SQ(d) process's transitions out of m: arrivals, then
/// departures.
std::vector<Transition> original_transitions(const State& m, const Params& p) {
  std::vector<Transition> out = rlb::sqd::arrival_transitions(m, p);
  for (Transition& t : rlb::sqd::departure_transitions(m, p))
    out.push_back(std::move(t));
  return out;
}

std::map<State, double> as_map(const std::vector<Transition>& ts) {
  std::map<State, double> m;
  for (const auto& t : ts) m[t.to] += t.rate;
  return m;
}

// Precedence order of Eq. (5): partial sums comparison.
bool precedes(const State& a, const State& b) {
  int sa = 0, sb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sa += a[i];
    sb += b[i];
    if (sa > sb) return false;
  }
  return true;
}

// Rank-speed profiles (N = 4, each summing to N) the model tests run
// besides the homogeneous model; the empty profile is the homogeneous one.
const std::vector<std::vector<double>> kSpeedProfiles{
    {}, {1.6, 1.2, 0.8, 0.4}, {1.75, 1.75, 0.25, 0.25}};

TEST(BoundModel, TargetsStayInSpace) {
  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    for (int t : {1, 2, 3}) {
      std::vector<BoundModel> models{
          BoundModel(Params{3, 2, 0.8, 1.0}, t, kind)};
      for (const auto& speeds : kSpeedProfiles)
        if (!speeds.empty())
          models.emplace_back(Params{4, 2, 0.8, 1.0}, t, kind, speeds);
      for (const BoundModel& model : models) {
        const ss::LevelSpace space(model.params().N, t);
        for (const State& m : space.boundary_states()) {
          for (const auto& tr : model.transitions(m))
            EXPECT_TRUE(model.contains(tr.to))
                << ss::to_string(m) << " -> " << ss::to_string(tr.to);
        }
        for (std::size_t j = 0; j < space.block_size(); ++j) {
          const State m = space.level_state(1, j);
          for (const auto& tr : model.transitions(m))
            EXPECT_TRUE(model.contains(tr.to));
        }
      }
    }
  }
}

TEST(BoundModel, InteriorStatesUntouched) {
  // Away from the gap boundary the bound models and the original process
  // coincide.
  const Params p{3, 2, 0.7, 1.0};
  const BoundModel lower(p, 3, BoundKind::Lower);
  const BoundModel upper(p, 3, BoundKind::Upper);
  const State m{3, 2, 1};  // gap 2 < T=3, all transitions stay inside
  const auto raw = as_map(original_transitions(m, p));
  EXPECT_EQ(as_map(lower.transitions(m)), raw);
  EXPECT_EQ(as_map(upper.transitions(m)), raw);
}

TEST(BoundModel, LowerRedirectsArrivalToShortest) {
  // m = (2, 1, 0), T = 2: arrival to the top queue would give gap 3.
  const Params p{3, 2, 0.6, 1.0};
  const BoundModel lower(p, 2, BoundKind::Lower);
  const auto ts = as_map(lower.transitions(State{2, 1, 0}));
  // (3,1,0) must not appear; its rate is folded into (2,1,1).
  EXPECT_EQ(ts.count(State{3, 1, 0}), 0u);
  ASSERT_EQ(ts.count(State{2, 1, 1}), 1u);
  // Total arrival mass preserved.
  double arrivals = 0.0;
  for (const auto& [to, rate] : ts)
    if (ss::total_jobs(to) == 4) arrivals += rate;
  EXPECT_NEAR(arrivals, p.total_arrival_rate(), 1e-12);
}

TEST(BoundModel, LowerJockeysDepartureFromLongest) {
  // m = (3, 3, 1), T = 2: the bottom-queue departure would give gap 3;
  // the lower model takes it from a longest queue instead: (3, 2, 1).
  const Params p{3, 2, 0.6, 1.0};
  const BoundModel lower(p, 2, BoundKind::Lower);
  const auto ts = as_map(lower.transitions(State{3, 3, 1}));
  EXPECT_EQ(ts.count(State{3, 3, 0}), 0u);
  ASSERT_EQ(ts.count(State{3, 2, 1}), 1u);
  // Departure mass preserved: top group rate 2 plus redirected rate 1.
  EXPECT_NEAR(ts.at(State{3, 2, 1}), 3.0 * p.mu, 1e-12);
  EXPECT_NEAR(total_rate(lower.transitions(State{3, 3, 1})),
              p.total_arrival_rate() + 3.0 * p.mu, 1e-12);
}

TEST(BoundModel, UpperRedirectsArrivalWithPhantomCompensation) {
  const Params p{3, 2, 0.6, 1.0};
  const BoundModel upper(p, 2, BoundKind::Upper);
  // For (2,1,0) the top group has zero arrival probability under d=2
  // (a singleton longest queue is never the shortest polled), so nothing
  // leaves the space and no redirect mass appears.
  const auto ts = as_map(upper.transitions(State{2, 1, 0}));
  EXPECT_EQ(ts.count(State{3, 1, 0}), 0u);
  EXPECT_EQ(ts.count(State{3, 2, 1}), 0u);
  // Use a state where the top group has positive arrival probability:
  const auto ts2 = as_map(upper.transitions(State{2, 2, 0}));
  // Arrival to top group of (2,2,0) -> (3,2,0): gap 3 > 2, redirected to
  // (3,2,1): the job lands on the longest queue and a phantom job fills
  // the (singleton) shortest queue.
  EXPECT_EQ(ts2.count(State{3, 2, 0}), 0u);
  ASSERT_EQ(ts2.count(State{3, 2, 1}), 1u);
  // With a larger bottom tie group every member gets the phantom job:
  // (3,3,1,1) at T=2, arrival to top -> (4,3,1,1) invalid, redirected to
  // (4,3,2,2).
  const BoundModel upper4(Params{4, 2, 0.6, 1.0}, 2, BoundKind::Upper);
  const auto ts3 = as_map(upper4.transitions(State{3, 3, 1, 1}));
  EXPECT_EQ(ts3.count(State{4, 3, 1, 1}), 0u);
  ASSERT_EQ(ts3.count(State{4, 3, 2, 2}), 1u);
}

TEST(BoundModel, UpperPausesBottomDeparture) {
  // m = (3, 3, 1), T = 2: bottom departure is suppressed; outflow drops.
  const Params p{3, 2, 0.6, 1.0};
  const BoundModel upper(p, 2, BoundKind::Upper);
  const auto ts = as_map(upper.transitions(State{3, 3, 1}));
  EXPECT_EQ(ts.count(State{3, 3, 0}), 0u);
  // Only the top-group departure remains (rate 2), arrivals unchanged.
  EXPECT_NEAR(total_rate(upper.transitions(State{3, 3, 1})),
              p.total_arrival_rate() + 2.0 * p.mu, 1e-12);
}

TEST(BoundModel, LowerPreservesTotalOutflow) {
  // The lower bound model only redirects, never drops, transitions. Busy
  // servers are a prefix of the sorted state, so their rank speeds add up
  // to the departure rate.
  const Params p{4, 2, 0.9, 1.0};
  const ss::LevelSpace space(4, 2);
  for (const auto& speeds : kSpeedProfiles) {
    const BoundModel lower(p, 2, BoundKind::Lower, speeds);
    for (const State& m : space.boundary_states()) {
      const int busy = ss::busy_servers(m);
      double capacity = busy;
      if (!speeds.empty())
        capacity = std::accumulate(speeds.begin(), speeds.begin() + busy, 0.0);
      EXPECT_NEAR(total_rate(lower.transitions(m)),
                  p.total_arrival_rate() + capacity * p.mu, 1e-10)
          << ss::to_string(m);
    }
  }
}

TEST(BoundModel, RedirectsArePrecedenceMonotone) {
  // Every lower-model transition target must precede (or equal) some
  // original-target mass; we check the redirect rules directly: for states
  // at gap T, the lower model's targets are all <= the original ones and
  // the upper model's targets are all >= in the precedence order.
  const Params p{3, 2, 0.7, 1.0};
  const int T = 2;
  const BoundModel lower(p, T, BoundKind::Lower);
  const BoundModel upper(p, T, BoundKind::Upper);
  const ss::LevelSpace space(3, T);

  const auto check_state = [&](const State& m) {
    const auto raw = original_transitions(m, p);
    const auto low = as_map(lower.transitions(m));
    const auto up = as_map(upper.transitions(m));
    for (const auto& orig : raw) {
      if (ss::gap(orig.to) <= T) continue;  // not redirected
      // The redirected lower target must precede the original.
      for (const auto& [to, rate] : low) {
        (void)rate;
        if (ss::total_jobs(to) == ss::total_jobs(orig.to)) {
          // candidate redirect target (same job count class)
          if (raw.end() ==
              std::find_if(raw.begin(), raw.end(), [&](const auto& t) {
                return t.to == to;
              })) {
            EXPECT_TRUE(precedes(to, orig.to))
                << ss::to_string(to) << " vs " << ss::to_string(orig.to);
          }
        }
      }
      // Upper redirect: any batch target (total jump >= 2) must dominate
      // the original single-arrival target; departures are dropped.
      for (const auto& [to, rate] : up) {
        (void)rate;
        if (ss::total_jobs(to) >= ss::total_jobs(m) + 2) {
          EXPECT_TRUE(precedes(orig.to, to));
        }
      }
    }
  };
  for (const State& m : space.boundary_states()) check_state(m);
  for (std::size_t j = 0; j < space.block_size(); ++j)
    check_state(space.level_state(1, j));
}

TEST(BoundModel, ShiftInvarianceLemma1) {
  // p_{m, m'} = p_{m+1, m'+1} for fully-busy states: the transition lists
  // from m and m+1 must match modulo the +1 shift.
  // Rank speeds keep it: every level state has all N servers busy.
  const Params p{4, 3, 0.85, 1.0};
  const ss::LevelSpace space(4, 2);
  for (const auto& speeds : kSpeedProfiles) {
    for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
      const BoundModel model(p, 2, kind, speeds);
      for (int level : {0, 1}) {
        for (std::size_t j = 0; j < space.block_size(); ++j) {
          const State m = space.level_state(level, j);
          const State m_shift = space.level_state(level + 1, j);
          auto base = as_map(model.transitions(m));
          auto shifted = as_map(model.transitions(m_shift));
          ASSERT_EQ(base.size(), shifted.size());
          for (const auto& [to, rate] : base) {
            const State to_shift = ss::plus_one_everywhere(to);
            ASSERT_EQ(shifted.count(to_shift), 1u) << ss::to_string(to);
            EXPECT_NEAR(shifted.at(to_shift), rate, 1e-12);
          }
        }
      }
    }
  }
}

TEST(BoundModel, RequiresPositiveThreshold) {
  EXPECT_THROW(BoundModel(Params{3, 2, 0.5, 1.0}, 0, BoundKind::Lower),
               std::invalid_argument);
}

TEST(BoundModel, RejectsBadRankSpeeds) {
  // A profile must hold N positive entries summing to N.
  const Params p{3, 2, 0.5, 1.0};
  const auto build = [&p](std::vector<double> speeds) {
    return BoundModel(p, 2, BoundKind::Lower, std::move(speeds));
  };
  // Wrong length.
  EXPECT_THROW(build({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(build({1.0, 1.0, 1.0, 1.0}), std::invalid_argument);
  // A non-positive or NaN entry, even where the sum is N.
  EXPECT_THROW(build({2.0, -1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(build({1.5, 0.0, 1.5}), std::invalid_argument);
  EXPECT_THROW(build({std::nan(""), 1.5, 1.5}), std::invalid_argument);
  // A sum other than N.
  EXPECT_THROW(build({1.0, 1.0, 1.5}), std::invalid_argument);
  EXPECT_THROW(build({0.5, 0.5, 0.5}), std::invalid_argument);
  EXPECT_NO_THROW(build({1.5, 1.0, 0.5}));
}

TEST(BoundModel, RejectsStateOutsideSpace) {
  const BoundModel model(Params{3, 2, 0.5, 1.0}, 1, BoundKind::Lower);
  EXPECT_THROW(model.transitions(State{3, 1, 0}), std::invalid_argument);
}

}  // namespace
