#include "markov/ctmc.h"

#include <gtest/gtest.h>

#include "markov/gth.h"

namespace {

namespace mk = rlb::markov;
using rlb::statespace::State;

// A birth-death chain on {0..3} encoded as 1-component states.
mk::TransitionFn birth_death(double birth, double death, int cap) {
  return [=](const State& s) {
    std::vector<mk::Rated> out;
    if (s[0] < cap) out.push_back({State{s[0] + 1}, birth});
    if (s[0] > 0) out.push_back({State{s[0] - 1}, death});
    return out;
  };
}

TEST(Ctmc, ExploresReachableSet) {
  const auto chain = mk::build_ctmc(State{0}, birth_death(1.0, 2.0, 3));
  EXPECT_EQ(chain.size(), 4u);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < chain.size(); ++j)
      row += chain.generator(i, j);
    EXPECT_NEAR(row, 0.0, 1e-12);
  }
}

TEST(Ctmc, Mm1TruncatedStationary) {
  // M/M/1/K has pi_n proportional to rho^n.
  const double lambda = 0.6, mu = 1.0;
  const int cap = 20;
  const auto chain = mk::build_ctmc(State{0}, birth_death(lambda, mu, cap));
  const auto pi = mk::stationary_gth(chain.generator);
  // Find index of state {1} and {0}.
  const std::size_t i0 = chain.index.at(State{0});
  const std::size_t i1 = chain.index.at(State{1});
  EXPECT_NEAR(pi[i1] / pi[i0], lambda / mu, 1e-10);
}

TEST(Ctmc, StateLimitEnforced) {
  // Unbounded birth chain must trip the limit.
  const mk::TransitionFn fn = [](const State& s) {
    return std::vector<mk::Rated>{{State{s[0] + 1}, 1.0}};
  };
  EXPECT_THROW(mk::build_ctmc(State{0}, fn, 100), std::runtime_error);
}

TEST(Ctmc, ZeroRatesIgnored) {
  const mk::TransitionFn fn = [](const State& s) {
    std::vector<mk::Rated> out;
    if (s[0] == 0) {
      out.push_back({State{1}, 1.0});
      out.push_back({State{5}, 0.0});  // must not create state 5
    } else {
      out.push_back({State{0}, 1.0});
    }
    return out;
  };
  const auto chain = mk::build_ctmc(State{0}, fn);
  EXPECT_EQ(chain.size(), 2u);
}

}  // namespace
