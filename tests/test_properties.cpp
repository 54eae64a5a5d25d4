// Cross-module property sweeps (parameterized): the invariants every
// configuration must satisfy, run over a grid of (N, d, T, rho).
#include <cmath>

#include <gtest/gtest.h>

#include "qbd/solver.h"
#include "sim/fast_sqd.h"
#include "sim/rng.h"
#include "sqd/bound_solver.h"
#include "statespace/level_space.h"

namespace {

namespace ss = rlb::statespace;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

struct Config {
  int n, d, t;
  double rho;
};

std::vector<Config> grid() {
  std::vector<Config> out;
  for (int n : {2, 3, 5}) {
    for (int d : {1, 2, n}) {
      if (d > n) continue;
      if (d == n && n == 2) continue;  // avoid duplicating d = 2
      for (int t : {1, 2, 3}) {
        for (double rho : {0.35, 0.75, 0.92}) {
          out.push_back({n, d, t, rho});
        }
      }
    }
  }
  return out;
}

class GridTest : public ::testing::TestWithParam<Config> {};

TEST_P(GridTest, GeneratorAndSolutionInvariants) {
  const Config c = GetParam();
  const Params p{c.n, c.d, c.rho, 1.0};

  for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
    const BoundModel model(p, c.t, kind);
    const auto q = rlb::sqd::build_bound_qbd(model);
    // Generator structure.
    EXPECT_LT(q.blocks.generator_row_sum_error(), 1e-9);
    EXPECT_EQ(q.blocks.block_size(), ss::shape_count(c.n, c.t));

    try {
      const auto sol = rlb::qbd::solve(q.blocks);
      // Probabilities are a distribution.
      EXPECT_NEAR(sol.total_probability, 1.0, 1e-8);
      for (double v : sol.pi_boundary) EXPECT_GE(v, -1e-10);
      for (double v : sol.pi0) EXPECT_GE(v, -1e-10);
      for (double v : sol.pi1) EXPECT_GE(v, -1e-10);
      // R is a residual-free solution of the quadratic.
      EXPECT_LT(rlb::qbd::r_residual(q.blocks.A0, q.blocks.A1, q.blocks.A2,
                                     sol.R),
                1e-9);
    } catch (const rlb::qbd::UnstableError&) {
      EXPECT_EQ(kind, BoundKind::Upper)
          << "lower model must be stable for rho < 1";
    }
  }
}

TEST_P(GridTest, LowerBoundBelowUpperBound) {
  const Config c = GetParam();
  const Params p{c.n, c.d, c.rho, 1.0};
  const double lower =
      rlb::sqd::solve_bound(BoundModel(p, c.t, BoundKind::Lower))
          .mean_waiting_jobs;
  try {
    const double upper =
        rlb::sqd::solve_bound(BoundModel(p, c.t, BoundKind::Upper))
            .mean_waiting_jobs;
    EXPECT_LE(lower, upper + 1e-8);
  } catch (const rlb::qbd::UnstableError&) {
    // vacuous bound
  }
}

TEST_P(GridTest, ImprovedLowerAgreesWithGeneric) {
  const Config c = GetParam();
  const Params p{c.n, c.d, c.rho, 1.0};
  const BoundModel model(p, c.t, BoundKind::Lower);
  const auto q = rlb::sqd::build_bound_qbd(model);
  const double generic = rlb::sqd::solve_bound(model, q).mean_waiting_jobs;
  const double improved =
      rlb::sqd::solve_lower_improved(model, q, c.rho).mean_waiting_jobs;
  EXPECT_NEAR(generic, improved, 1e-6 * (1.0 + generic));
}

INSTANTIATE_TEST_SUITE_P(Sweep, GridTest, ::testing::ValuesIn(grid()),
                         [](const auto& info) {
                           const Config& c = info.param;
                           return "N" + std::to_string(c.n) + "d" +
                                  std::to_string(c.d) + "T" +
                                  std::to_string(c.t) + "rho" +
                                  std::to_string(int(c.rho * 100));
                         });

// Simulation sandwich where no exact reference exists (larger N).
struct SimCase {
  int n, d, t;
  double rho;
};

class SimSandwichTest : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimSandwichTest, BoundsSandwichSimulatedDelay) {
  const SimCase c = GetParam();
  const Params p{c.n, c.d, c.rho, 1.0};
  rlb::sim::FastSqdConfig cfg;
  cfg.params = p;
  const auto sim = rlb::sim::simulate_sqd_fast(
      cfg, rlb::sim::AdaptivePlan::fixed(1, 1'500'000, 150'000, 4242),
      rlb::util::ThreadBudget::serial());
  const double margin = 5.0 * sim.ci95_delay + 0.01;

  const double lower =
      rlb::sqd::solve_lower_improved(BoundModel(p, c.t, BoundKind::Lower))
          .mean_delay;
  EXPECT_LE(lower, sim.mean_delay + margin);

  try {
    const double upper =
        rlb::sqd::solve_bound(BoundModel(p, c.t, BoundKind::Upper))
            .mean_delay;
    EXPECT_GE(upper, sim.mean_delay - margin);
  } catch (const rlb::qbd::UnstableError&) {
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimSandwichTest,
    ::testing::Values(SimCase{6, 2, 2, 0.6}, SimCase{6, 2, 3, 0.85},
                      SimCase{6, 3, 3, 0.75}, SimCase{8, 2, 2, 0.7},
                      SimCase{12, 2, 3, 0.8}, SimCase{12, 4, 2, 0.6}),
    [](const auto& info) {
      const SimCase& c = info.param;
      return "N" + std::to_string(c.n) + "d" + std::to_string(c.d) + "T" +
             std::to_string(c.t) + "rho" + std::to_string(int(c.rho * 100));
    });

// Randomized structural fuzzing of the transition law.
TEST(TransitionFuzz, InvariantsOnRandomStates) {
  rlb::sim::Rng rng(777);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(6));
    const int d = 1 + static_cast<int>(rng.uniform_int(n));
    const Params p{n, d, 0.1 + 0.8 * rng.next_double(), 1.0};
    // Random sorted state.
    ss::State m(n);
    for (int& v : m) v = static_cast<int>(rng.uniform_int(6));
    std::sort(m.rbegin(), m.rend());

    double arrival_rate = 0.0;
    for (const auto& t : rlb::sqd::arrival_transitions(m, p)) {
      EXPECT_TRUE(ss::is_valid_state(t.to));
      EXPECT_EQ(ss::total_jobs(t.to), ss::total_jobs(m) + 1);
      arrival_rate += t.rate;
    }
    EXPECT_NEAR(arrival_rate, p.total_arrival_rate(), 1e-9);

    double departure_rate = 0.0;
    for (const auto& t : rlb::sqd::departure_transitions(m, p)) {
      EXPECT_TRUE(ss::is_valid_state(t.to));
      EXPECT_EQ(ss::total_jobs(t.to), ss::total_jobs(m) - 1);
      departure_rate += t.rate;
    }
    EXPECT_NEAR(departure_rate, ss::busy_servers(m) * p.mu, 1e-9);
  }
}

// Randomized fuzzing of the bound-model redirects.
TEST(BoundModelFuzz, TargetsAlwaysInSpaceAndRatesConserved) {
  rlb::sim::Rng rng(778);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 2 + static_cast<int>(rng.uniform_int(5));
    const int d = 1 + static_cast<int>(rng.uniform_int(n));
    const int t = 1 + static_cast<int>(rng.uniform_int(3));
    const Params p{n, d, 0.1 + 0.85 * rng.next_double(), 1.0};
    // Random state in S(T): base + bounded shape.
    ss::State m(n);
    m[n - 1] = static_cast<int>(rng.uniform_int(4));
    for (int i = n - 2; i >= 0; --i)
      m[i] = m[i + 1] + static_cast<int>(rng.uniform_int(2));
    if (ss::gap(m) > t) continue;

    for (BoundKind kind : {BoundKind::Lower, BoundKind::Upper}) {
      const BoundModel model(p, t, kind);
      double rate = 0.0;
      for (const auto& tr : model.transitions(m)) {
        EXPECT_TRUE(model.contains(tr.to)) << ss::to_string(tr.to);
        rate += tr.rate;
      }
      const double expected =
          p.total_arrival_rate() + ss::busy_servers(m) * p.mu;
      if (kind == BoundKind::Lower) {
        EXPECT_NEAR(rate, expected, 1e-9);  // redirects conserve outflow
      } else {
        EXPECT_LE(rate, expected + 1e-9);  // pauses can only drop outflow
      }
    }
  }
}

}  // namespace
