#include "sqd/waiting_distribution.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "qbd/solver.h"
#include "sqd/blocks_builder.h"
#include "util/require.h"

namespace rlb::sqd {

namespace {

using statespace::State;
using statespace::TieGroup;

/// P(Erlang(v, mu) > t) = P(Poisson(mu t) <= v - 1); 0 for v = 0.
double erlang_ccdf(int v, double mu_t) {
  if (v <= 0) return 0.0;
  if (mu_t <= 0.0) return 1.0;
  double log_term = -mu_t;  // log Poisson pmf at j = 0
  double sum = 0.0;
  for (int j = 0; j < v; ++j) {
    sum += std::exp(log_term);
    log_term += std::log(mu_t) - std::log1p(j);
  }
  return std::min(sum, 1.0);
}

/// Queue length the arriving job queues behind, per tie group, with the
/// model's redirect applied; paired with the group's probability.
struct JoinOutcome {
  int queue_len = 0;
  double prob = 0.0;
};

std::vector<JoinOutcome> join_outcomes(const BoundModel& model,
                                       const State& m) {
  std::vector<JoinOutcome> out;
  const auto groups = statespace::tie_groups(m);
  for (const TieGroup& g : groups) {
    const double prob =
        arrival_group_probability(g.head, g.size(), model.params());
    if (prob <= 0.0) continue;
    // The job waits behind the jobs already at the one queue that grew.
    const State target = model.arrival_target(m, groups, g);
    out.push_back({*std::mismatch(m.begin(), m.end(), target.begin()).first,
                   prob});
  }
  return out;
}

}  // namespace

WaitingProfile::WaitingProfile(const BoundModel& model, double tail_tol) {
  RLB_REQUIRE(model.kind() == BoundKind::Lower,
              "waiting-time profile implemented for the lower bound model");
  RLB_REQUIRE(model.rank_speeds().empty(),
              "waiting-time profile assumes one service rate: no rank speeds");
  const Params& p = model.params();
  mu_ = p.mu;

  const BoundQbd q = build_bound_qbd(model);
  const double rate = std::pow(p.rho(), p.N);
  const qbd::Solution sol = qbd::solve_scalar(q.blocks, rate);

  // Collapse the stationary mixture into weights per Erlang shape.
  std::map<int, double> mixture;
  const auto accumulate = [&](const linalg::Vector& dist, auto state_at,
                              int extra_jobs) {
    for (std::size_t i = 0; i < dist.size(); ++i) {
      if (dist[i] <= 0.0) continue;
      const State m = state_at(i);
      for (const JoinOutcome& jo : join_outcomes(model, m)) {
        const int v = jo.queue_len + extra_jobs;
        if (v > 0) mixture[v] += dist[i] * jo.prob;
      }
    }
  };
  accumulate(sol.pi_boundary,
             [&](std::size_t i) { return q.space.boundary_states()[i]; }, 0);
  accumulate(sol.pi0,
             [&](std::size_t i) { return q.space.level0_states()[i]; }, 0);
  double weight = 1.0;
  for (int level = 1;; ++level) {
    if (weight * linalg::sum(sol.pi1) < tail_tol) break;
    const linalg::Vector dist = linalg::scaled(sol.pi1, weight);
    accumulate(dist,
               [&](std::size_t j) { return q.space.level_state(1, j); },
               level - 1);
    weight *= rate;
  }
  shapes_.reserve(mixture.size());
  weights_.reserve(mixture.size());
  for (const auto& [shape, w] : mixture) {
    shapes_.push_back(shape);
    weights_.push_back(w);
  }
}

double WaitingProfile::ccdf(double t) const {
  RLB_REQUIRE(t >= 0.0, "time must be non-negative");
  double out = 0.0;
  for (std::size_t k = 0; k < shapes_.size(); ++k)
    out += weights_[k] * erlang_ccdf(shapes_[k], mu_ * t);
  return out;
}

double WaitingProfile::quantile(double q, double tol) const {
  RLB_REQUIRE(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
  const double target = 1.0 - q;
  if (ccdf(0.0) <= target) return 0.0;
  double hi = 1.0;
  while (ccdf(hi) > target) {
    hi *= 2.0;
    RLB_REQUIRE(hi < 1e6, "quantile bracket exploded; model near saturation");
  }
  double lo = 0.0;
  while (hi - lo > tol * (1.0 + hi)) {
    const double mid = 0.5 * (lo + hi);
    (ccdf(mid) > target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace rlb::sqd
