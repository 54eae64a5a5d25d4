#include "sqd/bound_model.h"

#include <cmath>
#include <map>
#include <utility>

#include "util/require.h"

namespace rlb::sqd {

using statespace::State;
using statespace::TieGroup;

BoundModel::BoundModel(Params p, int T, BoundKind kind,
                       std::vector<double> rank_speeds, UpperArrivalRule rule)
    : params_(p),
      threshold_(T),
      kind_(kind),
      rank_speeds_(std::move(rank_speeds)),
      upper_rule_(rule) {
  params_.validate();
  RLB_REQUIRE(T >= 1, "threshold T must be at least 1");
  if (rank_speeds_.empty()) return;
  RLB_REQUIRE(static_cast<int>(rank_speeds_.size()) == params_.N,
              "rank_speeds must be empty or one entry per server");
  double total = 0.0;
  for (double speed : rank_speeds_) {
    RLB_REQUIRE(speed > 0.0, "rank speeds must be positive");
    total += speed;
  }
  RLB_REQUIRE(std::abs(total - params_.N) <= 1e-9 * params_.N,
              "rank speeds must sum to N (equal total capacity)");
}

bool BoundModel::contains(const State& m) const {
  return static_cast<int>(m.size()) == params_.N &&
         statespace::is_valid_state(m) && statespace::gap(m) <= threshold_;
}

std::vector<Transition> BoundModel::transitions(const State& m) const {
  RLB_REQUIRE(contains(m), "state not in S(T): " + statespace::to_string(m));
  const std::vector<TieGroup> groups = statespace::tie_groups(m);

  // Merge transitions that end up at the same target (redirects can collide
  // with existing transitions, e.g. jockeying joins the top-group departure).
  std::map<State, double> merged;
  const auto add = [&merged](State to, double rate) {
    if (rate > 0.0) merged[std::move(to)] += rate;
  };

  // Arrivals. Only an arrival into the top group can violate the gap bound.
  for (const TieGroup& g : groups) {
    const double rate =
        arrival_group_probability(g.head, g.size(), params_) *
        params_.total_arrival_rate();
    if (rate <= 0.0) continue;
    State target = statespace::after_arrival_at_head(m, g.head);
    if (statespace::gap(target) <= threshold_) {
      add(std::move(target), rate);
    } else if (kind_ == BoundKind::Lower) {
      // Join the shortest queue instead: increment the bottom group's head.
      add(statespace::after_arrival_at_head(m, groups.back().head), rate);
    } else if (upper_rule_ == UpperArrivalRule::AllServers) {
      // Ablation variant: one job to every server (m + 1). Precedence-valid
      // but much looser for larger N.
      add(statespace::plus_one_everywhere(m), rate);
    } else {
      // Upper bound: the job joins the longest queue anyway, and phantom
      // jobs join every shortest-queue server so the gap stays at T. This
      // is the minimal less-preferable target in S(T): the new maximum is
      // m1 + 1, so every server at the old minimum must rise to mN + 1.
      // Partial sums dominate those of m + e_1, the jump size
      // 1 + |bottom group| <= N preserves QBD adjacency, and the rule
      // depends only on the shape (shift-invariant).
      State target = m;
      target[g.head] += 1;
      const statespace::TieGroup& bottom = groups.back();
      for (int k = bottom.head; k <= bottom.tail; ++k) target[k] += 1;
      RLB_ASSERT(statespace::is_valid_state(target) &&
                     statespace::gap(target) <= threshold_,
                 "upper redirect left S(T)");
      add(std::move(target), rate);
    }
  }

  // Departures. Only a departure from the bottom group can violate the gap.
  for (const TieGroup& g : groups) {
    if (g.value == 0) continue;
    double speed = static_cast<double>(g.size());
    if (!rank_speeds_.empty()) {
      speed = 0.0;
      for (int k = g.head; k <= g.tail; ++k) speed += rank_speeds_[k];
    }
    const double rate = speed * params_.mu;
    State target = statespace::after_departure_at_tail(m, g.tail);
    if (statespace::gap(target) <= threshold_) {
      add(std::move(target), rate);
    } else if (kind_ == BoundKind::Lower) {
      // Jockeying: take the departure from the longest queue instead.
      RLB_ASSERT(groups.front().value > 0, "top group empty at positive gap");
      add(statespace::after_departure_at_tail(m, groups.front().tail), rate);
    }
    // Upper bound: the departure is suppressed (server pauses); the rate
    // simply leaves the outflow, which the generator diagonal absorbs.
  }

  std::vector<Transition> out;
  out.reserve(merged.size());
  for (auto& [to, rate] : merged) out.push_back({to, rate});
  return out;
}

}  // namespace rlb::sqd
