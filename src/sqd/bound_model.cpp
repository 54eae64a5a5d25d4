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

  for (const TieGroup& g : groups) {
    const double rate =
        arrival_group_probability(g.head, g.size(), params_) *
        params_.total_arrival_rate();
    if (rate <= 0.0) continue;
    add(arrival_target(m, groups, g), rate);
  }

  for (const TieGroup& g : groups) {
    if (g.value == 0) continue;
    double speed = static_cast<double>(g.size());
    if (!rank_speeds_.empty()) {
      speed = 0.0;
      for (int k = g.head; k <= g.tail; ++k) speed += rank_speeds_[k];
    }
    // A paused departure (upper model) leaves the outflow; the generator
    // diagonal absorbs its rate.
    State target = departure_target(m, groups, g);
    if (target != m) add(std::move(target), speed * params_.mu);
  }

  std::vector<Transition> out;
  out.reserve(merged.size());
  for (auto& [to, rate] : merged) out.push_back({to, rate});
  return out;
}

State BoundModel::arrival_target(State m, const std::vector<TieGroup>& groups,
                                 const TieGroup& g) const {
  m[g.head] += 1;
  if (statespace::gap(m) <= threshold_) return m;
  const TieGroup& bottom = groups.back();
  if (kind_ == BoundKind::Lower) {
    m[g.head] -= 1;
    m[bottom.head] += 1;
  } else if (upper_rule_ == UpperArrivalRule::AllServers) {
    m[g.head] -= 1;
    m = statespace::plus_one_everywhere(m);
  } else {
    for (int k = bottom.head; k <= bottom.tail; ++k) m[k] += 1;
  }
  RLB_ASSERT(statespace::is_valid_state(m) &&
                 statespace::gap(m) <= threshold_,
             "arrival redirect left S(T)");
  return m;
}

State BoundModel::departure_target(State m, const std::vector<TieGroup>& groups,
                                   const TieGroup& g) const {
  m[g.tail] -= 1;
  if (statespace::gap(m) <= threshold_) return m;
  m[g.tail] += 1;
  if (kind_ == BoundKind::Lower) m[groups.front().tail] -= 1;
  return m;
}

}  // namespace rlb::sqd
