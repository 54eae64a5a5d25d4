#include "sqd/transitions.h"

#include "util/combinatorics.h"
#include "util/require.h"

namespace rlb::sqd {

using statespace::State;
using statespace::TieGroup;

double arrival_group_probability(int head, int size, const Params& p) {
  RLB_REQUIRE(head >= 0 && size >= 1 && head + size <= p.N,
              "tie group out of range");
  // 1-based head i = head+1, tail i+j = head+size; the paper's numerator
  // C(i+j, d) - C(i-1, d) becomes C(head+size, d) - C(head, d).
  return util::binomial_ratio(head + size, p.N, p.d) -
         util::binomial_ratio(head, p.N, p.d);
}

std::vector<Transition> arrival_transitions(const State& m, const Params& p) {
  p.validate();
  RLB_REQUIRE(static_cast<int>(m.size()) == p.N, "state size mismatch");
  std::vector<Transition> out;
  for (const TieGroup& g : statespace::tie_groups(m)) {
    const double prob = arrival_group_probability(g.head, g.size(), p);
    if (prob <= 0.0) continue;
    out.push_back({statespace::after_arrival_at_head(m, g.head),
                   prob * p.total_arrival_rate()});
  }
  return out;
}

std::vector<Transition> departure_transitions(const State& m,
                                              const Params& p) {
  p.validate();
  RLB_REQUIRE(static_cast<int>(m.size()) == p.N, "state size mismatch");
  std::vector<Transition> out;
  for (const TieGroup& g : statespace::tie_groups(m)) {
    if (g.value == 0) continue;
    out.push_back({statespace::after_departure_at_tail(m, g.tail),
                   g.size() * p.mu});
  }
  return out;
}

}  // namespace rlb::sqd
