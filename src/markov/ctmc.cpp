#include "markov/ctmc.h"

#include <deque>
#include <stdexcept>

#include "util/require.h"

namespace rlb::markov {

Ctmc build_ctmc(const statespace::State& initial, const TransitionFn& fn,
                std::size_t max_states) {
  Ctmc chain;
  std::deque<std::size_t> frontier;
  // Two passes: first discover all states, then fill the dense generator
  // (so we know its dimension up front).
  chain.states.push_back(initial);
  chain.index.emplace(initial, 0);
  frontier.push_back(0);
  std::vector<std::vector<std::pair<std::size_t, double>>> rows;
  while (!frontier.empty()) {
    const std::size_t si = frontier.front();
    frontier.pop_front();
    const statespace::State state = chain.states[si];  // copy: vector grows
    std::vector<std::pair<std::size_t, double>> row;
    for (const Rated& t : fn(state)) {
      if (t.rate <= 0.0) continue;
      auto [it, inserted] = chain.index.emplace(t.to, chain.states.size());
      if (inserted) {
        chain.states.push_back(t.to);
        if (chain.states.size() > max_states)
          throw std::runtime_error("build_ctmc: state space exceeds limit");
        frontier.push_back(it->second);
      }
      row.emplace_back(it->second, t.rate);
    }
    if (rows.size() <= si) rows.resize(chain.states.size());
    rows[si] = std::move(row);
  }
  rows.resize(chain.states.size());

  const std::size_t n = chain.states.size();
  chain.generator = linalg::Matrix(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double out = 0.0;
    for (const auto& [j, rate] : rows[i]) {
      chain.generator(i, j) += rate;
      out += rate;
    }
    chain.generator(i, i) -= out;
  }
  return chain;
}

}  // namespace rlb::markov
