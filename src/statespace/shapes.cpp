#include "statespace/shapes.h"

#include <algorithm>

#include "util/combinatorics.h"
#include "util/require.h"

namespace rlb::statespace {

namespace {

void recurse(State& prefix, int remaining, int max_value,
             std::vector<State>& out) {
  if (remaining == 1) {
    // delta_N is always 0.
    prefix.push_back(0);
    out.push_back(prefix);
    prefix.pop_back();
    return;
  }
  for (int v = max_value; v >= 0; --v) {
    prefix.push_back(v);
    recurse(prefix, remaining - 1, v, out);
    prefix.pop_back();
  }
}

}  // namespace

std::vector<State> enumerate_shapes(int N, int T) {
  RLB_REQUIRE(N >= 1, "need at least one server");
  RLB_REQUIRE(T >= 0, "threshold must be non-negative");
  std::vector<State> out;
  if (N == 1) {
    out.push_back(State{0});
    return out;
  }
  State prefix;
  recurse(prefix, N, T, out);
  RLB_ASSERT(out.size() == shape_count(N, T), "shape count mismatch");
  return out;
}

std::size_t shape_count(int N, int T) {
  return static_cast<std::size_t>(util::binomial_u64(N + T - 1, T));
}

}  // namespace rlb::statespace
