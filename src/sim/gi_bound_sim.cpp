#include "sim/gi_bound_sim.h"

#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/replica.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "statespace/state.h"
#include "util/require.h"
#include "util/rootfind.h"

namespace rlb::sim {

namespace {

using statespace::State;
using statespace::TieGroup;

/// Apply an arrival: the SQ(d) polling probabilities pick the receiving
/// tie group, and the model redirects a gap-breaking arrival.
void apply_arrival(State& m, const sqd::BoundModel& model, Rng& rng) {
  const auto groups = statespace::tie_groups(m);
  double u = rng.next_double();
  const TieGroup* joined = &groups.back();  // fallback to the shortest group
  for (const TieGroup& g : groups) {
    u -= sqd::arrival_group_probability(g.head, g.size(), model.params());
    if (u <= 0.0) {
      joined = &g;
      break;
    }
  }
  m = model.arrival_target(std::move(m), groups, *joined);
}

/// Apply a departure, redirected by the model at the gap boundary. With
/// empty `speed_prefix` (homogeneous rates) the departing server is a
/// uniform busy server; with rank speeds (speed_prefix[k] = sum of the
/// first k rank speeds) the busy rank departs proportionally to its
/// service rate.
void apply_departure(State& m, const sqd::BoundModel& model,
                     const std::vector<double>& speed_prefix, Rng& rng) {
  const auto groups = statespace::tie_groups(m);
  const TieGroup* left = nullptr;
  if (speed_prefix.empty()) {
    // Pick a busy server uniformly: group weight = size (value > 0 only).
    int busy = 0;
    for (const TieGroup& g : groups)
      if (g.value > 0) busy += g.size();
    RLB_ASSERT(busy > 0, "departure with no busy server");
    auto pick = static_cast<int>(rng.uniform_int(busy));
    for (const TieGroup& g : groups) {
      if (g.value == 0) continue;
      if (pick < g.size()) {
        left = &g;
        break;
      }
      pick -= g.size();
    }
  } else {
    // Busy ranks are a prefix of the sorted state; group weight is the
    // sum of its ranks' speeds.
    const int busy = statespace::busy_servers(m);
    RLB_ASSERT(busy > 0, "departure with no busy server");
    double u = rng.next_double() * speed_prefix[busy];
    for (const TieGroup& g : groups) {
      if (g.value == 0) continue;
      u -= speed_prefix[g.tail + 1] - speed_prefix[g.head];
      if (u <= 0.0) {
        left = &g;
        break;
      }
    }
    if (left == nullptr) {  // numeric slack: fall back to the last busy group
      for (const TieGroup& g : groups)
        if (g.value > 0) left = &g;
    }
  }
  RLB_ASSERT(left != nullptr, "no departing group found");
  m = model.departure_target(std::move(m), groups, *left);
}

/// Raw per-replica accumulators; the occupancy histogram merges
/// elementwise (time-weighted) and every derived quantity — the
/// distribution and the level-tail ratio — is computed after the merge.
struct Accum {
  std::vector<double> occupancy;  // time in state with total == index
  double waiting_area = 0.0;
  double jobs_area = 0.0;
  double measured_time = 0.0;
  std::uint64_t events = 0;
  WeightedBatchMeans waiting_ci{1};  // dt-weighted over measured events

  void merge(const Accum& other) {
    if (occupancy.size() < other.occupancy.size())
      occupancy.resize(other.occupancy.size(), 0.0);
    for (std::size_t k = 0; k < other.occupancy.size(); ++k)
      occupancy[k] += other.occupancy[k];
    waiting_area += other.waiting_area;
    jobs_area += other.jobs_area;
    measured_time += other.measured_time;
    events += other.events;
    waiting_ci.merge(other.waiting_ci);
  }
};

Accum run_one_replica(const sqd::BoundModel& model,
                      const Distribution& interarrival,
                      std::uint64_t arrivals, std::uint64_t warmup,
                      std::uint64_t batch, std::uint64_t seed) {
  const sqd::Params& p = model.params();
  const std::vector<double>& rank_speeds = model.rank_speeds();

  // speed_prefix[k] = sum of the first k rank speeds, so the pooled
  // service rate with `busy` busy ranks is speed_prefix[busy] * mu.
  std::vector<double> speed_prefix;
  if (!rank_speeds.empty()) {
    speed_prefix.assign(rank_speeds.size() + 1, 0.0);
    for (std::size_t k = 0; k < rank_speeds.size(); ++k)
      speed_prefix[k + 1] = speed_prefix[k] + rank_speeds[k];
  }

  Rng rng(seed);
  State m(static_cast<std::size_t>(p.N), 0);

  Accum acc;
  acc.occupancy.reserve(256);
  acc.waiting_ci = WeightedBatchMeans(batch);
  bool measuring = false;

  double now = 0.0;
  double next_arrival = interarrival.sample(rng);
  std::uint64_t arrival_count = 0;

  const auto account = [&](double dt) {
    if (!measuring || dt <= 0.0) return;
    const auto total = static_cast<std::size_t>(statespace::total_jobs(m));
    if (acc.occupancy.size() <= total) acc.occupancy.resize(total + 1, 0.0);
    const double waiting = statespace::waiting_jobs(m);
    acc.occupancy[total] += dt;
    acc.waiting_area += dt * waiting;
    acc.jobs_area += dt * statespace::total_jobs(m);
    acc.measured_time += dt;
    acc.waiting_ci.add(waiting, dt);
  };

  while (arrival_count < arrivals) {
    ++acc.events;
    const int busy = statespace::busy_servers(m);
    // Memoryless services: resample the pooled departure clock each event.
    const double pooled_rate =
        speed_prefix.empty() ? busy * p.mu : speed_prefix[busy] * p.mu;
    const double t_departure =
        busy > 0 ? rng.exponential(pooled_rate)
                 : std::numeric_limits<double>::infinity();
    const double dt_arrival = next_arrival - now;
    if (dt_arrival <= t_departure) {
      account(dt_arrival);
      now = next_arrival;
      apply_arrival(m, model, rng);
      ++arrival_count;
      if (arrival_count == warmup) measuring = true;
      next_arrival = now + interarrival.sample(rng);
    } else {
      account(t_departure);
      now += t_departure;
      apply_departure(m, model, speed_prefix, rng);
    }
  }
  return acc;
}

GiBoundSimResult assemble(const sqd::BoundModel& model, const Accum& acc) {
  const sqd::Params& p = model.params();
  GiBoundSimResult out;
  out.events = acc.events;
  RLB_REQUIRE(acc.measured_time > 0.0, "no measured time accumulated");
  out.mean_waiting_jobs = acc.waiting_area / acc.measured_time;
  out.mean_jobs = acc.jobs_area / acc.measured_time;
  out.ci95_waiting_jobs = acc.waiting_ci.half_width(0.95);
  out.total_jobs_dist.resize(acc.occupancy.size());
  for (std::size_t k = 0; k < acc.occupancy.size(); ++k)
    out.total_jobs_dist[k] = acc.occupancy[k] / acc.measured_time;

  // Level masses: N-job bands above the boundary block.
  const int band = p.N;
  const int base = (p.N - 1) * model.threshold();  // boundary total max
  std::vector<double> level_mass;
  for (std::size_t k = base + 1; k < acc.occupancy.size();
       k += static_cast<std::size_t>(band)) {
    double mass = 0.0;
    for (int j = 0; j < band && k + j < acc.occupancy.size(); ++j)
      mass += out.total_jobs_dist[k + j];
    level_mass.push_back(mass);
  }
  // Estimate the geometric ratio from interior levels with enough mass,
  // averaging successive ratios weighted by mass.
  double num = 0.0, den = 0.0;
  for (std::size_t q = 1; q + 1 < level_mass.size(); ++q) {
    if (level_mass[q] < 1e-6 || level_mass[q + 1] < 1e-7) break;
    num += level_mass[q + 1];
    den += level_mass[q];
  }
  out.level_tail_ratio = den > 0.0 ? num / den : 0.0;
  return out;
}

}  // namespace

SigmaResult solve_sigma(const Distribution& a, double mu) {
  RLB_REQUIRE(mu > 0.0, "mu must be positive");
  const double rho = 1.0 / (mu * a.mean());
  if (rho >= 1.0)
    throw std::runtime_error("solve_sigma: utilization >= 1, no root in (0,1)");

  // f(x) = LST(mu(1-x)) - x: f(0) = beta_0 > 0 and f(1-) < 0 when rho < 1
  // (the slope of the LST term at x=1 is mu E[U] = 1/rho > 1).
  const auto f = [&](double x) { return a.lst(mu * (1.0 - x)) - x; };
  double hi = 1.0 - 1e-12;
  // Guard against f(hi) >= 0 from round-off very close to criticality.
  while (f(hi) >= 0.0 && hi > 0.5) hi = 1.0 - 4.0 * (1.0 - hi);
  RLB_REQUIRE(f(hi) < 0.0, "solve_sigma: failed to bracket the root");
  const util::RootResult r = util::find_root(f, 0.0, hi, 1e-14);
  RLB_REQUIRE(r.converged, "solve_sigma: root search did not converge");
  return {r.x, r.residual, r.iterations};
}

GiBoundSimResult simulate_gi_lower_bound(const sqd::BoundModel& model,
                                         const Distribution& interarrival,
                                         const AdaptivePlan& plan,
                                         util::ThreadBudget& budget) {
  RLB_REQUIRE(model.kind() == sqd::BoundKind::Lower,
              "GI simulation implemented for the lower bound model");
  plan.validate();
  const std::uint64_t batch = plan.batch_size();

  AdaptiveReport report;
  const Accum acc = run_replicas<Accum>(
      plan, budget,
      [&](std::uint64_t /*global_replica*/, std::uint64_t seed,
          std::uint64_t arrivals, std::uint64_t warmup) {
        return run_one_replica(model, interarrival, arrivals, warmup, batch,
                               seed);
      },
      [](Accum& into, const Accum& from) { into.merge(from); },
      [&](const Accum& merged) {
        return merged.waiting_ci.half_width_or_infinity(plan.confidence);
      },
      report);

  GiBoundSimResult out = assemble(model, acc);
  out.adaptive = report;
  return out;
}

}  // namespace rlb::sim
