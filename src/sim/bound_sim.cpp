#include "sim/bound_sim.h"

#include <algorithm>
#include <vector>

#include "sim/replica.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "statespace/state.h"
#include "util/require.h"

namespace rlb::sim {

namespace {

/// Raw per-replica accumulators; time averages are formed only after the
/// replica-index-order merge. The waiting-jobs CI comes from
/// holding-time-weighted batch means over the measured steps.
struct Accum {
  double weight_total = 0.0;
  double waiting_acc = 0.0;
  double jobs_acc = 0.0;
  double max_gap_seen = 0.0;
  std::uint64_t steps = 0;
  WeightedBatchMeans waiting_ci{1};

  void merge(const Accum& other) {
    weight_total += other.weight_total;
    waiting_acc += other.waiting_acc;
    jobs_acc += other.jobs_acc;
    max_gap_seen = std::max(max_gap_seen, other.max_gap_seen);
    steps += other.steps;
    waiting_ci.merge(other.waiting_ci);
  }
};

Accum run_one_replica(const sqd::BoundModel& model, std::uint64_t steps,
                      std::uint64_t warmup_steps, std::uint64_t batch,
                      std::uint64_t seed,
                      const std::vector<double>& rank_speeds) {
  Rng rng(seed);
  statespace::State state(static_cast<std::size_t>(model.params().N), 0);

  Accum acc;
  acc.waiting_ci = WeightedBatchMeans(batch);
  for (std::uint64_t step = 0; step < steps; ++step) {
    const std::vector<sqd::Transition> ts =
        model.transitions(state, rank_speeds);
    double total_rate = 0.0;
    for (const auto& t : ts) total_rate += t.rate;
    RLB_ASSERT(total_rate > 0.0, "absorbing state in bound model");

    if (step >= warmup_steps) {
      const double hold = 1.0 / total_rate;  // expected holding time
      const double waiting = statespace::waiting_jobs(state);
      acc.weight_total += hold;
      acc.waiting_acc += hold * waiting;
      acc.jobs_acc += hold * statespace::total_jobs(state);
      acc.waiting_ci.add(waiting, hold);
      acc.max_gap_seen = std::max(
          acc.max_gap_seen, static_cast<double>(statespace::gap(state)));
    }

    double u = rng.next_double() * total_rate;
    std::size_t chosen = ts.size() - 1;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      u -= ts[i].rate;
      if (u <= 0.0) {
        chosen = i;
        break;
      }
    }
    state = ts[chosen].to;
  }
  acc.steps = steps;
  return acc;
}

void validate_rank_speeds(const sqd::BoundModel& model,
                          const std::vector<double>& rank_speeds) {
  RLB_REQUIRE(rank_speeds.empty() ||
                  rank_speeds.size() ==
                      static_cast<std::size_t>(model.params().N),
              "rank_speeds must be empty or one entry per server");
  for (double sp : rank_speeds)
    RLB_REQUIRE(sp > 0.0, "rank speeds must be positive");
}

BoundSimResult assemble(const Accum& acc) {
  BoundSimResult out;
  out.mean_waiting_jobs = acc.waiting_acc / acc.weight_total;
  out.mean_jobs = acc.jobs_acc / acc.weight_total;
  out.max_gap_seen = acc.max_gap_seen;
  out.steps = acc.steps;
  out.ci95_waiting_jobs = acc.waiting_ci.half_width(0.95);
  return out;
}

}  // namespace

BoundSimResult simulate_bound_model(const sqd::BoundModel& model,
                                    const AdaptivePlan& plan,
                                    util::ThreadBudget& budget,
                                    const std::vector<double>& rank_speeds) {
  validate_rank_speeds(model, rank_speeds);
  plan.validate();
  const std::uint64_t batch = plan.batch_size();

  AdaptiveReport report;
  const Accum acc = run_replicas<Accum>(
      plan, budget,
      [&](std::uint64_t /*global_replica*/, std::uint64_t seed,
          std::uint64_t steps, std::uint64_t warmup) {
        return run_one_replica(model, steps, warmup, batch, seed,
                               rank_speeds);
      },
      [](Accum& into, const Accum& from) { into.merge(from); },
      [&](const Accum& merged) {
        return merged.waiting_ci.half_width_or_infinity(plan.confidence);
      },
      report);

  BoundSimResult out = assemble(acc);
  out.adaptive = report;
  return out;
}

}  // namespace rlb::sim
