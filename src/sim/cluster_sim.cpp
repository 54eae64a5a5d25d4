#include "sim/cluster_sim.h"

#include <cmath>
#include <string>

#include "sim/cluster_accum.h"
#include "sim/compact_cluster.h"
#include "sim/replica.h"
#include "sim/stats.h"
#include "util/require.h"

namespace rlb::sim {

namespace {

void validate_config(const ClusterConfig& cfg, const Policy& policy) {
  RLB_REQUIRE(cfg.servers >= 1, "need at least one server");
  RLB_REQUIRE(cfg.server_speeds.empty() ||
                  cfg.server_speeds.size() ==
                      static_cast<std::size_t>(cfg.servers),
              "server_speeds must be empty or one entry per server");
  for (double sp : cfg.server_speeds)
    RLB_REQUIRE(sp > 0.0, "server speeds must be positive");
  RLB_REQUIRE(cfg.quantile_reservoir >= 1,
              "quantile reservoir needs capacity >= 1");
  RLB_REQUIRE(std::isfinite(cfg.window_width) && cfg.window_width >= 0.0,
              "window width must be finite and non-negative (0 = off)");
  RLB_REQUIRE(cfg.window_width == 0.0 || cfg.window_reservoir >= 1,
              "window reservoir needs capacity >= 1");
  RLB_REQUIRE(std::isfinite(cfg.sla_threshold) && cfg.sla_threshold >= 0.0,
              "SLA threshold must be finite and non-negative (0 = off)");
  cfg.topology.validate(cfg.servers);
  const int req = policy.required_racks();
  RLB_REQUIRE(req == 0 || req == cfg.topology.racks,
              "policy '" + policy.name() + "' was built for " +
                  std::to_string(req) + " racks but the topology has " +
                  std::to_string(cfg.topology.racks));
}

/// One replica: fresh clones of the mutable policy / arrival state, so a
/// single replica matches a reset()-then-run.
ClusterAccum run_one_replica(const ClusterConfig& cfg, Policy& policy,
                             ArrivalProcess& arrivals,
                             const Distribution& service, std::uint64_t jobs,
                             std::uint64_t warmup, std::uint64_t batch,
                             std::uint64_t seed) {
  const auto replica_policy = policy.clone();
  const auto replica_arrivals = arrivals.clone();
  replica_policy->reset();
  replica_arrivals->reset();
  CompactClusterEngine engine(cfg, jobs, warmup, batch, seed,
                              *replica_policy, *replica_arrivals, service);
  return engine.run();
}

ClusterResult assemble(const ClusterConfig& cfg, const ClusterAccum& acc) {
  ClusterResult out;
  out.mean_sojourn = acc.sojourn_stats.mean();
  out.mean_wait = acc.wait_stats.mean();
  out.ci95_sojourn = acc.sojourn_ci.half_width(0.95);
  if (acc.sojourn_quantiles.count() > 0) {
    out.p50_sojourn = acc.sojourn_quantiles.quantile(0.50);
    out.p95_sojourn = acc.sojourn_quantiles.quantile(0.95);
    out.p99_sojourn = acc.sojourn_quantiles.quantile(0.99);
  }
  out.jobs_measured = acc.sojourn_stats.count();
  out.sim_time = acc.sim_time;
  if (acc.window > 0.0) {
    out.mean_jobs_in_system = acc.area_jobs / acc.window;
    out.utilization = acc.busy_area / acc.window / cfg.servers;
  }
  out.sla_violations = acc.sla_violations;
  if (out.jobs_measured > 0)
    out.sla_violation_fraction =
        static_cast<double>(acc.sla_violations) /
        static_cast<double>(out.jobs_measured);
  if (acc.windowed_sojourn) {
    const std::size_t n = acc.windowed_sojourn->windows();
    out.windows.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      WindowSummary ws;
      ws.start = acc.windowed_sojourn->window_start(w);
      ws.count = acc.windowed_sojourn->count(w);
      if (ws.count > 0) {
        ws.mean_sojourn = acc.windowed_sojourn->mean(w);
        ws.p99_sojourn = acc.windowed_p99->quantile(w, 0.99);
      }
      out.windows.push_back(ws);
    }
  }
  return out;
}

/// Checkpoint the merged accumulator + stopping report into a
/// ClusterRoundState (see cluster_sim.h). Windowed recorders cannot be
/// checkpointed, so capture refuses when they are armed.
ClusterRoundState snapshot_round_state(const ClusterAccum& acc,
                                       const AdaptiveReport& report,
                                       std::uint64_t batch) {
  RLB_REQUIRE(!acc.windowed_sojourn.has_value(),
              "round-state checkpoints require windowed statistics off");
  ClusterRoundState s;
  s.rounds = report.rounds;
  s.jobs_used = report.jobs_used;
  s.batch = batch;
  s.sojourn = acc.sojourn_stats.state();
  s.wait = acc.wait_stats.state();
  s.sojourn_ci = acc.sojourn_ci.state();
  s.sojourn_quantiles = acc.sojourn_quantiles.state();
  s.area_jobs = acc.area_jobs;
  s.busy_area = acc.busy_area;
  s.window = acc.window;
  s.sim_time = acc.sim_time;
  s.sla_violations = acc.sla_violations;
  s.sla_threshold = acc.sla_threshold;
  return s;
}

/// Rebuild the merged accumulator a checkpoint describes, bit-for-bit.
ClusterAccum restore_round_state(const ClusterRoundState& s) {
  ClusterAccum acc;
  acc.sojourn_stats = StreamingMoments::from_state(s.sojourn);
  acc.wait_stats = StreamingMoments::from_state(s.wait);
  acc.sojourn_ci = BatchMeans::from_state(s.sojourn_ci);
  acc.sojourn_quantiles = ReservoirQuantiles::from_state(s.sojourn_quantiles);
  acc.area_jobs = s.area_jobs;
  acc.busy_area = s.busy_area;
  acc.window = s.window;
  acc.sim_time = s.sim_time;
  acc.sla_violations = s.sla_violations;
  acc.sla_threshold = s.sla_threshold;
  return acc;
}

}  // namespace

ClusterResult simulate_cluster(const ClusterConfig& cfg, Policy& policy,
                               const Distribution& interarrival,
                               const Distribution& service) {
  return simulate_cluster(cfg, policy, interarrival, service,
                          util::ThreadBudget::serial());
}

ClusterResult simulate_cluster(const ClusterConfig& cfg, Policy& policy,
                               ArrivalProcess& arrivals,
                               const Distribution& service) {
  return simulate_cluster(cfg, policy, arrivals, service,
                          util::ThreadBudget::serial());
}

ClusterResult simulate_cluster(const ClusterConfig& cfg, Policy& policy,
                               const Distribution& interarrival,
                               const Distribution& service,
                               util::ThreadBudget& budget) {
  RenewalArrivals arrivals(interarrival);
  return simulate_cluster(cfg, policy, arrivals, service, budget);
}

ClusterResult simulate_cluster(const ClusterConfig& cfg, Policy& policy,
                               ArrivalProcess& arrivals,
                               const Distribution& service,
                               util::ThreadBudget& budget) {
  validate_config(cfg, policy);
  const ReplicaPlan plan =
      ReplicaPlan::split(cfg.replicas, cfg.jobs, cfg.warmup, cfg.seed);
  const std::uint64_t batch = plan.batch_size(cfg.batch_size);

  const ClusterAccum acc = run_replicas<ClusterAccum>(
      plan, budget,
      [&](int /*replica*/, std::uint64_t seed) {
        return run_one_replica(cfg, policy, arrivals, service,
                               plan.jobs_per_replica, plan.warmup, batch,
                               seed);
      },
      [](ClusterAccum& into, const ClusterAccum& from) { into.merge(from); });

  return assemble(cfg, acc);
}

ClusterResult simulate_cluster_adaptive(const ClusterConfig& cfg,
                                        Policy& policy,
                                        const Distribution& interarrival,
                                        const Distribution& service,
                                        const AdaptivePlan& plan,
                                        util::ThreadBudget& budget,
                                        ClusterRoundState* round_state) {
  RenewalArrivals arrivals(interarrival);
  return simulate_cluster_adaptive(cfg, policy, arrivals, service, plan,
                                   budget, round_state);
}

ClusterResult simulate_cluster_adaptive(const ClusterConfig& cfg,
                                        Policy& policy,
                                        ArrivalProcess& arrivals,
                                        const Distribution& service,
                                        const AdaptivePlan& plan,
                                        util::ThreadBudget& budget,
                                        ClusterRoundState* round_state) {
  validate_config(cfg, policy);
  plan.validate();
  RLB_REQUIRE(round_state == nullptr || cfg.window_width == 0.0,
              "round-state checkpoints require windowed statistics off");
  const std::uint64_t batch = plan.batch_size(cfg.batch_size);

  AdaptiveReport report;
  const ClusterAccum acc = run_replicas_adaptive<ClusterAccum>(
      plan, budget,
      [&](int /*global_replica*/, std::uint64_t seed, std::uint64_t jobs,
          std::uint64_t warmup) {
        return run_one_replica(cfg, policy, arrivals, service, jobs,
                               warmup, batch, seed);
      },
      [](ClusterAccum& into, const ClusterAccum& from) { into.merge(from); },
      [&](const ClusterAccum& merged) {
        return merged.sojourn_ci.half_width_or_infinity(plan.confidence);
      },
      report);

  if (round_state != nullptr)
    *round_state = snapshot_round_state(acc, report, batch);
  ClusterResult out = assemble(cfg, acc);
  out.adaptive = report;
  return out;
}

ClusterResult simulate_cluster_refine(const ClusterConfig& cfg,
                                      Policy& policy,
                                      const Distribution& interarrival,
                                      const Distribution& service,
                                      const AdaptivePlan& plan,
                                      const ClusterRoundState& state,
                                      util::ThreadBudget& budget,
                                      ClusterRoundState* round_state) {
  RenewalArrivals arrivals(interarrival);
  return simulate_cluster_refine(cfg, policy, arrivals, service, plan, state,
                                 budget, round_state);
}

ClusterResult simulate_cluster_refine(const ClusterConfig& cfg,
                                      Policy& policy,
                                      ArrivalProcess& arrivals,
                                      const Distribution& service,
                                      const AdaptivePlan& plan,
                                      const ClusterRoundState& state,
                                      util::ThreadBudget& budget,
                                      ClusterRoundState* round_state) {
  validate_config(cfg, policy);
  plan.validate();
  RLB_REQUIRE(cfg.window_width == 0.0,
              "refine resumption requires windowed statistics off");
  const std::uint64_t batch = plan.batch_size(cfg.batch_size);
  // The checkpointed statistics were batched at the original run's batch
  // size; resuming with a different one would mix batch granularities
  // and break the cold-run equivalence.
  RLB_REQUIRE(batch == state.batch,
              "refine plan derives a different batch size than the "
              "checkpointed run used");

  AdaptiveReport report;
  const ClusterAccum acc = run_replicas_adaptive_resume<ClusterAccum>(
      plan, AdaptiveResume{state.rounds, state.jobs_used},
      restore_round_state(state), budget,
      [&](int /*global_replica*/, std::uint64_t seed, std::uint64_t jobs,
          std::uint64_t warmup) {
        return run_one_replica(cfg, policy, arrivals, service, jobs,
                               warmup, batch, seed);
      },
      [](ClusterAccum& into, const ClusterAccum& from) { into.merge(from); },
      [&](const ClusterAccum& merged) {
        return merged.sojourn_ci.half_width_or_infinity(plan.confidence);
      },
      report);

  if (round_state != nullptr)
    *round_state = snapshot_round_state(acc, report, batch);
  ClusterResult out = assemble(cfg, acc);
  out.adaptive = report;
  return out;
}

}  // namespace rlb::sim
