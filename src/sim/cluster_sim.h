// Event-driven simulation of a dispatch cluster: one arrival stream, a
// dispatch policy, N FIFO servers with i.i.d. service times. Tracks every
// job individually, so it supports arbitrary interarrival and service
// distributions (unlike the fast jump-chain simulator). Each replica runs
// on the histogram-state engine of sim/compact_cluster.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/arrival_process.h"
#include "sim/distributions.h"
#include "sim/policy.h"
#include "sim/replica.h"
#include "sim/stats.h"
#include "sim/topology.h"
#include "util/thread_budget.h"

namespace rlb::sim {

struct ClusterConfig {
  int servers = 1;
  std::uint64_t jobs = 1'000'000;  ///< arrivals, total across all replicas
  std::uint64_t warmup = 100'000;  ///< leading arrivals discarded; total,
                                   ///< split evenly per replica
  std::uint64_t seed = 1;
  std::uint64_t batch_size = 0;  ///< 0: auto (per-replica measured / 30)

  /// Independent replicas the job budget is sharded into (sim/replica.h).
  /// Each replica clones the policy and arrival process and is seeded
  /// replica_seed(seed, r); replicas == 1 reproduces the legacy serial
  /// run bit-for-bit.
  int replicas = 1;

  /// Per-server speed factors for heterogeneous fleets (service time =
  /// sampled size / speed). Empty means all servers run at speed 1. The
  /// paper treats homogeneous servers; heterogeneity is the related-work
  /// setting of Mukhopadhyay et al. / Izagirre & Makowski, supported here
  /// for the example studies.
  std::vector<double> server_speeds;

  /// Rack topology (sim/topology.h, docs/TOPOLOGY.md). The default —
  /// one rack, no penalty — is the paper's symmetric model and runs
  /// bit-identically to a topology-blind run. When the topology is
  /// OBSERVABLE (racks > 1 with a cross-rack penalty or a locality-aware
  /// policy) each arrival draws a uniform home rack right after its
  /// service-time sample, the policy's rack-aware select runs, and
  /// cross-rack dispatch pays topology.penalize() on the service time
  /// (after any server-speed scaling). Validation rejects a policy whose
  /// required_racks() disagrees with topology.racks.
  Topology topology;

  /// Sojourn-quantile reservoir: capacity of the per-replica sample
  /// (ReservoirQuantiles) and the salt XOR-ed into the replica seed for
  /// the reservoir's own RNG, keeping its draws decoupled from the
  /// simulation stream. Defaults reproduce the committed baselines.
  std::size_t quantile_reservoir = 100'000;
  std::uint64_t quantile_seed_salt = 0xabcdefull;

  /// Time-windowed statistics (sim/windowed_stats.h, docs/WORKLOADS.md):
  /// when window_width > 0 EVERY departure's sojourn is also bucketed by
  /// departure time into windows [k*w, (k+1)*w) of the replica clock —
  /// warmup departures included, because windows describe the transient
  /// and dropping the head would bias the early windows. The recorders
  /// consume no simulation randomness (the per-window reservoirs carry
  /// their own streams seeded from replica seed ^ window_seed_salt), so
  /// turning windows on leaves every other output bit-identical.
  /// Default off; off reproduces the committed baselines bit-for-bit.
  double window_width = 0.0;
  std::size_t window_reservoir = 4'096;  ///< per-window quantile sample
  std::uint64_t window_seed_salt = 0x5eed77ull;

  /// SLA threshold tau: when > 0, count measured jobs whose sojourn
  /// exceeds tau (the diurnal_surge scenario's violation fraction).
  /// Pure counting — no randomness, no effect on other outputs.
  double sla_threshold = 0.0;
};

/// Per-window summary in a ClusterResult (cfg.window_width > 0 only).
/// Window k covers replica-clock [k*w, (k+1)*w); replicas merge at equal
/// transient age, so `count` and the moments aggregate all replicas'
/// k-th windows.
struct WindowSummary {
  double start = 0.0;          ///< window's left edge (replica clock)
  std::uint64_t count = 0;     ///< departures recorded in the window
  double mean_sojourn = 0.0;   ///< 0 when the window is empty
  double p99_sojourn = 0.0;    ///< reservoir-sampled; 0 when empty
};

struct ClusterResult {
  double mean_sojourn = 0.0;  ///< delay in the paper's terminology
  double mean_wait = 0.0;
  double ci95_sojourn = 0.0;        ///< batch-means half-width
  double mean_jobs_in_system = 0.0; ///< time average over the measured window
  double utilization = 0.0;         ///< busy-server time fraction
  double p50_sojourn = 0.0;         ///< reservoir-sampled quantiles
  double p95_sojourn = 0.0;
  double p99_sojourn = 0.0;
  std::uint64_t jobs_measured = 0;
  double sim_time = 0.0;  ///< summed over replicas (total simulated time)

  /// SLA accounting (cfg.sla_threshold > 0): measured jobs with sojourn
  /// over the threshold, as a count and a fraction of jobs_measured.
  std::uint64_t sla_violations = 0;
  double sla_violation_fraction = 0.0;

  /// Per-window transient statistics; empty unless cfg.window_width > 0.
  std::vector<WindowSummary> windows;

  /// Filled by simulate_cluster_adaptive only; default-initialized on
  /// the fixed-budget paths.
  AdaptiveReport adaptive;
};

/// Renewal arrivals: i.i.d. interarrival draws from `interarrival`.
/// Replicas run serially on the calling thread.
ClusterResult simulate_cluster(const ClusterConfig& cfg, Policy& policy,
                               const Distribution& interarrival,
                               const Distribution& service);

/// General (possibly correlated / Markov-modulated) arrival stream.
ClusterResult simulate_cluster(const ClusterConfig& cfg, Policy& policy,
                               ArrivalProcess& arrivals,
                               const Distribution& service);

/// As above, with replica workers drawn from `budget`; the result is
/// bit-identical for every budget.
ClusterResult simulate_cluster(const ClusterConfig& cfg, Policy& policy,
                               const Distribution& interarrival,
                               const Distribution& service,
                               util::ThreadBudget& budget);
ClusterResult simulate_cluster(const ClusterConfig& cfg, Policy& policy,
                               ArrivalProcess& arrivals,
                               const Distribution& service,
                               util::ThreadBudget& budget);

/// Exact checkpoint of an adaptive run's merged statistics after its
/// last completed round — the "round state" a result-cache entry stores
/// so a later --refine can resume the round schedule instead of starting
/// over (docs/CACHING.md). Restoring this state and continuing with
/// run_replicas_adaptive_resume reproduces, under the geometric planner,
/// the exact rounds a cold run at the tighter target would execute.
///
/// Windowed recorders are NOT checkpointable (they hold per-window
/// reservoirs with independent streams); capture and resume both require
/// cfg.window_width == 0.
struct ClusterRoundState {
  int rounds = 0;               ///< completed rounds
  std::uint64_t jobs_used = 0;  ///< cumulative budget, warmup included
  std::uint64_t batch = 1;      ///< CI batch size the run was built with
  MomentsState sojourn;
  MomentsState wait;
  BatchMeansState sojourn_ci;
  ReservoirState sojourn_quantiles;
  double area_jobs = 0.0;
  double busy_area = 0.0;
  double window = 0.0;
  double sim_time = 0.0;
  std::uint64_t sla_violations = 0;
  double sla_threshold = 0.0;
};

/// Sequential-stopping run (docs/PRECISION.md): rounds of plan.replicas
/// replicas grow the budget until the pooled CI half-width of the MEAN
/// SOJOURN TIME (the target statistic) at plan.confidence drops to
/// plan.target_ci or plan.max_jobs caps out. The plan supersedes
/// cfg.jobs / cfg.warmup / cfg.replicas / cfg.seed; every replica of
/// every round clones the policy and arrival process, exactly like the
/// fixed path. Result fields merge all rounds; result.adaptive reports
/// the stopping outcome. Bit-identical for every budget.
///
/// When `round_state` is non-null the merged statistics are checkpointed
/// into it after the run stops (requires cfg.window_width == 0); the
/// checkpoint changes no output bit.
ClusterResult simulate_cluster_adaptive(const ClusterConfig& cfg,
                                        Policy& policy,
                                        const Distribution& interarrival,
                                        const Distribution& service,
                                        const AdaptivePlan& plan,
                                        util::ThreadBudget& budget,
                                        ClusterRoundState* round_state =
                                            nullptr);
ClusterResult simulate_cluster_adaptive(const ClusterConfig& cfg,
                                        Policy& policy,
                                        ArrivalProcess& arrivals,
                                        const Distribution& service,
                                        const AdaptivePlan& plan,
                                        util::ThreadBudget& budget,
                                        ClusterRoundState* round_state =
                                            nullptr);

/// Resume a previously checkpointed adaptive run at a (typically
/// tighter) plan.target_ci — the --refine path. `state` must be the
/// checkpoint of a run with the same cfg and the same plan apart from
/// target_ci; the round schedule continues from state.rounds with fresh
/// replica streams, so no randomness is ever reused. Under the geometric
/// planner the result is bit-identical to a cold adaptive run at the new
/// target; under the variance planner it is statistically equivalent.
/// `round_state` re-checkpoints the refined statistics when non-null.
ClusterResult simulate_cluster_refine(const ClusterConfig& cfg,
                                      Policy& policy,
                                      const Distribution& interarrival,
                                      const Distribution& service,
                                      const AdaptivePlan& plan,
                                      const ClusterRoundState& state,
                                      util::ThreadBudget& budget,
                                      ClusterRoundState* round_state =
                                          nullptr);
ClusterResult simulate_cluster_refine(const ClusterConfig& cfg,
                                      Policy& policy,
                                      ArrivalProcess& arrivals,
                                      const Distribution& service,
                                      const AdaptivePlan& plan,
                                      const ClusterRoundState& state,
                                      util::ThreadBudget& budget,
                                      ClusterRoundState* round_state =
                                          nullptr);

}  // namespace rlb::sim
