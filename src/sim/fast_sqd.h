// Fast jump-chain simulator for the M/M SQ(d) system.
//
// With exponential service and FIFO queues (and no jockeying in the
// original SQ(d) system), a job that joins a queue holding k jobs has
// expected sojourn (k+1)/mu — each job ahead of it and itself complete in
// i.i.d. Exp(mu) time. Averaging (k+1)/mu over arrivals is therefore an
// unbiased estimator of E[Delay] with strictly lower variance than timing
// individual jobs, and it lets each arrival cost O(d) work. This is what
// makes the paper's 1e8-job simulations reproducible in seconds.
//
// Huge runs shard into parallel replicas (sim/replica.h): the job budget
// splits into `replicas` independent chains whose statistics merge with
// honest pooled confidence intervals, bit-identically for every thread
// count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/replica.h"
#include "sqd/params.h"
#include "util/thread_budget.h"

namespace rlb::sim {

struct FastSqdConfig {
  sqd::Params params;

  /// The fixed budget read only by the plan-less simulate_sqd_fast
  /// forwarder below (AdaptivePlan::fixed(replicas, jobs, warmup, seed));
  /// the plan entry ignores them. perf/ still sets them.
  std::uint64_t jobs = 4'000'000;
  std::uint64_t warmup = 400'000;
  std::uint64_t seed = 1;
  int replicas = 1;

  /// When > 0, also estimate the marginal queue-length tail P(Q >= k) for
  /// k = 0..tail_kmax by sampling one uniform server per arrival (PASTA).
  int tail_kmax = 0;
};

struct FastSqdResult {
  double mean_delay = 0.0;       ///< E[sojourn]
  double mean_wait = 0.0;        ///< E[sojourn] - 1/mu
  double ci95_delay = 0.0;       ///< pooled batch-means half-width
  double mean_queue_seen = 0.0;  ///< E[k]: queue length at the joined server
  std::uint64_t jobs_measured = 0;

  /// P(a uniformly chosen server holds >= k jobs), k = 0..tail_kmax;
  /// empty when tail_kmax == 0. Comparable with Mitzenmacher's s_k and
  /// with sqd::marginal_queue_tail.
  std::vector<double> marginal_tail;

  /// The run's stopping report (a fixed plan reports its one round);
  /// default-initialized by the plan-less forwarder.
  AdaptiveReport adaptive;
};

/// Run `plan` (sim/replica.h): rounds of plan.replicas jump chains,
/// seeded replica_seed(plan.base_seed, r). AdaptivePlan::fixed is one
/// round of a fixed budget; a --target-ci plan grows the budget until the
/// pooled CI half-width of the MEAN DELAY (the target statistic) at
/// plan.confidence drops to plan.target_ci or plan.max_jobs caps out
/// (docs/PRECISION.md). cfg supplies the system parameters and
/// tail_kmax. Result fields are the merged statistics over every round;
/// result.adaptive reports the stopping outcome. Bit-identical for every
/// budget.
FastSqdResult simulate_sqd_fast(const FastSqdConfig& cfg,
                                const AdaptivePlan& plan,
                                util::ThreadBudget& budget);

/// Forwarder kept because perf/ still calls it; no scenario does.
/// Runs AdaptivePlan::fixed(cfg.replicas, cfg.jobs, cfg.warmup, cfg.seed)
/// and leaves result.adaptive default-initialized.
FastSqdResult simulate_sqd_fast(const FastSqdConfig& cfg,
                                util::ThreadBudget& budget);

}  // namespace rlb::sim
