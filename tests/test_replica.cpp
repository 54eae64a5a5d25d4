#include "sim/replica.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/cluster_sim.h"
#include "sim/fast_sqd.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "util/thread_budget.h"

namespace {

using rlb::sim::AdaptivePlan;
using rlb::sim::AdaptiveReport;
using rlb::sim::BatchMeans;
using rlb::sim::FastSqdConfig;
using rlb::sim::replica_seed;
using rlb::sim::run_replicas;
using rlb::sim::simulate_sqd_fast;
using rlb::sim::StreamingMoments;
using rlb::util::ThreadBudget;
using rlb::sqd::Params;

// ---------------------------------------------------------------------------
// ThreadBudget
// ---------------------------------------------------------------------------

TEST(ThreadBudget, AcquireReleaseAccounting) {
  ThreadBudget budget(4);
  EXPECT_EQ(budget.total(), 4);
  EXPECT_EQ(budget.available(), 3);  // caller owns one slot
  EXPECT_EQ(budget.try_acquire(2), 2);
  EXPECT_EQ(budget.available(), 1);
  EXPECT_EQ(budget.try_acquire(5), 1);  // only one left
  EXPECT_EQ(budget.try_acquire(1), 0);  // exhausted
  budget.release(3);
  EXPECT_EQ(budget.available(), 3);
  EXPECT_EQ(budget.try_acquire(0), 0);
}

TEST(ThreadBudget, SerialBudgetNeverGrantsSlots) {
  ThreadBudget& serial = ThreadBudget::serial();
  EXPECT_EQ(serial.total(), 1);
  EXPECT_EQ(serial.try_acquire(8), 0);
}

TEST(ThreadBudget, RejectsEmptyBudget) {
  EXPECT_THROW(ThreadBudget(0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The fixed plan and seeds
// ---------------------------------------------------------------------------

/// Logging stub: records every (global index, seed, jobs, warmup) the
/// runner hands out, in merge order.
struct Rec {
  std::uint64_t global;
  std::uint64_t seed, jobs, warmup;
};
using Log = std::vector<Rec>;

Log run_logged(const AdaptivePlan& plan, ThreadBudget& budget,
               std::size_t converge_after_replicas, AdaptiveReport& report) {
  return run_replicas<Log>(
      plan, budget,
      [](std::uint64_t global, std::uint64_t seed, std::uint64_t jobs,
         std::uint64_t warmup) {
        return Log{{global, seed, jobs, warmup}};
      },
      [](Log& into, const Log& from) {
        into.insert(into.end(), from.begin(), from.end());
      },
      [&](const Log& merged) {
        return merged.size() >= converge_after_replicas ? 0.1 : 1.0;
      },
      report);
}

TEST(ReplicaPlan, SplitDividesJobsAndWarmupEvenly) {
  const AdaptivePlan plan = AdaptivePlan::fixed(4, 1'000'000, 100'000, 7);
  EXPECT_EQ(plan.replicas, 4);
  EXPECT_EQ(plan.initial_jobs, 1'000'000u);
  EXPECT_EQ(plan.max_jobs, 1'000'000u);
  EXPECT_EQ(plan.warmup_jobs, 25'000u);
  EXPECT_EQ(plan.base_seed, 7u);
  // One round of four equal shares, whatever the half-width says.
  AdaptiveReport report;
  const Log log = run_logged(plan, ThreadBudget::serial(), 1'000, report);
  ASSERT_EQ(log.size(), 4u);
  for (std::uint64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(log[r].global, r);
    EXPECT_EQ(log[r].seed, replica_seed(7, r));
    EXPECT_EQ(log[r].jobs, 250'000u);
    EXPECT_EQ(log[r].warmup, 25'000u);
  }
  EXPECT_EQ(report.rounds, 1);
  EXPECT_EQ(report.jobs_used, 1'000'000u);
  EXPECT_TRUE(report.converged);
}

TEST(ReplicaPlan, GuardsDegenerateConfigs) {
  EXPECT_THROW(AdaptivePlan::fixed(0, 1000, 100, 1), std::invalid_argument);
  EXPECT_THROW(AdaptivePlan::fixed(1, 1000, 1000, 1), std::invalid_argument);
  EXPECT_THROW(AdaptivePlan::fixed(1, 100, 200, 1), std::invalid_argument);
  // Sharding so thin every replica is pure warmup must be rejected, not
  // silently return zero-batch results.
  EXPECT_THROW(AdaptivePlan::fixed(600, 1000, 900, 1),
               std::invalid_argument);
  AdaptivePlan zero = AdaptivePlan::fixed(1, 10, 0, 1);
  zero.replicas = 0;
  EXPECT_THROW(zero.validate(), std::invalid_argument);
}

TEST(ReplicaSeed, Replica0KeepsBaseSeedOthersDecorrelate) {
  // Replica 0 continues the legacy serial stream, so a single-replica run
  // is bit-identical with the pre-replica code path.
  EXPECT_EQ(replica_seed(42, 0), 42u);
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t r = 0; r < 64; ++r) seeds.push_back(replica_seed(42, r));
  for (std::size_t a = 0; a < seeds.size(); ++a)
    for (std::size_t b = a + 1; b < seeds.size(); ++b)
      EXPECT_NE(seeds[a], seeds[b]) << "replicas " << a << ", " << b;
  EXPECT_EQ(replica_seed(42, 7), replica_seed(42, 7));
  EXPECT_NE(replica_seed(42, 7), replica_seed(42, 8));
  EXPECT_NE(replica_seed(42, 7), replica_seed(43, 7));
}

TEST(ReplicaSeed, IndicesBeyond32BitsKeepTheirOwnStreams) {
  // The round loop numbers replicas across rounds, so the index outgrows
  // an int on long runs; it must not wrap onto replica 0's base seed or
  // onto a low index.
  const std::uint64_t wide = std::uint64_t{1} << 32;
  EXPECT_NE(replica_seed(42, wide), 42u);
  EXPECT_NE(replica_seed(42, wide + 7), replica_seed(42, 7));
}

// ---------------------------------------------------------------------------
// run_replicas on a fixed plan
// ---------------------------------------------------------------------------

/// One round of `replicas` replicas of 10 jobs each, no warmup.
AdaptivePlan tiny_plan(int replicas) {
  return AdaptivePlan::fixed(replicas,
                             10 * static_cast<std::uint64_t>(replicas), 0,
                             11);
}

TEST(RunReplicas, MergesInIndexOrderForAnyBudget) {
  // A merge that is NOT commutative (string concatenation) detects any
  // ordering leak from the thread schedule.
  const auto run = [](std::uint64_t replica, std::uint64_t seed,
                      std::uint64_t, std::uint64_t) {
    rlb::sim::Rng rng(seed);
    return std::to_string(replica) + ":" +
           std::to_string(rng.next_u64() % 1000) + ";";
  };
  const auto merge = [](std::string& into, const std::string& from) {
    into += from;
  };
  const auto half_width = [](const std::string&) { return 0.0; };
  AdaptiveReport report;
  const std::string serial = run_replicas<std::string>(
      tiny_plan(16), ThreadBudget::serial(), run, merge, half_width, report);
  for (int trial = 0; trial < 5; ++trial) {
    ThreadBudget budget(4);
    EXPECT_EQ(run_replicas<std::string>(tiny_plan(16), budget, run, merge,
                                        half_width, report),
              serial);
  }
}

TEST(RunReplicas, PropagatesExceptions) {
  ThreadBudget budget(4);
  const auto run = [](std::uint64_t replica, std::uint64_t, std::uint64_t,
                      std::uint64_t) -> int {
    if (replica == 5) throw std::runtime_error("replica 5 exploded");
    return static_cast<int>(replica);
  };
  const auto merge = [](int& into, const int& from) { into += from; };
  const auto half_width = [](const int&) { return 0.0; };
  AdaptiveReport report;
  EXPECT_THROW(run_replicas<int>(tiny_plan(8), budget, run, merge,
                                 half_width, report),
               std::runtime_error);
  EXPECT_THROW(run_replicas<int>(tiny_plan(8), ThreadBudget::serial(), run,
                                 merge, half_width, report),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Replica-mode simulators
// ---------------------------------------------------------------------------

FastSqdConfig fast_cfg() {
  FastSqdConfig cfg;
  cfg.params = Params{4, 2, 0.8, 1.0};
  return cfg;
}

constexpr std::uint64_t kFastSeed = 20240612;

/// A fixed budget of `jobs` jobs (10% warmup) over `replicas` replicas.
AdaptivePlan fast_plan(int replicas, std::uint64_t jobs = 400'000) {
  return AdaptivePlan::fixed(replicas, jobs, jobs / 10, kFastSeed);
}

TEST(ReplicaSim, FastSqdSingleReplicaMatchesLegacySerialPath) {
  // One replica has no work to hand out: a budget of 4 must reproduce
  // the serial run bit-for-bit.
  const auto plan = fast_plan(1, 100'000);
  const auto serial = simulate_sqd_fast(fast_cfg(), plan,
                                        ThreadBudget::serial());
  ThreadBudget budget(4);
  const auto budgeted = simulate_sqd_fast(fast_cfg(), plan, budget);
  EXPECT_DOUBLE_EQ(serial.mean_delay, budgeted.mean_delay);
  EXPECT_DOUBLE_EQ(serial.ci95_delay, budgeted.ci95_delay);
  EXPECT_EQ(serial.jobs_measured, budgeted.jobs_measured);
}

TEST(ReplicaSim, FastSqdReplicasDeterministicAcrossThreadCounts) {
  const auto plan = fast_plan(8, 200'000);
  const auto serial = simulate_sqd_fast(fast_cfg(), plan,
                                        ThreadBudget::serial());
  for (int threads : {2, 4}) {
    ThreadBudget budget(threads);
    const auto parallel = simulate_sqd_fast(fast_cfg(), plan, budget);
    EXPECT_DOUBLE_EQ(serial.mean_delay, parallel.mean_delay);
    EXPECT_DOUBLE_EQ(serial.mean_wait, parallel.mean_wait);
    EXPECT_DOUBLE_EQ(serial.ci95_delay, parallel.ci95_delay);
    EXPECT_DOUBLE_EQ(serial.mean_queue_seen, parallel.mean_queue_seen);
    EXPECT_EQ(serial.jobs_measured, parallel.jobs_measured);
  }
}

TEST(ReplicaSim, FastSqdReplicasAgreeWithSingleStream) {
  // R independent replicas estimate the same stationary quantity; the
  // merged mean must agree with a single long run within joint CIs.
  auto& serial = ThreadBudget::serial();
  const auto one = simulate_sqd_fast(fast_cfg(), fast_plan(1), serial);
  const auto eight = simulate_sqd_fast(fast_cfg(), fast_plan(8), serial);
  EXPECT_EQ(eight.jobs_measured,
            8u * (400'000u / 8 - 40'000u / 8));
  EXPECT_NEAR(one.mean_delay, eight.mean_delay,
              4.0 * (one.ci95_delay + eight.ci95_delay) + 0.02);
}

TEST(ReplicaSim, FastSqdGuardsDegenerateConfigs) {
  auto& serial = ThreadBudget::serial();
  AdaptivePlan plan = fast_plan(1);
  plan.replicas = 0;
  EXPECT_THROW(simulate_sqd_fast(fast_cfg(), plan, serial),
               std::invalid_argument);
  plan = fast_plan(1);
  plan.warmup_jobs = plan.initial_jobs;  // jobs <= warmup
  EXPECT_THROW(simulate_sqd_fast(fast_cfg(), plan, serial),
               std::invalid_argument);
}

TEST(ReplicaSim, CiHalfwidthShrinksLikeSqrtReplicas) {
  // Fixed per-replica effort: R times the data should shrink the pooled
  // CI half-width like 1/sqrt(R). Compare R=2 vs R=32 (ratio 4) with wide
  // statistical tolerance. Both derive the same batch size (90 000
  // measured jobs per replica / 30), so only the batch COUNT differs.
  const auto small = AdaptivePlan::fixed(2, 2 * 100'000, 2 * 10'000,
                                         kFastSeed);
  const auto large = AdaptivePlan::fixed(32, 32 * 100'000, 32 * 10'000,
                                         kFastSeed);
  ASSERT_EQ(small.batch_size(), large.batch_size());
  auto& serial = ThreadBudget::serial();
  const double hw_small =
      simulate_sqd_fast(fast_cfg(), small, serial).ci95_delay;
  const double hw_large =
      simulate_sqd_fast(fast_cfg(), large, serial).ci95_delay;
  ASSERT_GT(hw_small, 0.0);
  ASSERT_GT(hw_large, 0.0);
  const double ratio = hw_small / hw_large;
  EXPECT_GT(ratio, 2.0) << "expected ~4x shrink from 16x the batches";
  EXPECT_LT(ratio, 8.0);
}

TEST(ReplicaSim, ClusterReplicasDeterministicAcrossThreadCounts) {
  rlb::sim::ClusterConfig cfg;
  cfg.servers = 5;
  const auto plan = AdaptivePlan::fixed(6, 120'000, 12'000, 999);
  const auto arr = rlb::sim::make_exponential(0.85 * 5);
  rlb::sim::RenewalArrivals arrivals(*arr);
  const auto svc = rlb::sim::make_exponential(1.0);

  rlb::sim::SqdPolicy policy(5, 2);
  const auto serial = rlb::sim::simulate_cluster(
      cfg, policy, arrivals, *svc, plan, ThreadBudget::serial());
  ThreadBudget budget(4);
  const auto parallel =
      rlb::sim::simulate_cluster(cfg, policy, arrivals, *svc, plan, budget);
  EXPECT_DOUBLE_EQ(serial.mean_sojourn, parallel.mean_sojourn);
  EXPECT_DOUBLE_EQ(serial.ci95_sojourn, parallel.ci95_sojourn);
  EXPECT_DOUBLE_EQ(serial.p99_sojourn, parallel.p99_sojourn);
  EXPECT_DOUBLE_EQ(serial.utilization, parallel.utilization);
  EXPECT_EQ(serial.jobs_measured, parallel.jobs_measured);
}

// ---------------------------------------------------------------------------
// AdaptivePlan and the round schedule
// ---------------------------------------------------------------------------

AdaptivePlan small_adaptive_plan() {
  AdaptivePlan plan;
  plan.replicas = 2;
  plan.target_ci = 0.5;
  plan.initial_jobs = 100;
  plan.growth_factor = 2.0;
  plan.max_jobs = 1'000;
  plan.warmup_jobs = 10;
  plan.base_seed = 99;
  return plan;
}

TEST(AdaptivePlan, GuardsDegenerateConfigs) {
  const AdaptivePlan good = small_adaptive_plan();
  good.validate();

  AdaptivePlan plan = good;
  plan.target_ci = 0.0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = good;
  plan.confidence = 0.8;  // not a t-table level
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = good;
  plan.max_jobs = plan.initial_jobs - 1;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = good;
  plan.growth_factor = 0.5;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = good;
  plan.warmup_jobs = plan.initial_jobs / plan.replicas;  // all warmup
  EXPECT_THROW(plan.validate(), std::invalid_argument);
  plan = good;
  plan.replicas = 0;
  EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(AdaptivePlan, RoundBudgetsGrowGeometricallyAndSaturate) {
  const AdaptivePlan plan = small_adaptive_plan();
  EXPECT_EQ(plan.round_jobs(0), 100u);
  EXPECT_EQ(plan.round_jobs(1), 200u);
  EXPECT_EQ(plan.round_jobs(2), 400u);
  EXPECT_EQ(plan.round_jobs(3), 800u);
  EXPECT_EQ(plan.round_jobs(4), 1'000u);   // clamped to max_jobs
  EXPECT_EQ(plan.round_jobs(200), 1'000u);  // no overflow at huge rounds
}

TEST(RunReplicasAdaptive, RoundScheduleIsGloballySeededAndInOrder) {
  const AdaptivePlan plan = small_adaptive_plan();
  AdaptiveReport report;
  const Log log =
      run_logged(plan, ThreadBudget::serial(), 6, report);  // 3 rounds

  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.rounds, 3);
  EXPECT_DOUBLE_EQ(report.half_width, 0.1);
  // Rounds of 100, 200, 400 jobs across 2 replicas.
  EXPECT_EQ(report.jobs_used, 700u);
  ASSERT_EQ(log.size(), 6u);
  const std::uint64_t expected_jobs[] = {50, 50, 100, 100, 200, 200};
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(log[i].global, i);  // merge order == global replica order
    EXPECT_EQ(log[i].seed, replica_seed(plan.base_seed, i));
    EXPECT_EQ(log[i].jobs, expected_jobs[i]);
    EXPECT_EQ(log[i].warmup, plan.warmup_jobs);
  }
}

TEST(RunReplicasAdaptive, ScheduleIsInvariantUnderTheBudget) {
  const AdaptivePlan plan = small_adaptive_plan();
  AdaptiveReport serial_report;
  const Log serial =
      run_logged(plan, ThreadBudget::serial(), 6, serial_report);
  for (int threads : {2, 4}) {
    ThreadBudget budget(threads);
    AdaptiveReport report;
    const Log parallel = run_logged(plan, budget, 6, report);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].global, serial[i].global);
      EXPECT_EQ(parallel[i].seed, serial[i].seed);
      EXPECT_EQ(parallel[i].jobs, serial[i].jobs);
    }
    EXPECT_EQ(report.jobs_used, serial_report.jobs_used);
    EXPECT_EQ(report.rounds, serial_report.rounds);
  }
}

TEST(RunReplicasAdaptive, CapsAtMaxJobsAndReportsNotConverged) {
  const AdaptivePlan plan = small_adaptive_plan();
  AdaptiveReport report;
  // Never converges: rounds of 100, 200, 400, then the 300-job remainder.
  const Log log = run_logged(plan, ThreadBudget::serial(), 1'000'000,
                             report);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.jobs_used, 1'000u);  // exactly the cap
  EXPECT_EQ(report.rounds, 4);
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.back().jobs, 150u);  // clamped final round
}

TEST(RunReplicasAdaptive, StopsWhenTheClampedTailCannotClearWarmup) {
  AdaptivePlan plan = small_adaptive_plan();
  plan.max_jobs = 130;  // 30 jobs left after round 0: 15 per replica,
  plan.warmup_jobs = 20;  // all of it warmup — unusable.
  AdaptiveReport report;
  const Log log =
      run_logged(plan, ThreadBudget::serial(), 1'000'000, report);
  EXPECT_FALSE(report.converged);
  EXPECT_EQ(report.rounds, 1);
  EXPECT_EQ(report.jobs_used, 100u);
  EXPECT_EQ(log.size(), 2u);
}

// ---------------------------------------------------------------------------
// Adaptive simulators
// ---------------------------------------------------------------------------

TEST(AdaptiveSim, OneRoundRunMatchesFixedBudgetBitForBit) {
  // A --target-ci plan that stops after round 0 has the same replica
  // shape, seeds, warmup and batch size as the fixed plan — the outputs
  // must be bit-identical, which pins "a fixed budget is a one-round
  // plan".
  const auto fixed =
      simulate_sqd_fast(fast_cfg(), fast_plan(4, 200'000),
                        ThreadBudget::serial());

  AdaptivePlan plan;
  plan.replicas = 4;
  plan.target_ci = 100.0;  // trivially met after round 0
  plan.initial_jobs = 200'000;
  plan.max_jobs = 2 * 200'000;
  plan.warmup_jobs = 20'000 / 4;  // the fixed plan's per-replica share
  plan.base_seed = kFastSeed;
  const auto adaptive =
      simulate_sqd_fast(fast_cfg(), plan, ThreadBudget::serial());

  EXPECT_TRUE(adaptive.adaptive.converged);
  EXPECT_EQ(adaptive.adaptive.rounds, 1);
  EXPECT_EQ(adaptive.adaptive.jobs_used, 200'000u);
  EXPECT_DOUBLE_EQ(adaptive.mean_delay, fixed.mean_delay);
  EXPECT_DOUBLE_EQ(adaptive.ci95_delay, fixed.ci95_delay);
  EXPECT_EQ(adaptive.jobs_measured, fixed.jobs_measured);
}

TEST(AdaptiveSim, ConvergesUnderTargetOnAnEasyCell) {
  const auto cfg = fast_cfg();
  AdaptivePlan plan;
  plan.replicas = 2;
  plan.target_ci = 0.05;  // easy at rho = 0.8, N = 4
  plan.initial_jobs = 40'000;
  plan.max_jobs = 32 * 40'000;
  plan.warmup_jobs = 40'000 / (10 * 2);
  plan.base_seed = kFastSeed;
  const auto res =
      simulate_sqd_fast(cfg, plan, ThreadBudget::serial());
  EXPECT_TRUE(res.adaptive.converged);
  EXPECT_LE(res.adaptive.half_width, plan.target_ci);
  EXPECT_GT(res.adaptive.half_width, 0.0);
  EXPECT_LT(res.adaptive.jobs_used, plan.max_jobs);  // stopped early
  EXPECT_GE(res.adaptive.rounds, 1);
}

TEST(AdaptiveSim, CapsAtMaxJobsOnAHardCell) {
  const auto cfg = fast_cfg();
  AdaptivePlan plan;
  plan.replicas = 4;
  plan.target_ci = 1e-7;  // unreachable inside the cap
  plan.initial_jobs = 20'000;
  plan.max_jobs = 100'000;
  plan.warmup_jobs = 20'000 / (10 * 4);
  plan.base_seed = kFastSeed;
  const auto res =
      simulate_sqd_fast(cfg, plan, ThreadBudget::serial());
  EXPECT_FALSE(res.adaptive.converged);
  EXPECT_GT(res.adaptive.half_width, plan.target_ci);
  EXPECT_EQ(res.adaptive.jobs_used, plan.max_jobs);  // burned the cap
}

TEST(AdaptiveSim, FastSqdAdaptiveDeterministicAcrossThreadCounts) {
  const auto cfg = fast_cfg();
  AdaptivePlan plan;
  plan.replicas = 4;
  plan.target_ci = 0.02;  // forces a few rounds
  plan.initial_jobs = 40'000;
  plan.max_jobs = 640'000;
  plan.warmup_jobs = 1'000;
  plan.base_seed = kFastSeed;
  const auto serial =
      simulate_sqd_fast(cfg, plan, ThreadBudget::serial());
  for (int threads : {2, 4}) {
    ThreadBudget budget(threads);
    const auto parallel = simulate_sqd_fast(cfg, plan, budget);
    EXPECT_DOUBLE_EQ(serial.mean_delay, parallel.mean_delay);
    EXPECT_DOUBLE_EQ(serial.ci95_delay, parallel.ci95_delay);
    EXPECT_DOUBLE_EQ(serial.adaptive.half_width,
                     parallel.adaptive.half_width);
    EXPECT_EQ(serial.adaptive.jobs_used, parallel.adaptive.jobs_used);
    EXPECT_EQ(serial.adaptive.rounds, parallel.adaptive.rounds);
    EXPECT_EQ(serial.adaptive.converged, parallel.adaptive.converged);
    EXPECT_EQ(serial.jobs_measured, parallel.jobs_measured);
  }
}

TEST(AdaptiveSim, WarmupPolicyControlsTheMeasuredShare) {
  // 32 replicas splitting a 32k-job round: every replica discards the
  // plan's absolute 400-job transient, however small its 1000-job share,
  // and the measured-job accounting shows it exactly.
  const auto cfg = fast_cfg();
  AdaptivePlan plan;
  plan.replicas = 32;
  plan.target_ci = 100.0;  // one round
  plan.initial_jobs = 32'000;
  plan.max_jobs = 64'000;
  plan.warmup_jobs = 400;
  plan.base_seed = kFastSeed;
  const auto res = simulate_sqd_fast(cfg, plan, ThreadBudget::serial());
  EXPECT_EQ(res.jobs_measured, 32u * (1'000 - 400));
}

TEST(AdaptiveSim, ClusterAdaptiveDeterministicAcrossThreadCounts) {
  rlb::sim::ClusterConfig cfg;
  cfg.servers = 5;
  const auto arr = rlb::sim::make_exponential(0.85 * 5);
  rlb::sim::RenewalArrivals arrivals(*arr);
  const auto svc = rlb::sim::make_exponential(1.0);

  AdaptivePlan plan;
  plan.replicas = 3;
  plan.target_ci = 0.05;
  plan.initial_jobs = 30'000;
  plan.max_jobs = 240'000;
  plan.warmup_jobs = 1'000;
  plan.base_seed = 999;

  rlb::sim::SqdPolicy policy(5, 2);
  const auto serial = rlb::sim::simulate_cluster(
      cfg, policy, arrivals, *svc, plan, ThreadBudget::serial());
  ThreadBudget budget(4);
  const auto parallel =
      rlb::sim::simulate_cluster(cfg, policy, arrivals, *svc, plan, budget);
  EXPECT_DOUBLE_EQ(serial.mean_sojourn, parallel.mean_sojourn);
  EXPECT_DOUBLE_EQ(serial.ci95_sojourn, parallel.ci95_sojourn);
  EXPECT_DOUBLE_EQ(serial.p99_sojourn, parallel.p99_sojourn);
  EXPECT_DOUBLE_EQ(serial.adaptive.half_width,
                   parallel.adaptive.half_width);
  EXPECT_EQ(serial.adaptive.jobs_used, parallel.adaptive.jobs_used);
  EXPECT_EQ(serial.adaptive.converged, parallel.adaptive.converged);
}

TEST(ReplicaSim, ClusterReplicasAgreeWithSingleStream) {
  rlb::sim::ClusterConfig cfg;
  cfg.servers = 4;
  const auto arr = rlb::sim::make_exponential(0.8 * 4);
  rlb::sim::RenewalArrivals arrivals(*arr);
  const auto svc = rlb::sim::make_exponential(1.0);
  rlb::sim::SqdPolicy policy(4, 2);
  auto& serial = ThreadBudget::serial();
  const auto a = rlb::sim::simulate_cluster(
      cfg, policy, arrivals, *svc,
      AdaptivePlan::fixed(1, 400'000, 40'000, 4242), serial);
  const auto b = rlb::sim::simulate_cluster(
      cfg, policy, arrivals, *svc,
      AdaptivePlan::fixed(8, 400'000, 40'000, 4242), serial);
  EXPECT_NEAR(a.mean_sojourn, b.mean_sojourn,
              4.0 * (a.ci95_sojourn + b.ci95_sojourn) + 0.02);
  EXPECT_NEAR(a.utilization, b.utilization, 0.02);
  EXPECT_NEAR(a.p95_sojourn, b.p95_sojourn, 0.25);
}

}  // namespace
