#include "sim/compact_cluster.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_cluster_engine.h"
#include "sim/cluster_sim.h"
#include "sim/replica.h"
#include "sqd/exact_reference.h"
#include "util/thread_budget.h"

namespace {

using namespace rlb::sim;

// ---------------------------------------------------------------------------
// LevelDirectory

TEST(LevelDirectory, StartsAllIdleInServerIndexOrder) {
  LevelDirectory dir(4);
  EXPECT_EQ(dir.servers(), 4);
  EXPECT_EQ(dir.max_level(), 0);
  EXPECT_EQ(dir.count_at(0), 4);
  EXPECT_EQ(dir.count_at(1), 0);
  EXPECT_EQ(dir.idle_count(), 4);
  EXPECT_EQ(dir.idle_head(), 0);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(dir.level_of(s), 0);
}

TEST(LevelDirectory, TracksLevelsThroughIncrementDecrement) {
  LevelDirectory dir(3);
  dir.increment(1);
  dir.increment(1);
  dir.increment(2);
  EXPECT_EQ(dir.level_of(0), 0);
  EXPECT_EQ(dir.level_of(1), 2);
  EXPECT_EQ(dir.level_of(2), 1);
  EXPECT_EQ(dir.max_level(), 2);
  EXPECT_EQ(dir.count_at(0), 1);
  EXPECT_EQ(dir.count_at(1), 1);
  EXPECT_EQ(dir.count_at(2), 1);
  EXPECT_EQ(dir.idle_count(), 1);

  dir.decrement(1);
  EXPECT_EQ(dir.level_of(1), 1);
  EXPECT_EQ(dir.max_level(), 1);
  EXPECT_EQ(dir.count_at(1), 2);
  dir.decrement(1);
  dir.decrement(2);
  EXPECT_EQ(dir.max_level(), 0);
  EXPECT_EQ(dir.idle_count(), 3);
}

TEST(LevelDirectory, IdleFifoIsFirstIdleFirstOut) {
  // Busy up 0..3 then idle them in the order 2, 0, 3, 1: the FIFO head
  // must walk that order, matching the legacy I-queue contract.
  LevelDirectory dir(4);
  for (int s = 0; s < 4; ++s) dir.increment(s);
  EXPECT_EQ(dir.idle_count(), 0);
  EXPECT_EQ(dir.idle_head(), -1);
  for (int s : {2, 0, 3, 1}) dir.decrement(s);
  EXPECT_EQ(dir.idle_head(), 2);
  dir.increment(2);
  EXPECT_EQ(dir.idle_head(), 0);
  dir.increment(0);
  EXPECT_EQ(dir.idle_head(), 3);
  // O(1) removal from the middle: retire 1 (the tail), head unchanged.
  dir.increment(1);
  EXPECT_EQ(dir.idle_head(), 3);
  dir.increment(3);
  EXPECT_EQ(dir.idle_head(), -1);
}

TEST(LevelDirectory, BlocksPartitionTheServers) {
  LevelDirectory dir(6);
  Rng rng(7);
  for (int step = 0; step < 2'000; ++step) {
    const int s = static_cast<int>(rng.uniform_int(6));
    if (dir.level_of(s) == 0 || rng.uniform_int(2) == 0)
      dir.increment(s);
    else
      dir.decrement(s);
    // Invariants: counts sum to n, every server is inside its block.
    int total = 0;
    for (int k = 0; k <= dir.max_level(); ++k) total += dir.count_at(k);
    ASSERT_EQ(total, 6);
    for (int v = 0; v < 6; ++v) {
      const int k = dir.level_of(v);
      bool found = false;
      for (int i = 0; i < dir.count_at(k); ++i)
        if (dir.at(k, i) == v) found = true;
      ASSERT_TRUE(found) << "server " << v << " missing from level " << k;
    }
  }
}

TEST(LevelDirectory, SampleAtLevelHitsEveryMember) {
  LevelDirectory dir(8);
  for (int s : {1, 3, 6}) dir.increment(s);
  Rng rng(11);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 3'000; ++i) ++hits[dir.sample_at_level(1, rng)];
  for (int s = 0; s < 8; ++s) {
    if (s == 1 || s == 3 || s == 6)
      EXPECT_GT(hits[s], 800);  // ~1000 each
    else
      EXPECT_EQ(hits[s], 0);
  }
  EXPECT_THROW(static_cast<void>(dir.sample_at_level(2, rng)),
               std::invalid_argument);
}

TEST(LevelDirectory, SampleBusyHitsEveryBusyServer) {
  // Busy servers at levels 1, 2 and 3: one draw each, uniform over all
  // of them whatever their level; idle servers never come up.
  LevelDirectory dir(8);
  for (int s : {1, 3, 3, 6, 6, 6}) dir.increment(s);
  Rng rng(13);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 3'000; ++i) ++hits[dir.sample_busy(rng)];
  for (int s = 0; s < 8; ++s) {
    if (s == 1 || s == 3 || s == 6)
      EXPECT_GT(hits[s], 800) << s;  // ~1000 each
    else
      EXPECT_EQ(hits[s], 0) << s;
  }
  // Exactly one draw per sample.
  Rng a(5), b(5);
  (void)dir.sample_busy(a);
  (void)b.uniform_int(3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  for (int s : {1, 3, 3, 6, 6, 6}) dir.decrement(s);
  EXPECT_THROW(static_cast<void>(dir.sample_busy(rng)),
               std::invalid_argument);
}

TEST(LevelDirectory, RandomizedStressMatchesReferenceModel) {
  // Layout-agnostic invariant stress at a size where blocks split and
  // merge constantly: drive the directory with random level moves and
  // check, against a naive reference (a level array plus an idle deque),
  // every observable the public API exposes — per-server levels, counts,
  // block partition, max level, and the FULL idle-FIFO order, head to
  // tail, walked through idle_next and drained at the end.
  const int n = 64;
  LevelDirectory dir(n);
  std::vector<int> ref_level(n, 0);
  std::deque<int> ref_idle;
  for (int s = 0; s < n; ++s) ref_idle.push_back(s);

  Rng rng(2026);
  for (int step = 0; step < 20'000; ++step) {
    const int s = static_cast<int>(rng.uniform_int(n));
    if (ref_level[s] == 0 || rng.uniform_int(3) > 0) {
      dir.increment(s);
      if (ref_level[s] == 0)
        ref_idle.erase(std::find(ref_idle.begin(), ref_idle.end(), s));
      ++ref_level[s];
    } else {
      dir.decrement(s);
      --ref_level[s];
      if (ref_level[s] == 0) ref_idle.push_back(s);
    }

    ASSERT_EQ(dir.idle_count(), static_cast<int>(ref_idle.size()));
    ASSERT_EQ(dir.idle_head(), ref_idle.empty() ? -1 : ref_idle.front());
    const int ref_max = *std::max_element(ref_level.begin(), ref_level.end());
    ASSERT_EQ(dir.max_level(), ref_max);

    if (step % 500 != 0) continue;  // the full O(n) audit, periodically
    std::vector<int> ref_count(ref_max + 1, 0);
    for (int v = 0; v < n; ++v) {
      ASSERT_EQ(dir.level_of(v), ref_level[v]);
      ++ref_count[ref_level[v]];
    }
    int total = 0;
    for (int k = 0; k <= ref_max; ++k) {
      ASSERT_EQ(dir.count_at(k), ref_count[k]);
      total += dir.count_at(k);
      for (int i = 0; i < dir.count_at(k); ++i)
        ASSERT_EQ(dir.level_of(dir.at(k, i)), k);
    }
    ASSERT_EQ(total, n);
    // The whole I-queue, head to tail, through idle_next.
    std::vector<int> fifo;
    for (int v = dir.idle_head(); v >= 0; v = dir.idle_next(v))
      fifo.push_back(v);
    ASSERT_EQ(fifo, std::vector<int>(ref_idle.begin(), ref_idle.end()));
  }

  // Drain the idle FIFO by busying its head repeatedly: the heads must
  // come off in exactly the reference deque's order (first idle, first
  // out), pinning the whole linked-list order, not just the head.
  while (dir.idle_count() > 0) {
    const int head = dir.idle_head();
    ASSERT_EQ(head, ref_idle.front());
    ref_idle.pop_front();
    dir.increment(head);
  }
  EXPECT_EQ(dir.idle_head(), -1);
}

TEST(LevelDirectory, RejectsBadOperations) {
  LevelDirectory dir(2);
  EXPECT_THROW(dir.decrement(0), std::invalid_argument);
  EXPECT_THROW(LevelDirectory(0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(dir.count_at(-1)), std::invalid_argument);
}

TEST(LevelDirectory, ArmedRackFifosTrackBecameIdleOrderPerRack) {
  LevelDirectory dir(6);
  dir.arm_racks(2);
  EXPECT_EQ(dir.racks(), 2);
  // Time zero: each rack's FIFO holds its servers in index order.
  EXPECT_EQ(dir.rack_idle_head(0, 3), 0);
  EXPECT_EQ(dir.rack_idle_head(3, 6), 3);
  for (int s = 0; s < 6; ++s) dir.increment(s);
  EXPECT_EQ(dir.rack_idle_head(0, 3), -1);
  EXPECT_EQ(dir.rack_idle_head(3, 6), -1);
  // Idle them out of index order: each rack's head is its first-idled.
  for (int s : {4, 1, 3, 0}) dir.decrement(s);
  EXPECT_EQ(dir.rack_idle_head(0, 3), 1);
  EXPECT_EQ(dir.rack_idle_head(3, 6), 4);
  dir.increment(4);
  EXPECT_EQ(dir.rack_idle_head(3, 6), 3);
  dir.increment(1);
  EXPECT_EQ(dir.rack_idle_head(0, 3), 0);
  EXPECT_EQ(dir.idle_head(), 3);  // global FIFO unaffected: 3 idled first
}

TEST(LevelDirectory, ArmRacksValidatesAndUnarmedRefuses) {
  LevelDirectory dir(6);
  EXPECT_THROW(dir.arm_racks(4), std::invalid_argument);  // 6 % 4 != 0
  EXPECT_THROW(dir.arm_racks(0), std::invalid_argument);
  dir.increment(0);
  EXPECT_THROW(dir.arm_racks(2), std::invalid_argument);  // not all idle
  // An unarmed directory has no per-rack FIFOs to answer from.
  EXPECT_EQ(dir.racks(), 0);
  EXPECT_THROW(static_cast<void>(dir.rack_idle_head(0, 3)),
               std::invalid_argument);
  // One rack is the whole I-queue.
  LevelDirectory one(4);
  one.arm_racks(1);
  for (int s : {0, 1}) one.increment(s);
  one.decrement(0);
  EXPECT_EQ(one.rack_idle_head(0, 4), one.idle_head());
  EXPECT_EQ(one.rack_idle_head(0, 4), 2);
}

TEST(LevelDirectory, RandomizedRackFifosMatchReferenceModel) {
  // Drive an armed directory with random level moves and check every
  // rack's idle head against per-rack reference deques — the per-rack
  // analogue of the global FIFO stress above.
  const int n = 12, racks = 3, per = n / racks;
  LevelDirectory dir(n);
  dir.arm_racks(racks);
  std::vector<int> ref_level(n, 0);
  std::vector<std::deque<int>> ref(racks);
  for (int s = 0; s < n; ++s) ref[s / per].push_back(s);

  Rng rng(515);
  for (int step = 0; step < 20'000; ++step) {
    const int s = static_cast<int>(rng.uniform_int(n));
    if (ref_level[s] == 0 || rng.uniform_int(3) > 0) {
      dir.increment(s);
      if (ref_level[s] == 0) {
        auto& q = ref[s / per];
        q.erase(std::find(q.begin(), q.end(), s));
      }
      ++ref_level[s];
    } else {
      dir.decrement(s);
      --ref_level[s];
      if (ref_level[s] == 0) ref[s / per].push_back(s);
    }
    for (int r = 0; r < racks; ++r)
      ASSERT_EQ(dir.rack_idle_head(r * per, (r + 1) * per),
                ref[r].empty() ? -1 : ref[r].front())
          << "rack " << r << " step " << step;
  }
}

// ---------------------------------------------------------------------------
// Engine equivalence: CompactClusterEngine must be bit-identical to the
// per-server oracle (reference_cluster_engine.h), replica by replica.

/// The bit pattern of a double: equality here is bitwise, stricter than
/// == (which equates -0.0 and 0.0).
std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void expect_same_moments(const MomentsState& a, const MomentsState& b,
                         const std::string& label) {
  EXPECT_EQ(a.count, b.count) << label;
  EXPECT_EQ(bits(a.mean), bits(b.mean)) << label;
  EXPECT_EQ(bits(a.m2), bits(b.m2)) << label;
  EXPECT_EQ(bits(a.min), bits(b.min)) << label;
  EXPECT_EQ(bits(a.max), bits(b.max)) << label;
}

/// Every raw statistic a replica accumulates, compared bitwise.
void expect_identical(const ClusterAccum& a, const ClusterAccum& b,
                      const std::string& label) {
  expect_same_moments(a.sojourn_stats.state(), b.sojourn_stats.state(),
                      label + " sojourn");
  expect_same_moments(a.wait_stats.state(), b.wait_stats.state(),
                      label + " wait");
  const BatchMeansState ca = a.sojourn_ci.state();
  const BatchMeansState cb = b.sojourn_ci.state();
  EXPECT_EQ(ca.batch_size, cb.batch_size) << label;
  EXPECT_EQ(ca.in_batch, cb.in_batch) << label;
  EXPECT_EQ(bits(ca.batch_sum), bits(cb.batch_sum)) << label;
  expect_same_moments(ca.batch_means, cb.batch_means, label + " batches");
  const ReservoirState qa = a.sojourn_quantiles.state();
  const ReservoirState qb = b.sojourn_quantiles.state();
  EXPECT_EQ(qa.seen, qb.seen) << label;
  EXPECT_EQ(qa.rng_state, qb.rng_state) << label;
  ASSERT_EQ(qa.sample.size(), qb.sample.size()) << label;
  for (std::size_t i = 0; i < qa.sample.size(); ++i)
    ASSERT_EQ(bits(qa.sample[i]), bits(qb.sample[i])) << label << " " << i;
  EXPECT_EQ(bits(a.area_jobs), bits(b.area_jobs)) << label;
  EXPECT_EQ(bits(a.busy_area), bits(b.busy_area)) << label;
  EXPECT_EQ(bits(a.window), bits(b.window)) << label;
  EXPECT_EQ(bits(a.sim_time), bits(b.sim_time)) << label;
  EXPECT_EQ(a.sla_violations, b.sla_violations) << label;
  ASSERT_EQ(a.windowed_sojourn.has_value(), b.windowed_sojourn.has_value())
      << label;
  if (!a.windowed_sojourn) return;
  ASSERT_EQ(a.windowed_sojourn->windows(), b.windowed_sojourn->windows())
      << label;
  for (std::size_t w = 0; w < a.windowed_sojourn->windows(); ++w) {
    expect_same_moments(a.windowed_sojourn->window(w).state(),
                        b.windowed_sojourn->window(w).state(),
                        label + " window " + std::to_string(w));
    ASSERT_EQ(a.windowed_p99->count(w), b.windowed_p99->count(w)) << label;
    if (a.windowed_p99->count(w) > 0) {
      EXPECT_EQ(bits(a.windowed_p99->quantile(w, 0.99)),
                bits(b.windowed_p99->quantile(w, 0.99)))
          << label << " window " << w;
    }
  }
}

/// One replica on `Engine`, set up exactly as simulate_cluster sets one
/// up: fresh, reset clones of the policy and the arrival process.
template <typename Engine>
ClusterAccum run_replica(const ClusterConfig& cfg, const Policy& policy,
                         const ArrivalProcess& arrivals,
                         const Distribution& service, std::uint64_t jobs,
                         std::uint64_t warmup, std::uint64_t batch,
                         std::uint64_t seed) {
  const auto replica_policy = policy.clone();
  const auto replica_arrivals = arrivals.clone();
  replica_policy->reset();
  replica_arrivals->reset();
  Engine engine(cfg, jobs, warmup, batch, seed, *replica_policy,
                *replica_arrivals, service);
  return engine.run();
}

using Replicas = std::vector<ClusterAccum>;

/// Every replica the round loop runs for `plan` on `Engine`, in merge
/// order, set up as simulate_cluster sets them up. The stopping
/// statistic is the pooled sojourn CI of the replicas so far.
template <typename Engine>
Replicas run_plan(const ClusterConfig& cfg, const Policy& policy,
                  const ArrivalProcess& arrivals, const Distribution& service,
                  const AdaptivePlan& plan, AdaptiveReport& report) {
  const std::uint64_t batch = plan.batch_size();
  rlb::util::ThreadBudget budget(2);
  return run_replicas<Replicas>(
      plan, budget,
      [&](std::uint64_t, std::uint64_t seed, std::uint64_t jobs,
          std::uint64_t warmup) {
        return Replicas{run_replica<Engine>(cfg, policy, arrivals, service,
                                            jobs, warmup, batch, seed)};
      },
      [](Replicas& into, const Replicas& from) {
        into.insert(into.end(), from.begin(), from.end());
      },
      [&](const Replicas& replicas) {
        ClusterAccum merged = replicas.front();
        for (std::size_t r = 1; r < replicas.size(); ++r)
          merged.merge(replicas[r]);
        return merged.sojourn_ci.half_width_or_infinity(plan.confidence);
      },
      report);
}

/// Runs every replica of `plan` on the oracle and on the engine, and
/// compares each pair bitwise.
void expect_engines_agree(const ClusterConfig& cfg, const Policy& policy,
                          const ArrivalProcess& arrivals,
                          const Distribution& service,
                          const AdaptivePlan& plan, const std::string& label) {
  AdaptiveReport oracle_report, engine_report;
  const Replicas oracle = run_plan<ReferenceClusterEngine>(
      cfg, policy, arrivals, service, plan, oracle_report);
  const Replicas engine = run_plan<CompactClusterEngine>(
      cfg, policy, arrivals, service, plan, engine_report);
  ASSERT_EQ(oracle.size(), engine.size()) << label;
  for (std::size_t r = 0; r < oracle.size(); ++r)
    expect_identical(oracle[r], engine[r],
                     label + " replica " + std::to_string(r));
  EXPECT_EQ(oracle_report.rounds, engine_report.rounds) << label;
  EXPECT_EQ(oracle_report.jobs_used, engine_report.jobs_used) << label;
  EXPECT_EQ(bits(oracle_report.half_width), bits(engine_report.half_width))
      << label;
}

/// cfg's fixed budget as a one-round plan.
AdaptivePlan fixed_plan(const ClusterConfig& cfg) {
  return AdaptivePlan::fixed(cfg.replicas, cfg.jobs, cfg.warmup, cfg.seed);
}

ClusterConfig base_config(int n, std::uint64_t jobs = 60'000) {
  ClusterConfig cfg;
  cfg.servers = n;
  cfg.jobs = jobs;
  cfg.warmup = jobs / 10;
  cfg.seed = 4242;
  return cfg;
}

/// Exp(rate) service from a law that reports no rate
/// (Distribution::exponential_rate is 0), so both engines run it on the
/// event loop: the same law as make_exponential's, through the heap.
class EventLoopExponential final : public Distribution {
 public:
  explicit EventLoopExponential(double rate) : rate_(rate) {}
  double sample(Rng& rng) const override { return rng.exponential(rate_); }
  double mean() const override { return 1.0 / rate_; }
  std::string name() const override { return "exp (event loop)"; }

 private:
  double rate_;
};

/// Exp(1) service twice: as make_exponential(1), which symmetric policies
/// run on the memoryless loop, and as EventLoopExponential(1), which
/// every policy runs on the event loop.
struct ExpService {
  const Distribution& law;
  const char* loop;
};
std::vector<ExpService> exp_services() {
  static const auto memoryless = make_exponential(1.0);
  static const EventLoopExponential event_loop(1.0);
  return {{*memoryless, " memoryless"}, {event_loop, " event loop"}};
}

/// Poisson arrivals at load rho and Exp(1) service, through both engines
/// and both loops.
void expect_engines_agree_mm(const ClusterConfig& cfg, const Policy& policy,
                             double rho, const std::string& label) {
  const auto arr = make_exponential(rho * cfg.servers);
  RenewalArrivals arrivals(*arr);
  for (const ExpService& svc : exp_services())
    expect_engines_agree(cfg, policy, arrivals, svc.law, fixed_plan(cfg),
                         label + svc.loop);
}

/// The engine through the public entry point (validation, replica
/// sharding, the thread budget).
ClusterResult run_cluster(Policy& policy, int n, int replicas = 1,
                          int threads = 1, std::uint64_t jobs = 60'000) {
  ClusterConfig cfg = base_config(n, jobs);
  cfg.replicas = replicas;
  const auto arr = make_exponential(0.9 * n);
  RenewalArrivals arrivals(*arr);
  const auto svc = make_exponential(1.0);
  rlb::util::ThreadBudget budget(threads);
  return simulate_cluster(cfg, policy, arrivals, *svc, fixed_plan(cfg),
                          budget);
}

void expect_identical(const ClusterResult& a, const ClusterResult& b,
                      const std::string& label) {
  EXPECT_EQ(bits(a.mean_sojourn), bits(b.mean_sojourn)) << label;
  EXPECT_EQ(bits(a.mean_wait), bits(b.mean_wait)) << label;
  EXPECT_EQ(bits(a.ci95_sojourn), bits(b.ci95_sojourn)) << label;
  EXPECT_EQ(bits(a.mean_jobs_in_system), bits(b.mean_jobs_in_system))
      << label;
  EXPECT_EQ(bits(a.utilization), bits(b.utilization)) << label;
  EXPECT_EQ(bits(a.p50_sojourn), bits(b.p50_sojourn)) << label;
  EXPECT_EQ(bits(a.p95_sojourn), bits(b.p95_sojourn)) << label;
  EXPECT_EQ(bits(a.p99_sojourn), bits(b.p99_sojourn)) << label;
  EXPECT_EQ(a.jobs_measured, b.jobs_measured) << label;
  EXPECT_EQ(bits(a.sim_time), bits(b.sim_time)) << label;
}

/// Every built-in topology-blind policy: the symmetric ones, which the
/// engine dispatches through select_direct, and the identity-aware
/// round-robin and least-work, which it dispatches through select.
std::vector<std::unique_ptr<Policy>> blind_policies(int n) {
  std::vector<std::unique_ptr<Policy>> out;
  out.push_back(std::make_unique<SqdPolicy>(n, 1));
  out.push_back(std::make_unique<SqdPolicy>(n, 2));
  out.push_back(std::make_unique<JsqPolicy>());
  out.push_back(std::make_unique<JiqPolicy>(n));
  out.push_back(std::make_unique<JbtPolicy>(n, 2, 3));
  out.push_back(std::make_unique<RoundRobinPolicy>());
  out.push_back(std::make_unique<LeastWorkLeftPolicy>());
  return out;
}

TEST(CompactCluster, BitIdenticalToLegacyForSymmetricPolicies) {
  const int n = 8;
  for (const auto& policy : blind_policies(n))
    expect_engines_agree_mm(base_config(n), *policy, 0.9, policy->name());
}

TEST(CompactCluster, BitIdenticalToLegacyAtLargerFleet) {
  // Re-pin the equivalence at a fleet large enough that the packed
  // directory's blocks span many cache lines and the event heap is
  // several levels deep — sizes where a layout bug that preserves
  // small-n behavior would surface.
  const int n = 96;
  for (const auto& policy : blind_policies(n))
    expect_engines_agree_mm(base_config(n, 120'000), *policy, 0.9,
                            policy->name() + " n=96");
}

TEST(CompactCluster, BitIdenticalAcrossReplicasAndThreads) {
  // Each replica of a 3-replica plan matches the oracle; and the merged
  // result is the same on 1 and 4 threads.
  const int n = 6;
  for (const auto& policy : blind_policies(n)) {
    ClusterConfig cfg = base_config(n);
    cfg.replicas = 3;
    expect_engines_agree_mm(cfg, *policy, 0.9, policy->name() + " r=3");
    expect_identical(run_cluster(*policy, n, 3, 1),
                     run_cluster(*policy, n, 3, 4),
                     policy->name() + " r=3 threads");
  }
}

TEST(CompactCluster, BitIdenticalWithHeterogeneousSpeeds) {
  // Speeds shape service times identically on both engines; least-work
  // reads them back through remaining_work.
  const int n = 4;
  ClusterConfig cfg = base_config(n, 50'000);
  cfg.seed = 777;
  cfg.server_speeds = {2.0, 1.0, 1.0, 0.5};
  for (const auto& policy : blind_policies(n))
    expect_engines_agree_mm(cfg, *policy, 0.8, policy->name() + " hetero");
}

TEST(CompactCluster, BitIdenticalOnTheAdaptivePath) {
  // Every round's replicas (their budgets, warmups and seeds set by the
  // plan's geometric schedule), and hence the stopping decision, must
  // agree bit for bit.
  const int n = 5;
  const auto arr = make_exponential(0.85 * n);
  RenewalArrivals arrivals(*arr);
  AdaptivePlan plan;
  plan.replicas = 2;
  plan.target_ci = 0.05;
  plan.initial_jobs = 20'000;
  plan.max_jobs = 160'000;
  plan.warmup_jobs = 1'000;
  plan.base_seed = 99;
  ClusterConfig cfg;
  cfg.servers = n;
  for (const auto& policy : blind_policies(n))
    for (const ExpService& svc : exp_services())
      expect_engines_agree(cfg, *policy, arrivals, svc.law, plan,
                           policy->name() + " adaptive" + svc.loop);
}

TEST(CompactCluster, IdentityAwarePoliciesMatchTheOracleWithEveryFeatureOn) {
  // Round-robin and least-work read per-server state through the engine's
  // ClusterState view. Pin them against the oracle with everything that
  // touches service times or statistics switched on at once: mixed
  // speeds, a penalized 2-rack topology (home draws, cross-rack service
  // inflation), lognormal service, bursty MMPP arrivals, time windows,
  // the SLA counter, and replicas.
  const int n = 8;
  ClusterConfig cfg = base_config(n, 40'000);
  cfg.seed = 2718;
  cfg.replicas = 2;
  cfg.server_speeds = {1.5, 1.0, 0.5, 1.0, 2.0, 1.0, 0.75, 1.25};
  cfg.topology.racks = 2;
  cfg.topology.cross_latency = 0.3;
  cfg.topology.cross_capacity = 0.8;
  cfg.window_width = 50.0;
  cfg.sla_threshold = 2.5;
  const auto svc = make_lognormal(1.0, 1.5);
  const MmppArrivals arrivals = MmppArrivals::bursty(0.75 * n, 1.1, 20.0);
  RoundRobinPolicy rr;
  LeastWorkLeftPolicy lw;
  for (const Policy* policy : {static_cast<const Policy*>(&rr),
                               static_cast<const Policy*>(&lw)})
    expect_engines_agree(cfg, *policy, arrivals, *svc, fixed_plan(cfg),
                         policy->name() + " all features");
}

/// Records, at every arrival, each server's queue length and remaining
/// work as the engine reports them, then dispatches by least work.
/// Clones share the log (the test runs one serial replica per engine).
class WorkAuditPolicy final : public Policy {
 public:
  explicit WorkAuditPolicy(std::vector<std::uint64_t>* log) : log_(log) {}
  int select(const ClusterState& c, Rng& rng) override {
    for (int s = 0; s < c.servers(); ++s) {
      log_->push_back(static_cast<std::uint64_t>(c.queue_length(s)));
      log_->push_back(bits(c.remaining_work(s)));
    }
    return inner_.select(c, rng);
  }
  std::string name() const override { return "work-audit"; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<WorkAuditPolicy>(*this);
  }

 private:
  LeastWorkLeftPolicy inner_;
  std::vector<std::uint64_t>* log_;
};

TEST(CompactCluster, RemainingWorkIsBitIdenticalToTheOracleAtEveryArrival) {
  // The engine keeps least-work's two terms — the head job's completion
  // time and the work queued behind it, with its rounding residue — in
  // each server's slot; the oracle keeps them in per-server arrays. Both
  // must hand the policy the same bits on every arrival.
  const int n = 10;
  ClusterConfig cfg = base_config(n, 20'000);
  cfg.server_speeds = {1.0, 0.5, 2.0, 1.0, 1.5, 0.8, 1.0, 1.2, 0.9, 1.1};
  const auto arr = make_exponential(0.9 * n);
  const auto svc = make_lognormal(1.0, 2.0);
  RenewalArrivals arrivals(*arr);
  std::vector<std::uint64_t> oracle_log, engine_log;
  WorkAuditPolicy oracle_policy(&oracle_log), engine_policy(&engine_log);
  const std::uint64_t batch = 100;
  (void)run_replica<ReferenceClusterEngine>(cfg, oracle_policy, arrivals,
                                            *svc, cfg.jobs, cfg.warmup,
                                            batch, cfg.seed);
  (void)run_replica<CompactClusterEngine>(cfg, engine_policy, arrivals, *svc,
                                          cfg.jobs, cfg.warmup, batch,
                                          cfg.seed);
  ASSERT_EQ(oracle_log.size(), 2u * n * cfg.jobs);
  ASSERT_EQ(engine_log.size(), oracle_log.size());
  for (std::size_t i = 0; i < oracle_log.size(); ++i)
    ASSERT_EQ(oracle_log[i], engine_log[i])
        << "arrival " << i / (2 * n) << " server " << (i / 2) % n
        << (i % 2 == 0 ? " queue length" : " remaining work");
}

// ---------------------------------------------------------------------------
// Rack topology (docs/TOPOLOGY.md)

ClusterConfig topology_config(int n, const Topology& topo, int replicas = 1,
                              std::uint64_t jobs = 60'000) {
  ClusterConfig cfg = base_config(n, jobs);
  cfg.replicas = replicas;
  cfg.topology = topo;
  return cfg;
}

/// Exp(1) service unless `service` names another law.
ClusterResult run_topology(Policy& policy, int n, const Topology& topo,
                           int replicas = 1, int threads = 1,
                           double rho = 0.9, std::uint64_t jobs = 60'000,
                           const Distribution* service = nullptr) {
  const ClusterConfig cfg = topology_config(n, topo, replicas, jobs);
  const auto arr = make_exponential(rho * n);
  RenewalArrivals arrivals(*arr);
  const auto svc = make_exponential(1.0);
  rlb::util::ThreadBudget budget(threads);
  return simulate_cluster(cfg, policy, arrivals, service ? *service : *svc,
                          fixed_plan(cfg), budget);
}

std::vector<std::unique_ptr<Policy>> rack_policies(int n, int racks) {
  std::vector<std::unique_ptr<Policy>> out;
  out.push_back(std::make_unique<RackLocalSqdPolicy>(n, racks, 2));
  out.push_back(std::make_unique<RackLocalSqdPolicy>(n, racks, 2, 0));
  out.push_back(std::make_unique<RackLocalSqdPolicy>(n, racks, 3, 2));
  out.push_back(std::make_unique<RackJiqPolicy>(n, racks));
  return out;
}

TEST(RackTopology, ZeroPenaltyBlindPoliciesMatchTopologyBlindBitForBit) {
  // Racks without a penalty are unobservable to a blind policy: no home
  // draw happens and every output bit equals the untopologized run.
  const int n = 8;
  Topology racked;
  racked.racks = 4;  // zero penalty
  for (const auto& policy : blind_policies(n)) {
    const auto blind = run_cluster(*policy, n);
    const auto topo = run_topology(*policy, n, racked);
    expect_identical(blind, topo, policy->name() + " zero-penalty");
  }
}

TEST(RackTopology, SingleRackPenaltyIsUnobservable) {
  // One rack means every dispatch is rack-local; the penalty fields are
  // inert and the run is bit-identical to the default topology.
  const int n = 6;
  Topology one_rack;
  one_rack.cross_latency = 2.0;
  one_rack.cross_capacity = 0.5;
  SqdPolicy sqd(n, 2);
  const auto blind = run_cluster(sqd, n);
  const auto topo = run_topology(sqd, n, one_rack);
  expect_identical(blind, topo, "sq(2) single-rack");
}

TEST(RackTopology, SingleRackJiqIsPlainJiqBitForBit) {
  // With one rack the home rack's idle FIFO is the whole I-queue, so
  // rack-jiq must join the longest-idle server exactly like jiq — on the
  // engine, whose per-rack FIFOs are armed for any locality-aware policy,
  // including at racks = 1.
  const int n = 8;
  JiqPolicy jiq(n);
  RackJiqPolicy rack_jiq(n, 1);
  for (int replicas : {1, 3}) {
    const auto plain = run_topology(jiq, n, Topology{}, replicas, 1, 0.7);
    const auto racked = run_topology(rack_jiq, n, Topology{}, replicas, 1, 0.7);
    expect_identical(plain, racked,
                     "rack-jiq racks=1 r=" + std::to_string(replicas));
  }
}

TEST(RackTopology, CompactBitIdenticalToLegacyForRackPolicies) {
  // The equivalence contract extends to locality-aware dispatch under a
  // real penalty: same home draws, same selections, same penalized
  // service times, bit for bit.
  const int n = 8, racks = 2;
  Topology topo;
  topo.racks = racks;
  topo.cross_latency = 0.5;
  for (const auto& policy : rack_policies(n, racks))
    expect_engines_agree_mm(topology_config(n, topo), *policy, 0.9,
                            policy->name());
  // Capacity-factor penalties exercise the other penalize() term.
  Topology slow;
  slow.racks = racks;
  slow.cross_capacity = 0.5;
  for (const auto& policy : rack_policies(n, racks))
    expect_engines_agree_mm(topology_config(n, slow), *policy, 0.9,
                            policy->name() + " capacity");
}

TEST(RackTopology, BlindPoliciesUnderPenaltyStayEngineIdentical) {
  // A penalized topology with a blind policy still draws home racks (the
  // penalty is observable) — both engines must agree on that stream too.
  const int n = 8;
  Topology topo;
  topo.racks = 4;
  topo.cross_latency = 1.0;
  for (const auto& policy : blind_policies(n))
    expect_engines_agree_mm(topology_config(n, topo), *policy, 0.9,
                            policy->name() + " penalized");
}

TEST(RackTopology, RackJiqStealOrderAuditAcrossEngines) {
  // The per-rack JIQ steal contract: when the home rack has no idle
  // server, both engines must steal the GLOBALLY longest-idle server.
  // Run the policy against the oracle at loads where steals are common
  // (home racks empty out constantly) and where they are rare, with a
  // penalty so any divergence in WHICH server was stolen changes the
  // service time and is caught bit-for-bit, on one and on four replicas.
  // At racks = 1 the "home rack" is the whole cluster.
  const int n = 12;
  for (int racks : {1, 3}) {
    Topology topo;
    topo.racks = racks;
    topo.cross_latency = 0.25;
    for (double rho : {0.6, 0.95}) {
      RackJiqPolicy policy(n, racks);
      const std::string label = "rack-jiq steal audit racks=" +
                                std::to_string(racks) +
                                " rho=" + std::to_string(rho);
      expect_engines_agree_mm(topology_config(n, topo, 1, 80'000), policy,
                              rho, label);
      expect_engines_agree_mm(topology_config(n, topo, 4, 80'000), policy,
                              rho, label + " sharded");
    }
  }
}

TEST(RackTopology, PenaltyActuallyHurtsBlindDispatch) {
  // Sanity on the model itself: a blind sq(2) pays cross-rack latency on
  // most dispatches, so its delay must climb well beyond the zero-penalty
  // run; the no-spill rack-local policy never pays it.
  const int n = 8;
  Topology topo;
  topo.racks = 4;
  topo.cross_latency = 2.0;
  SqdPolicy blind(n, 2);
  const auto base = run_cluster(blind, n);
  const auto hurt = run_topology(blind, n, topo);
  EXPECT_GT(hurt.mean_sojourn, base.mean_sojourn + 1.0);
  RackLocalSqdPolicy local(n, 4, 2, 0);
  Topology racked_free;
  racked_free.racks = 4;  // zero penalty
  // Same policy, same seeds: zero penalty and huge penalty agree exactly
  // because no dispatch ever leaves its rack. Under Exp(1) service the
  // zero-penalty run would take the memoryless loop and the penalized one
  // the event loop, so both run Erlang-2 service of mean 1, which keeps
  // them on the event loop.
  const auto erlang = make_erlang(2, 2.0);
  const auto contained =
      run_topology(local, n, topo, 1, 1, 0.7, 60'000, erlang.get());
  const auto contained_base =
      run_topology(local, n, racked_free, 1, 1, 0.7, 60'000, erlang.get());
  expect_identical(contained, contained_base, "no-spill contains penalty");
}

TEST(RackTopology, NoSpillZeroPenaltyMatchesTheExactPerRackSolver) {
  // At zero penalty the no-spill policy partitions the cluster into
  // independent per-rack SQ(d) systems, so the paper's exact solver for
  // a 4-server SQ(2) cluster predicts the simulated sojourn (the
  // rack_locality scenario's zero_penalty_check column). rho 0.70 keeps
  // the solver's truncation mass at cap 26 around 1e-4; at higher loads
  // the truncated solve visibly underestimates the true delay.
  const int n = 8, racks = 2, per = 4, d = 2;
  const double rho = 0.70;
  Topology topo;
  topo.racks = racks;  // zero penalty
  RackLocalSqdPolicy local(n, racks, d, 0);
  const auto sim = run_topology(local, n, topo, 4, 1, rho, 2'000'000);
  const auto exact = rlb::sqd::solve_exact_truncated(
      rlb::sqd::Params{per, d, rho, 1.0}, 26);
  EXPECT_NEAR(sim.mean_sojourn, exact.mean_delay,
              0.02 * exact.mean_delay);
}

TEST(RackTopology, ValidatesConfiguration) {
  SqdPolicy sqd(6, 2);
  Topology bad;
  bad.racks = 4;  // 6 % 4 != 0
  EXPECT_THROW(run_topology(sqd, 6, bad), std::invalid_argument);
  Topology negative;
  negative.cross_latency = -1.0;
  EXPECT_THROW(run_topology(sqd, 6, negative), std::invalid_argument);
  Topology zero_cap;
  zero_cap.cross_capacity = 0.0;
  EXPECT_THROW(run_topology(sqd, 6, zero_cap), std::invalid_argument);
  // A rack policy built for 2 racks cannot run on 3 (or on the default
  // single-rack topology).
  RackLocalSqdPolicy rsqd(6, 2, 2);
  Topology three;
  three.racks = 3;
  EXPECT_THROW(run_topology(rsqd, 6, three), std::invalid_argument);
  EXPECT_THROW(run_cluster(rsqd, 6), std::invalid_argument);
  Topology two;
  two.racks = 2;
  EXPECT_NO_THROW(run_topology(rsqd, 6, two));
}

TEST(CompactCluster, MemorylessLoopAgreesInLawWithTheEventLoop) {
  // Under Exp(1) service a symmetric policy runs the memoryless loop;
  // EventLoopExponential runs the same law through the heap. The two
  // loops draw different streams, so they agree in law only: each pair
  // of mean sojourns must lie within the sum of the two CI half-widths.
  const int n = 8, racks = 2;
  Topology blind;
  Topology racked;
  racked.racks = racks;  // zero penalty: rack-sq(2) runs memoryless
  struct Case {
    std::unique_ptr<Policy> policy;
    Topology topo;
  };
  std::vector<Case> cases;
  cases.push_back({std::make_unique<SqdPolicy>(n, 2), blind});
  cases.push_back({std::make_unique<JiqPolicy>(n), blind});
  cases.push_back({std::make_unique<JbtPolicy>(n, 2, 3), blind});
  cases.push_back({std::make_unique<HistogramJsqPolicy>(), blind});
  cases.push_back({std::make_unique<RackLocalSqdPolicy>(n, racks, 2), racked});
  for (const Case& c : cases) {
    std::vector<ClusterResult> runs;
    for (const ExpService& svc : exp_services())
      runs.push_back(run_topology(*c.policy, n, c.topo, 1, 1, 0.8,
                                  1'000'000, &svc.law));
    const ClusterResult& memoryless = runs[0];
    const ClusterResult& event_loop = runs[1];
    EXPECT_NE(bits(memoryless.mean_sojourn), bits(event_loop.mean_sojourn))
        << c.policy->name() << ": both runs took the same loop";
    EXPECT_NEAR(memoryless.mean_sojourn, event_loop.mean_sojourn,
                memoryless.ci95_sojourn + event_loop.ci95_sojourn)
        << c.policy->name();
  }
}

TEST(CompactCluster, OtherExponentialCellsKeepTheEventLoop) {
  // Exp(1) service takes the memoryless loop only with a symmetric
  // policy, unit speeds and no observable penalty. Every other
  // exponential cell must run the event loop, so make_exponential and
  // EventLoopExponential give it the same bits.
  const int n = 8;
  const auto arr = make_exponential(0.8 * n);
  RenewalArrivals arrivals(*arr);
  const auto expect_event_loop = [&](const ClusterConfig& cfg,
                                     Policy& policy,
                                     const std::string& label) {
    std::vector<ClusterResult> runs;
    for (const ExpService& svc : exp_services()) {
      rlb::util::ThreadBudget budget(1);
      runs.push_back(simulate_cluster(cfg, policy, arrivals, svc.law,
                                      fixed_plan(cfg), budget));
    }
    expect_identical(runs[0], runs[1], label);
  };
  RoundRobinPolicy rr;
  LeastWorkLeftPolicy lw;
  expect_event_loop(base_config(n), rr, "round-robin");
  expect_event_loop(base_config(n), lw, "least-work");
  SqdPolicy sqd(n, 2);
  ClusterConfig speeds = base_config(n);
  speeds.server_speeds.assign(n, 1.0);
  expect_event_loop(speeds, sqd, "sq(2) with speeds");
  Topology penalized;
  penalized.racks = 2;
  penalized.cross_latency = 0.5;
  expect_event_loop(topology_config(n, penalized), sqd, "sq(2) penalized");
  RackLocalSqdPolicy rack_sqd(n, 2, 2);
  expect_event_loop(topology_config(n, penalized), rack_sqd,
                    "rack-sq(2) penalized");
}

TEST(CompactCluster, HistogramJsqMatchesJsqStatistically) {
  // jsq-h draws a uniform minimum-level server in O(1); same distribution
  // as the jsq scan, different stream. Means must agree within CIs.
  const int n = 8;
  JsqPolicy jsq;
  HistogramJsqPolicy jsqh;
  const auto a = run_cluster(jsq, n, 1, 1, 300'000);
  const auto b = run_cluster(jsqh, n, 1, 1, 300'000);
  EXPECT_NEAR(a.mean_sojourn, b.mean_sojourn,
              3.0 * (a.ci95_sojourn + b.ci95_sojourn) + 0.01);
  // jsq-h's select (the oracle's per-server scan) and select_direct (the
  // engine's histogram sample) share the distribution but not the
  // stream, so the two engines agree only statistically here.
  const ClusterConfig cfg = base_config(n);
  const auto arr = make_exponential(0.9 * n);
  const auto svc = make_exponential(1.0);
  RenewalArrivals arrivals(*arr);
  const std::uint64_t batch = (cfg.jobs - cfg.warmup) / 30;
  const ClusterAccum oracle = run_replica<ReferenceClusterEngine>(
      cfg, jsqh, arrivals, *svc, cfg.jobs, cfg.warmup, batch, cfg.seed);
  const ClusterAccum engine = run_replica<CompactClusterEngine>(
      cfg, jsqh, arrivals, *svc, cfg.jobs, cfg.warmup, batch, cfg.seed);
  EXPECT_NEAR(oracle.sojourn_stats.mean(), engine.sojourn_stats.mean(),
              3.0 * (oracle.sojourn_ci.half_width(0.95) +
                     engine.sojourn_ci.half_width(0.95)) +
                  0.01);
}

}  // namespace
