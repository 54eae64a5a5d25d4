// The result cache's correctness bar (docs/CACHING.md): stable semantic
// keys, lossless record round-trips, corrupted/mismatched entries
// discarded, and — the load-bearing property — resume-from-round-state
// reproducing a cold adaptive run bit-for-bit, even after the round
// state passes through its JSON record.
#include "engine/result_cache.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/cluster_sim.h"
#include "sim/policy.h"
#include "sim/replica.h"
#include "sim/stats.h"
#include "util/thread_budget.h"

namespace {

using rlb::engine::CacheKey;
using rlb::engine::CacheMode;
using rlb::engine::CellRecord;
using rlb::engine::encode_record;
using rlb::engine::parse_record;
using rlb::engine::ResultCache;

CacheKey sample_key() {
  CacheKey key("power_of_d");
  key.set("rho", 0.9);
  key.set("n", 10);
  key.set("seed", std::uint64_t{12345});
  return key;
}

TEST(CacheKey, StableUnderParameterReordering) {
  CacheKey a("scenario");
  a.set("alpha", 1.5);
  a.set("beta", 2);
  a.set("gamma", std::uint64_t{7});

  CacheKey b("scenario");
  b.set("gamma", std::uint64_t{7});
  b.set("alpha", 1.5);
  b.set("beta", 2);

  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(CacheKey, DistinguishesScenarioParamsAndValues) {
  CacheKey a("s1");
  a.set("x", 1);
  CacheKey b("s2");
  b.set("x", 1);
  CacheKey c("s1");
  c.set("x", 2);
  CacheKey d("s1");
  d.set("y", 1);
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_NE(a.canonical(), c.canonical());
  EXPECT_NE(a.canonical(), d.canonical());
}

TEST(CacheKey, LastSetOfANameWins) {
  CacheKey a("s");
  a.set("x", 1);
  a.set("x", 2);
  CacheKey b("s");
  b.set("x", 2);
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(CacheKey, DoubleValuesKeyExactly) {
  // %.17g: nextafter-distinct doubles must produce distinct keys.
  const double x = 0.1;
  const double y = std::nextafter(x, 1.0);
  CacheKey a("s");
  a.set("x", x);
  CacheKey b("s");
  b.set("x", y);
  EXPECT_NE(a.canonical(), b.canonical());
}

TEST(CacheKey, TopologyCoordinatesProduceDistinctKeys) {
  // rack_locality keys its cells on the full topology coordinates; every
  // knob a cell's simulation depends on must move the canonical key.
  const auto racked = [](int racks, const std::string& kind, double penalty,
                         std::uint64_t task) {
    CacheKey key("rack_locality");
    key.set("racks", racks);
    key.set("penalty_kind", kind);
    key.set("penalty", penalty);
    key.set("task", task);
    return key;
  };
  const CacheKey base = racked(4, "latency", 0.5, 1);
  EXPECT_NE(base.canonical(), racked(2, "latency", 0.5, 1).canonical());
  EXPECT_NE(base.canonical(), racked(4, "capacity", 0.5, 1).canonical());
  EXPECT_NE(base.canonical(), racked(4, "latency", 0.25, 1).canonical());
  EXPECT_NE(base.canonical(), racked(4, "latency", 0.5, 2).canonical());
  EXPECT_EQ(base.canonical(), racked(4, "latency", 0.5, 1).canonical());
}

TEST(CacheKey, DigestIs32HexChars) {
  const std::string d = sample_key().digest();
  EXPECT_EQ(d.size(), 32u);
  EXPECT_EQ(d.find_first_not_of("0123456789abcdef"), std::string::npos);
}

CellRecord sample_record(bool with_round_state) {
  CellRecord rec;
  rec.values = {1.0 / 3.0, 1e300, 5e-324,
                std::numeric_limits<double>::infinity(),
                -std::numeric_limits<double>::infinity()};
  rec.report.rounds = 3;
  rec.report.jobs_used = (std::uint64_t{1} << 60) + 12345;  // beyond 2^53
  rec.report.half_width = 0.0123456789012345678;
  rec.report.converged = true;
  rec.target_ci = 0.05;
  if (with_round_state) {
    auto& s = rec.round_state;
    s.rounds = 3;
    s.jobs_used = 4096;
    s.batch = 137;
    s.sojourn = rlb::sim::MomentsState{100, 2.5, 17.25, 0.001, 42.0};
    s.wait = rlb::sim::MomentsState{100, 1.5, 9.0, 0.0, 40.0};
    s.sojourn_ci = rlb::sim::BatchMeansState{
        137, 36, 91.75, rlb::sim::MomentsState{12, 2.51, 0.75, 2.1, 3.0}};
    s.sojourn_quantiles =
        rlb::sim::ReservoirState{8, 100, 0xdeadbeefcafeull,
                                 {1.0, 2.0, 3.0, 0.5, 7.0, 2.25, 9.0, 4.0}};
    s.area_jobs = 123.456;
    s.busy_area = 78.9;
    s.window = 1000.0;
    s.sim_time = 1234.5;
    s.sla_violations = 7;
    s.sla_threshold = 10.0;
    rec.has_round_state = true;
  }
  return rec;
}

TEST(CellRecord, RoundTripsThroughJsonExactly) {
  for (const bool with_state : {false, true}) {
    const CacheKey key = sample_key();
    const CellRecord rec = sample_record(with_state);
    const std::string text = encode_record(key, rec);
    const auto parsed = parse_record(key, text);
    ASSERT_TRUE(parsed.has_value()) << text;

    // Encode-of-parse is byte-identical: nothing is lost or reformatted.
    EXPECT_EQ(encode_record(key, *parsed), text);

    ASSERT_EQ(parsed->values.size(), rec.values.size());
    for (std::size_t i = 0; i < rec.values.size(); ++i)
      EXPECT_EQ(parsed->values[i], rec.values[i]) << i;
    EXPECT_EQ(parsed->report.rounds, rec.report.rounds);
    EXPECT_EQ(parsed->report.jobs_used, rec.report.jobs_used);
    EXPECT_EQ(parsed->report.half_width, rec.report.half_width);
    EXPECT_EQ(parsed->report.converged, rec.report.converged);
    EXPECT_EQ(parsed->target_ci, rec.target_ci);
    ASSERT_EQ(parsed->has_round_state, with_state);
    if (with_state) {
      EXPECT_EQ(parsed->round_state.batch, rec.round_state.batch);
      EXPECT_EQ(parsed->round_state.sojourn.m2, rec.round_state.sojourn.m2);
      EXPECT_EQ(parsed->round_state.sojourn_quantiles.rng_state,
                rec.round_state.sojourn_quantiles.rng_state);
      EXPECT_EQ(parsed->round_state.sojourn_quantiles.sample,
                rec.round_state.sojourn_quantiles.sample);
      EXPECT_EQ(parsed->round_state.sojourn_ci.batch_sum,
                rec.round_state.sojourn_ci.batch_sum);
    }
  }
}

TEST(CellRecord, NanValueSurvivesTheRoundTrip) {
  CellRecord rec;
  rec.values = {std::numeric_limits<double>::quiet_NaN()};
  const CacheKey key = sample_key();
  const auto parsed = parse_record(key, encode_record(key, rec));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->values.size(), 1u);
  EXPECT_TRUE(std::isnan(parsed->values[0]));
}

TEST(CellRecord, CorruptEntriesAreRejectedNotThrown) {
  const CacheKey key = sample_key();
  const std::string good = encode_record(key, sample_record(true));
  ASSERT_TRUE(parse_record(key, good).has_value());

  // Truncation at any prefix must reject, never throw.
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, good.size() / 2,
                          good.size() - 1})
    EXPECT_FALSE(parse_record(key, good.substr(0, len)).has_value()) << len;

  EXPECT_FALSE(parse_record(key, "not json at all").has_value());
  EXPECT_FALSE(parse_record(key, "{}").has_value());

  // Version-stamp mismatch: a record from a different engine version.
  std::string stale = good;
  const auto at = stale.find("rlb-cache-v1");
  ASSERT_NE(at, std::string::npos);
  stale.replace(at, 12, "rlb-cache-v0");
  EXPECT_FALSE(parse_record(key, stale).has_value());

  // Key mismatch (digest collision / copied file): embedded canonical
  // key differs from the probe's.
  CacheKey other("power_of_d");
  other.set("rho", 0.95);
  EXPECT_FALSE(parse_record(other, good).has_value());
}

class ResultCacheDir : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test AND process: ctest -j runs each test in its own
    // process, so a shared name would race between concurrent tests.
    dir_ = ::testing::TempDir() + "rlb_result_cache_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ResultCacheDir, StoreThenLookupHitsAtTheSameTarget) {
  ResultCache cache(dir_, CacheMode::kReadWrite);
  const CacheKey key = sample_key();
  cache.store(key, sample_record(true));
  EXPECT_EQ(cache.stored(), 1u);

  const auto hit = cache.lookup(key, 0.05);
  EXPECT_EQ(hit.outcome, ResultCache::Lookup::Outcome::kHit);
  EXPECT_EQ(hit.record.values.size(), 5u);
  EXPECT_EQ(cache.hits(), 1u);

  // Tighter target: the looser record's round state seeds a refinement,
  // not a miss (and no discard — the entry is intact).
  const auto refine = cache.lookup(key, 0.01);
  EXPECT_EQ(refine.outcome, ResultCache::Lookup::Outcome::kRefine);
  EXPECT_TRUE(refine.record.has_round_state);
  EXPECT_EQ(cache.refined(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.discarded(), 0u);

  // LOOSER target: resuming would overshoot the cold stopping point;
  // must recompute.
  const auto looser = cache.lookup(key, 0.10);
  EXPECT_EQ(looser.outcome, ResultCache::Lookup::Outcome::kMiss);
  EXPECT_EQ(cache.misses(), 1u);

  // A record without round state cannot be resumed at any target.
  cache.store(key, sample_record(false));
  EXPECT_EQ(cache.lookup(key, 0.01).outcome,
            ResultCache::Lookup::Outcome::kMiss);
}

TEST_F(ResultCacheDir, ReadOnlyNeverWritesAndRefreshNeverReads) {
  {
    ResultCache seed_cache(dir_, CacheMode::kReadWrite);
    seed_cache.store(sample_key(), sample_record(false));
  }
  ResultCache readonly(dir_, CacheMode::kReadOnly);
  EXPECT_EQ(readonly.lookup(sample_key(), 0.05).outcome,
            ResultCache::Lookup::Outcome::kHit);
  CacheKey other("other");
  readonly.store(other, sample_record(false));
  EXPECT_EQ(readonly.stored(), 0u);
  EXPECT_EQ(readonly.lookup(other, 0.05).outcome,
            ResultCache::Lookup::Outcome::kMiss);

  ResultCache refresh(dir_, CacheMode::kRefresh);
  EXPECT_EQ(refresh.lookup(sample_key(), 0.05).outcome,
            ResultCache::Lookup::Outcome::kMiss);
  EXPECT_EQ(refresh.misses(), 1u);
}

TEST_F(ResultCacheDir, CorruptedFileIsDiscardedAndOverwritable) {
  ResultCache cache(dir_, CacheMode::kReadWrite);
  const CacheKey key = sample_key();
  cache.store(key, sample_record(false));

  // Clobber the one record file on disk.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream f(entry.path(), std::ios::trunc);
    f << "{\"version\":\"rlb-cache-v1\",\"key\":\"trunc";
    ++files;
  }
  ASSERT_EQ(files, 1u);

  const auto miss = cache.lookup(key, 0.05);
  EXPECT_EQ(miss.outcome, ResultCache::Lookup::Outcome::kMiss);
  EXPECT_EQ(cache.discarded(), 1u);

  // The recompute-and-store path heals the entry.
  cache.store(key, sample_record(false));
  EXPECT_EQ(cache.lookup(key, 0.05).outcome,
            ResultCache::Lookup::Outcome::kHit);
}

TEST_F(ResultCacheDir, SummaryLineReportsAllCounters) {
  ResultCache cache(dir_, CacheMode::kReadWrite);
  cache.store(sample_key(), sample_record(false));
  (void)cache.lookup(sample_key(), 0.05);
  EXPECT_EQ(cache.summary(),
            "cache summary: hits=1 misses=0 refined=0 discarded=0 stored=1");
}

// ---------------------------------------------------------------------------
// The resume theorem, unit level: run_replicas resumed from a
// loose-target stop continues EXACTLY the rounds a cold tight-target run
// executes (round budgets depend only on the round index, so rounds
// 0..k of both runs are the same simulations in the same merge order).
// ---------------------------------------------------------------------------

rlb::sim::AdaptivePlan make_plan(double target) {
  rlb::sim::AdaptivePlan plan;
  plan.replicas = 2;
  plan.base_seed = 99;
  plan.target_ci = target;
  plan.confidence = 0.95;
  plan.initial_jobs = 400;
  plan.max_jobs = 400 << 6;
  plan.warmup_jobs = 10;
  return plan;
}

/// Toy replica: BatchMeans over a splitmix-derived uniform stream.
rlb::sim::BatchMeans toy_replica(std::uint64_t seed, std::uint64_t jobs,
                                 std::uint64_t warmup) {
  rlb::sim::BatchMeans bm(25);
  std::uint64_t state = seed;
  for (std::uint64_t j = 0; j < jobs; ++j) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double x =
        static_cast<double>(state >> 11) * 0x1.0p-53;  // U(0,1)
    if (j >= warmup) bm.add(x);
  }
  return bm;
}

TEST(AdaptiveResume, ResumeEqualsColdRunBitForBit) {
  using rlb::sim::BatchMeans;
  auto& budget = rlb::util::ThreadBudget::serial();
  const auto run = [](std::uint64_t /*replica*/, std::uint64_t seed,
                      std::uint64_t jobs, std::uint64_t warmup) {
    return toy_replica(seed, jobs, warmup);
  };
  const auto merge = [](BatchMeans& into, const BatchMeans& from) {
    into.merge(from);
  };
  const auto half_width = [](const BatchMeans& merged) {
    return merged.half_width_or_infinity(0.95);
  };

  // Cold run at the LOOSE target: the checkpoint source.
  rlb::sim::AdaptiveReport loose_report;
  const BatchMeans loose = rlb::sim::run_replicas<BatchMeans>(
      make_plan(0.05), budget, run, merge, half_width, loose_report);
  ASSERT_TRUE(loose_report.converged);

  // Cold run at the TIGHT target: the reference.
  rlb::sim::AdaptiveReport cold_report;
  const BatchMeans cold = rlb::sim::run_replicas<BatchMeans>(
      make_plan(0.01), budget, run, merge, half_width, cold_report);
  ASSERT_TRUE(cold_report.converged);
  ASSERT_GT(cold_report.rounds, loose_report.rounds)
      << "tighten the targets: the tight run must need more rounds for "
         "this test to exercise resumption";

  // Resume the loose stop at the tight target — exact state handoff.
  rlb::sim::AdaptiveReport resumed_report;
  const BatchMeans resumed = rlb::sim::run_replicas<BatchMeans>(
      make_plan(0.01), budget, run, merge, half_width, resumed_report,
      rlb::sim::ResumeState<BatchMeans>{
          loose_report.rounds, loose_report.jobs_used,
          BatchMeans::from_state(loose.state())});

  EXPECT_EQ(resumed.state().batch_means.mean,
            cold.state().batch_means.mean);
  EXPECT_EQ(resumed.state().batch_means.m2, cold.state().batch_means.m2);
  EXPECT_EQ(resumed.state().batch_means.count,
            cold.state().batch_means.count);
  EXPECT_EQ(resumed.state().in_batch, cold.state().in_batch);
  EXPECT_EQ(resumed.state().batch_sum, cold.state().batch_sum);
  EXPECT_EQ(resumed_report.rounds, cold_report.rounds);
  EXPECT_EQ(resumed_report.jobs_used, cold_report.jobs_used);
  EXPECT_EQ(resumed_report.half_width, cold_report.half_width);
  EXPECT_TRUE(resumed_report.converged);
  // And the refinement actually SAVED budget: only the suffix rounds'
  // jobs were newly simulated.
  EXPECT_LT(cold_report.jobs_used - loose_report.jobs_used,
            cold_report.jobs_used);
}

TEST(AdaptiveResume, AlreadyConvergedResumeReturnsImmediately) {
  using rlb::sim::BatchMeans;
  auto& budget = rlb::util::ThreadBudget::serial();
  const auto run = [](std::uint64_t, std::uint64_t seed, std::uint64_t jobs,
                      std::uint64_t warmup) {
    return toy_replica(seed, jobs, warmup);
  };
  const auto merge = [](BatchMeans& into, const BatchMeans& from) {
    into.merge(from);
  };
  const auto half_width = [](const BatchMeans& merged) {
    return merged.half_width_or_infinity(0.95);
  };
  rlb::sim::AdaptiveReport loose_report;
  const BatchMeans loose = rlb::sim::run_replicas<BatchMeans>(
      make_plan(0.05), budget, run, merge, half_width, loose_report);

  // "Refining" to the SAME target must simulate nothing new.
  rlb::sim::AdaptiveReport same_report;
  const BatchMeans same = rlb::sim::run_replicas<BatchMeans>(
      make_plan(0.05), budget, run, merge, half_width, same_report,
      rlb::sim::ResumeState<BatchMeans>{
          loose_report.rounds, loose_report.jobs_used,
          BatchMeans::from_state(loose.state())});
  EXPECT_EQ(same_report.jobs_used, loose_report.jobs_used);
  EXPECT_EQ(same_report.rounds, loose_report.rounds);
  EXPECT_TRUE(same_report.converged);
  EXPECT_EQ(same.state().batch_means.mean, loose.state().batch_means.mean);
}

// ---------------------------------------------------------------------------
// The same theorem end to end through the cluster simulator AND the JSON
// record: checkpoint -> encode_record -> parse_record -> refine equals a
// cold adaptive run at the tighter target, field for field.
// ---------------------------------------------------------------------------

TEST(ClusterRefine, RefineThroughJsonRecordEqualsColdRun) {
  using namespace rlb::sim;
  ClusterConfig cfg;
  cfg.servers = 8;
  const auto arr = make_exponential(0.9 * cfg.servers);
  RenewalArrivals arrivals(*arr);
  const auto svc = make_exponential(1.0);
  auto& budget = rlb::util::ThreadBudget::serial();

  AdaptivePlan loose_plan;
  loose_plan.replicas = 2;
  loose_plan.base_seed = 4242;
  loose_plan.target_ci = 0.25;
  loose_plan.initial_jobs = 4000;
  loose_plan.max_jobs = 4000 << 8;
  loose_plan.warmup_jobs = 100;
  AdaptivePlan tight_plan = loose_plan;
  tight_plan.target_ci = 0.06;

  SqdPolicy policy(cfg.servers, 2);

  ClusterRoundState loose_state;
  const ClusterResult loose = simulate_cluster(
      cfg, policy, arrivals, *svc, loose_plan, budget, &loose_state);
  ASSERT_TRUE(loose.adaptive.converged);

  const ClusterResult cold =
      simulate_cluster(cfg, policy, arrivals, *svc, tight_plan, budget);
  ASSERT_TRUE(cold.adaptive.converged);
  ASSERT_GT(cold.adaptive.rounds, loose.adaptive.rounds)
      << "targets too close: refinement would be a no-op";

  // Round-trip the checkpoint through the on-disk record format.
  CellRecord rec;
  rec.values = {loose.mean_sojourn};
  rec.report = loose.adaptive;
  rec.round_state = loose_state;
  rec.has_round_state = true;
  const CacheKey key = sample_key();
  const auto parsed = parse_record(key, encode_record(key, rec));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->has_round_state);

  const ClusterResult refined =
      simulate_cluster(cfg, policy, arrivals, *svc, tight_plan, budget,
                       nullptr, &parsed->round_state);

  EXPECT_EQ(refined.mean_sojourn, cold.mean_sojourn);
  EXPECT_EQ(refined.mean_wait, cold.mean_wait);
  EXPECT_EQ(refined.ci95_sojourn, cold.ci95_sojourn);
  EXPECT_EQ(refined.p50_sojourn, cold.p50_sojourn);
  EXPECT_EQ(refined.p95_sojourn, cold.p95_sojourn);
  EXPECT_EQ(refined.p99_sojourn, cold.p99_sojourn);
  EXPECT_EQ(refined.jobs_measured, cold.jobs_measured);
  EXPECT_EQ(refined.sim_time, cold.sim_time);
  EXPECT_EQ(refined.adaptive.rounds, cold.adaptive.rounds);
  EXPECT_EQ(refined.adaptive.jobs_used, cold.adaptive.jobs_used);
  EXPECT_EQ(refined.adaptive.half_width, cold.adaptive.half_width);

  // Budget accounting: the refinement only simulated the suffix rounds.
  const std::uint64_t newly_simulated =
      refined.adaptive.jobs_used - loose.adaptive.jobs_used;
  EXPECT_LT(newly_simulated, cold.adaptive.jobs_used);
  EXPECT_GT(newly_simulated, 0u);
}

TEST(ClusterRefine, BatchSizeMismatchIsRejected) {
  using namespace rlb::sim;
  ClusterConfig cfg;
  cfg.servers = 4;
  const auto arr = make_exponential(0.8 * cfg.servers);
  RenewalArrivals arrivals(*arr);
  const auto svc = make_exponential(1.0);
  auto& budget = rlb::util::ThreadBudget::serial();
  AdaptivePlan plan;
  plan.base_seed = 7;
  plan.target_ci = 0.5;
  plan.initial_jobs = 2000;
  plan.max_jobs = 64000;
  plan.warmup_jobs = 50;
  SqdPolicy policy(cfg.servers, 2);
  ClusterRoundState state;
  (void)simulate_cluster(cfg, policy, arrivals, *svc, plan, budget, &state);
  // A plan whose round 0 measures a different count derives a different
  // batch (the checkpoint's is (2000 - 50) / 30 = 65): refuse.
  AdaptivePlan other = plan;
  other.initial_jobs = 4000;
  ASSERT_NE(other.batch_size(), state.batch);
  EXPECT_THROW(simulate_cluster(cfg, policy, arrivals, *svc, other, budget,
                                nullptr, &state),
               std::invalid_argument);
}

}  // namespace
