#include "sim/policy.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/level_directory.h"

namespace {

using namespace rlb::sim;

/// Test double exposing fixed queue lengths / workloads.
class FakeCluster final : public ClusterState {
 public:
  FakeCluster(std::vector<int> lens, std::vector<double> work = {})
      : lens_(std::move(lens)), work_(std::move(work)) {
    if (work_.empty()) work_.assign(lens_.size(), 0.0);
  }
  int servers() const override { return static_cast<int>(lens_.size()); }
  int queue_length(int s) const override { return lens_[s]; }
  double remaining_work(int s) const override { return work_[s]; }

 private:
  std::vector<int> lens_;
  std::vector<double> work_;
};

TEST(SqdPolicy, AlwaysPicksShortestOfPolledWithFullPoll) {
  // d = N degenerates to JSQ.
  FakeCluster cluster({5, 2, 7, 1});
  SqdPolicy policy(4, 4);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(policy.select(cluster, rng), 3);
}

TEST(SqdPolicy, SingleChoiceIsUniform) {
  FakeCluster cluster({5, 2, 7, 1});
  SqdPolicy policy(4, 1);
  Rng rng(2);
  std::vector<int> counts(4, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[policy.select(cluster, rng)];
  for (int c : counts) EXPECT_NEAR(c, trials / 4.0, 500);
}

TEST(SqdPolicy, NeverPicksLongerOfTwoPolled) {
  // With d = 2 over 2 servers, the longer queue must never win.
  FakeCluster cluster({3, 0});
  SqdPolicy policy(2, 2);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(policy.select(cluster, rng), 1);
}

TEST(SqdPolicy, TieBreakingUniform) {
  FakeCluster cluster({2, 2, 2});
  SqdPolicy policy(3, 3);
  Rng rng(5);
  std::vector<int> counts(3, 0);
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) ++counts[policy.select(cluster, rng)];
  for (int c : counts) EXPECT_NEAR(c, trials / 3.0, 600);
}

TEST(JsqPolicy, PicksGlobalMinimum) {
  FakeCluster cluster({4, 1, 3, 1, 5});
  JsqPolicy policy;
  Rng rng(7);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 20000; ++i) ++counts[policy.select(cluster, rng)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[4], 0);
  EXPECT_NEAR(counts[1], 10000, 400);  // uniform over the two minima
  EXPECT_NEAR(counts[3], 10000, 400);
}

TEST(RoundRobinPolicy, CyclesAndResets) {
  FakeCluster cluster({0, 0, 0});
  RoundRobinPolicy policy;
  Rng rng(11);
  EXPECT_EQ(policy.select(cluster, rng), 0);
  EXPECT_EQ(policy.select(cluster, rng), 1);
  EXPECT_EQ(policy.select(cluster, rng), 2);
  EXPECT_EQ(policy.select(cluster, rng), 0);
  policy.reset();
  EXPECT_EQ(policy.select(cluster, rng), 0);
}

TEST(LeastWorkLeftPolicy, PicksSmallestWorkload) {
  FakeCluster cluster({9, 9, 9}, {4.0, 0.5, 2.0});
  LeastWorkLeftPolicy policy;
  Rng rng(13);
  EXPECT_EQ(policy.select(cluster, rng), 1);
}

TEST(PolicyNames, Informative) {
  EXPECT_EQ(SqdPolicy(4, 2).name(), "sq(2)");
  EXPECT_EQ(JsqPolicy().name(), "jsq");
  EXPECT_EQ(HistogramJsqPolicy().name(), "jsq-h");
  EXPECT_EQ(RoundRobinPolicy().name(), "round-robin");
  EXPECT_EQ(LeastWorkLeftPolicy().name(), "least-work");
  EXPECT_EQ(JiqPolicy(4).name(), "jiq/sq(1)");
  EXPECT_EQ(JbtPolicy(4, 2, 3).name(), "jbt(2,t=3)");
}

TEST(SqdPolicy, RejectsNonPositiveD) {
  EXPECT_THROW(SqdPolicy(3, 0), std::invalid_argument);
  EXPECT_THROW(SqdPolicy(3, -1), std::invalid_argument);
}

TEST(SqdPolicy, DBeyondThePoolClampsToAFullPoll) {
  // d > N used to abort mid-run; rack-local pools made "poll everyone"
  // the required degenerate behavior. d = 10 over 3 servers is JSQ.
  FakeCluster cluster({4, 1, 2});
  SqdPolicy policy(3, 10);
  Rng rng(47);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(policy.select(cluster, rng), 1);
  EXPECT_EQ(policy.name(), "sq(10)");  // name keeps the requested d
}

TEST(ClusterStateView, DefaultIdleScanUsesIndexOrder) {
  FakeCluster cluster({2, 0, 1, 0, 0});
  EXPECT_EQ(cluster.idle_servers(), 3);
  EXPECT_EQ(cluster.idle_server(0), 1);
  EXPECT_EQ(cluster.idle_server(1), 3);
  EXPECT_EQ(cluster.idle_server(2), 4);
  EXPECT_THROW(static_cast<void>(cluster.idle_server(3)),
               std::invalid_argument);
}

TEST(JiqPolicy, AlwaysJoinsAnIdleServerWhenOneExists) {
  // The head of the idle view is server 2 (index-order default scan).
  FakeCluster cluster({3, 1, 0, 2});
  JiqPolicy policy(4);
  Rng rng(17);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(policy.select(cluster, rng), 2);
}

TEST(JiqPolicy, MatchesJsqWhenAnIdleServerExists) {
  // JSQ's global minimum is the unique empty queue; JIQ must agree on
  // every state that has exactly one idle server.
  JiqPolicy jiq(4);
  JsqPolicy jsq;
  Rng rng(19);
  for (int idle = 0; idle < 4; ++idle) {
    std::vector<int> lens{2, 3, 1, 4};
    lens[idle] = 0;
    FakeCluster cluster(lens);
    EXPECT_EQ(jiq.select(cluster, rng), idle);
    EXPECT_EQ(jsq.select(cluster, rng), idle);
  }
}

TEST(JiqPolicy, FallsBackToRandomWhenNoneIdle) {
  FakeCluster cluster({1, 2, 1, 3});
  JiqPolicy policy(4);  // fallback sq(1) = uniform random
  Rng rng(23);
  std::vector<int> counts(4, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[policy.select(cluster, rng)];
  for (int c : counts) EXPECT_NEAR(c, trials / 4.0, 500);
}

TEST(JiqPolicy, FallbackCanPollLikeSqd) {
  // With no idle server the fallback is SQ(1), draw for draw.
  FakeCluster cluster({5, 1, 2});
  JiqPolicy jiq(3);
  SqdPolicy sq1(3, 1);
  Rng rng_a(29), rng_b(29);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(jiq.select(cluster, rng_a), sq1.select(cluster, rng_b)) << i;
  EXPECT_EQ(rng_a.uniform_int(1u << 30), rng_b.uniform_int(1u << 30));
}

TEST(JbtPolicy, JoinsOnlyBelowThresholdServers) {
  // With a full poll, only the servers strictly below t = 2 qualify.
  FakeCluster cluster({5, 1, 3, 0});
  JbtPolicy policy(4, 4, 2);
  Rng rng(31);
  std::vector<int> counts(4, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[policy.select(cluster, rng)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  // Candidates are indistinguishable below the threshold: uniform split.
  EXPECT_NEAR(counts[1], trials / 2.0, 600);
  EXPECT_NEAR(counts[3], trials / 2.0, 600);
}

TEST(JbtPolicy, ZeroThresholdWithShortestFallbackIsSqd) {
  // t = 0 with the shortest-polled fallback degenerates to SQ(d): over
  // two servers with d = 2 the longer queue must never win.
  FakeCluster cluster({3, 0});
  JbtPolicy policy(2, 2, 0);
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(policy.select(cluster, rng), 1);
}

TEST(JbtPolicy, ValidatesParameters) {
  EXPECT_THROW(JbtPolicy(3, 0, 1), std::invalid_argument);
  EXPECT_THROW(JbtPolicy(3, 2, -1), std::invalid_argument);
  // d > N clamps to a full poll instead of throwing (same contract as
  // SqdPolicy); with everything below threshold that is uniform routing.
  JbtPolicy policy(2, 5, 10);
  FakeCluster cluster({1, 1});
  Rng rng(53);
  std::vector<int> counts(2, 0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) ++counts[policy.select(cluster, rng)];
  EXPECT_NEAR(counts[0], trials / 2.0, 400);
  EXPECT_NEAR(counts[1], trials / 2.0, 400);
}

/// The engine's histogram holding queue lengths `lens`, built with
/// increment. Servers never incremented keep their time-zero idle order —
/// index order, as FakeCluster's default idle scan has it. `racks` > 0
/// arms the per-rack idle FIFOs first.
LevelDirectory directory_of(const std::vector<int>& lens, int racks = 0) {
  LevelDirectory dir(static_cast<int>(lens.size()));
  if (racks > 0) dir.arm_racks(racks);
  for (std::size_t s = 0; s < lens.size(); ++s)
    for (int k = 0; k < lens[s]; ++k) dir.increment(static_cast<int>(s));
  return dir;
}

TEST(SymmetricDispatch, CapabilityFlagsMatchTheEngineContract) {
  EXPECT_TRUE(SqdPolicy(4, 2).symmetric());
  EXPECT_TRUE(JsqPolicy().symmetric());
  EXPECT_TRUE(HistogramJsqPolicy().symmetric());
  EXPECT_TRUE(JiqPolicy(4).symmetric());
  EXPECT_TRUE(JbtPolicy(4, 2, 3).symmetric());
  EXPECT_FALSE(RoundRobinPolicy().symmetric());
  EXPECT_FALSE(LeastWorkLeftPolicy().symmetric());
}

TEST(SymmetricDispatch, DefaultSelectDirectRefusesToRun) {
  RoundRobinPolicy policy;
  const LevelDirectory dir = directory_of({0, 0});
  Rng rng(1);
  EXPECT_THROW((void)policy.select_direct(dir, rng), std::logic_error);
  EXPECT_THROW((void)policy.select_direct(dir, 0, rng), std::logic_error);
}

TEST(SymmetricDispatch, MatchesSelectDrawForDrawOnTheSameState) {
  // The bit-identity contract at policy level: on equal cluster states,
  // select and select_direct walk the same random stream to the same
  // server, for every symmetric policy. (jsq-h is exempt by design: same
  // draw count and distribution, different server mapping.)
  const std::vector<int> lens{2, 0, 1, 2, 0, 3};
  FakeCluster cluster(lens);
  const LevelDirectory dir = directory_of(lens);
  SqdPolicy sqd(6, 3);
  JsqPolicy jsq;
  JiqPolicy jiq(6);
  JbtPolicy jbt(6, 3, 2);
  for (Policy* p :
       {static_cast<Policy*>(&sqd), static_cast<Policy*>(&jsq),
        static_cast<Policy*>(&jiq), static_cast<Policy*>(&jbt)}) {
    Rng rng_a(57), rng_b(57);
    for (int i = 0; i < 300; ++i) {
      EXPECT_EQ(p->select(cluster, rng_a), p->select_direct(dir, rng_b))
          << p->name() << " draw " << i;
    }
    // Streams must stay in lockstep after the selections too.
    EXPECT_EQ(rng_a.uniform_int(1u << 30), rng_b.uniform_int(1u << 30))
        << p->name();
  }
}

TEST(SymmetricDispatch, JiqFallsBackThroughTheViewWhenNoneIdle) {
  const LevelDirectory dir = directory_of({1, 2, 1, 3});
  JiqPolicy policy(4);  // sq(1) fallback = uniform random
  Rng rng(61);
  std::vector<int> counts(4, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[policy.select_direct(dir, rng)];
  for (int c : counts) EXPECT_NEAR(c, trials / 4.0, 500);
}

TEST(HistogramJsqPolicy, UniformAmongMinimaOnBothPaths) {
  const std::vector<int> lens{4, 1, 3, 1, 5};
  FakeCluster cluster(lens);
  const LevelDirectory dir = directory_of(lens);
  HistogramJsqPolicy policy;
  Rng rng(67);
  std::vector<int> scan_counts(5, 0), dir_counts(5, 0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    ++scan_counts[policy.select(cluster, rng)];
    ++dir_counts[policy.select_direct(dir, rng)];
  }
  for (const auto& counts : {scan_counts, dir_counts}) {
    EXPECT_EQ(counts[0], 0);
    EXPECT_EQ(counts[2], 0);
    EXPECT_EQ(counts[4], 0);
    EXPECT_NEAR(counts[1], trials / 2.0, 450);
    EXPECT_NEAR(counts[3], trials / 2.0, 450);
  }
}

TEST(ClusterStateView, RackIdleHeadScansTheSlice) {
  FakeCluster cluster({2, 0, 1, 0, 0, 1});
  EXPECT_EQ(cluster.rack_idle_head(0, 3), 1);
  EXPECT_EQ(cluster.rack_idle_head(3, 6), 3);
  FakeCluster busy({1, 1, 1, 0});
  EXPECT_EQ(busy.rack_idle_head(0, 3), -1);
  EXPECT_EQ(busy.rack_idle_head(3, 4), 3);
}

TEST(RackLocalSqdPolicy, StaysLocalWhenTheHomeRackHasRoom) {
  // 2 racks x 2 servers; the home rack has an idle server, so the
  // dispatch must never leave it even though rack 1 is entirely idle.
  FakeCluster cluster({0, 1, 0, 0});
  RackLocalSqdPolicy policy(4, 2, 2);
  Rng rng(71);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(policy.select(cluster, 0, rng), 0);
}

TEST(RackLocalSqdPolicy, SpillsOnlyForAStrictImprovement) {
  RackLocalSqdPolicy policy(4, 2, 2);
  Rng rng(73);
  // Saturated at home, but the remote rack is no better: a tie stays
  // local (never pay the penalty for nothing).
  FakeCluster tie({1, 1, 1, 1});
  for (int i = 0; i < 100; ++i) {
    const int s = policy.select(tie, 0, rng);
    EXPECT_TRUE(s == 0 || s == 1) << s;
  }
  // Strictly shorter remote queue: the spill takes it.
  FakeCluster better({2, 2, 0, 1});
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(policy.select(better, 0, rng), 2);
}

TEST(RackLocalSqdPolicy, NoSpillVariantStaysLocalUnderPressure) {
  // spill_threshold = 0: pure rack-local, even with idle remote servers.
  FakeCluster cluster({5, 6, 0, 0});
  RackLocalSqdPolicy policy(4, 2, 2, 0);
  Rng rng(79);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(policy.select(cluster, 0, rng), 0);
}

TEST(RackLocalSqdPolicy, ClampsDToBothPoolSizes) {
  // d = 10 over 2-server racks: a full local poll, and on spill a full
  // remote poll — the d > pool edge the clamped sampler guard covers.
  FakeCluster cluster({4, 4, 3, 1});
  RackLocalSqdPolicy policy(4, 2, 10);
  Rng rng(83);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(policy.select(cluster, 0, rng), 3);
}

TEST(RackJiqPolicy, DispatchesToTheHomeRacksIdleHead) {
  FakeCluster cluster({1, 0, 0, 0});
  RackJiqPolicy policy(4, 2);
  Rng rng(89);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(policy.select(cluster, 0, rng), 1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(policy.select(cluster, 1, rng), 2);
}

TEST(RackJiqPolicy, StealsTheGlobalIdleHeadWhenHomeRackIsBusy) {
  // Home rack 0 fully busy: the steal takes the longest-idle server
  // anywhere (index order under the default scan), not an arbitrary one.
  FakeCluster cluster({2, 1, 0, 0});
  RackJiqPolicy policy(4, 2);
  Rng rng(97);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(policy.select(cluster, 0, rng), 2);
}

TEST(RackJiqPolicy, FallsBackToRackLocalPollingWhenNoneIdle) {
  // Nothing idle anywhere: rack-local sq(1) polls the home rack, and the
  // much deeper remote queues never win the strict-improvement spill.
  FakeCluster cluster({1, 1, 9, 9});
  RackJiqPolicy policy(4, 2);
  Rng rng(101);
  std::vector<int> counts(4, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[policy.select(cluster, 0, rng)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 0);
  EXPECT_NEAR(counts[0], trials / 2.0, 500);
  EXPECT_NEAR(counts[1], trials / 2.0, 500);
}

TEST(RackPolicies, CapabilitiesAndNames) {
  RackLocalSqdPolicy rsqd(8, 2, 2);
  RackJiqPolicy rjiq(8, 2);
  EXPECT_TRUE(rsqd.symmetric());
  EXPECT_TRUE(rjiq.symmetric());
  EXPECT_TRUE(rsqd.locality_aware());
  EXPECT_TRUE(rjiq.locality_aware());
  EXPECT_FALSE(rjiq.dispatches_to_idle_head());  // home head != global head
  EXPECT_EQ(rsqd.required_racks(), 2);
  EXPECT_EQ(rjiq.required_racks(), 2);
  EXPECT_FALSE(SqdPolicy(8, 2).locality_aware());
  EXPECT_EQ(SqdPolicy(8, 2).required_racks(), 0);
  EXPECT_EQ(rsqd.name(), "rack-sq(2)");
  EXPECT_EQ(RackLocalSqdPolicy(8, 2, 2, 0).name(), "rack-sq(2)/local");
  EXPECT_EQ(RackLocalSqdPolicy(8, 2, 2, 3).name(), "rack-sq(2)/spill=3");
  EXPECT_EQ(rjiq.name(), "rack-jiq/rack-sq(1)");
  EXPECT_THROW(RackLocalSqdPolicy(7, 2, 2), std::invalid_argument);
  EXPECT_THROW(RackLocalSqdPolicy(8, 0, 2), std::invalid_argument);
  EXPECT_THROW(RackLocalSqdPolicy(8, 2, 0), std::invalid_argument);
}

TEST(RackDispatch, MatchesSelectDrawForDrawOnTheSameState) {
  // The bit-identity contract extends to the rack-aware overloads: on
  // equal states (and the same home rack) the per-server and histogram
  // paths walk the same random stream to the same server. Both states
  // hold their idle servers in index order.
  const std::vector<int> lens{2, 0, 1, 2, 0, 3};
  FakeCluster cluster(lens);
  const LevelDirectory dir = directory_of(lens, 2);
  RackLocalSqdPolicy rsqd(6, 2, 2);
  RackLocalSqdPolicy rlocal(6, 2, 2, 0);
  RackJiqPolicy rjiq(6, 2);
  for (Policy* p :
       {static_cast<Policy*>(&rsqd), static_cast<Policy*>(&rlocal),
        static_cast<Policy*>(&rjiq)}) {
    Rng rng_a(107), rng_b(107);
    for (int i = 0; i < 300; ++i) {
      const int home = i % 2;
      EXPECT_EQ(p->select(cluster, home, rng_a),
                p->select_direct(dir, home, rng_b))
          << p->name() << " draw " << i;
    }
    EXPECT_EQ(rng_a.uniform_int(1u << 30), rng_b.uniform_int(1u << 30))
        << p->name();
  }
}

TEST(NewPolicies, ClonesAreIndependent) {
  JiqPolicy jiq(4);
  JbtPolicy jbt(4, 2, 3);
  const auto jiq_clone = jiq.clone();
  const auto jbt_clone = jbt.clone();
  EXPECT_EQ(jiq_clone->name(), jiq.name());
  EXPECT_EQ(jbt_clone->name(), jbt.name());
  // Same seed, same state view: clone and original walk identical streams.
  FakeCluster cluster({1, 2, 3, 4});
  Rng rng1(43), rng2(43);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(jbt.select(cluster, rng1), jbt_clone->select(cluster, rng2));
}

}  // namespace
