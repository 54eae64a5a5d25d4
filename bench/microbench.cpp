// Microbenchmarks (google-benchmark) for the numerical kernels and
// simulators: LU solve, logarithmic reduction, QBD boundary
// solve, fast simulator throughput, and the cluster-DES hot paths — the
// engine's event loop, its departure heap, histogram-directory sampling,
// and replica-stats merging. CI runs this binary with
// --benchmark_format=json and uploads the result as the BENCH_6.json
// artifact; baselines/BENCH_6.json is a committed reference run (numbers
// are machine-specific — compare shapes, not absolutes).
#include <benchmark/benchmark.h>

#include <vector>

#include "linalg/lu.h"
#include "qbd/logred.h"
#include "qbd/solver.h"
#include "sim/calendar_queue.h"
#include "sim/cluster_accum.h"
#include "sim/cluster_sim.h"
#include "sim/compact_cluster.h"
#include "sim/fast_sqd.h"
#include "sim/rng.h"
#include "sqd/blocks_builder.h"
#include "sqd/bound_solver.h"

namespace {

rlb::linalg::Matrix random_spd(std::size_t n, std::uint64_t seed) {
  rlb::sim::Rng rng(seed);
  rlb::linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.next_double() - 0.5;
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

void BM_LuFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_spd(n, 1);
  rlb::linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlb::linalg::solve(a, b));
  }
}
BENCHMARK(BM_LuFactorSolve)->Arg(64)->Arg(128)->Arg(256);

void BM_LogReduction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const rlb::sqd::BoundModel model(rlb::sqd::Params{n, 2, 0.9, 1.0}, 3,
                                   rlb::sqd::BoundKind::Lower);
  const auto q = rlb::sqd::build_bound_qbd(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlb::qbd::logarithmic_reduction(
        q.blocks.A0, q.blocks.A1, q.blocks.A2));
  }
  state.SetLabel("block=" + std::to_string(q.blocks.block_size()));
}
BENCHMARK(BM_LogReduction)->Arg(3)->Arg(6)->Arg(12);

void BM_FullBoundSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const rlb::sqd::BoundModel model(rlb::sqd::Params{n, 2, 0.9, 1.0}, 3,
                                   rlb::sqd::BoundKind::Lower);
  const auto q = rlb::sqd::build_bound_qbd(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlb::sqd::solve_bound(model, q));
  }
}
BENCHMARK(BM_FullBoundSolve)->Arg(3)->Arg(6);

void BM_ImprovedBoundSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const rlb::sqd::BoundModel model(rlb::sqd::Params{n, 2, 0.9, 1.0}, 3,
                                   rlb::sqd::BoundKind::Lower);
  const auto q = rlb::sqd::build_bound_qbd(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlb::sqd::solve_lower_improved(model, q, 0.9));
  }
}
BENCHMARK(BM_ImprovedBoundSolve)->Arg(3)->Arg(6);

void BM_FastSimulatorThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr std::uint64_t kJobs = 200'000;
  rlb::sim::FastSqdConfig cfg;
  cfg.params = {n, 2, 0.9, 1.0};
  const auto plan = rlb::sim::AdaptivePlan::fixed(1, kJobs, 1'000, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlb::sim::simulate_sqd_fast(
        cfg, plan, rlb::util::ThreadBudget::serial()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kJobs));
}
BENCHMARK(BM_FastSimulatorThroughput)->Arg(10)->Arg(100);

/// The cluster DES on sq(2) at rho 0.9: items/s is jobs per second, flat
/// in n but for the O(log n) departure heap and cache misses.
void BM_CompactClusterThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr std::uint64_t kJobs = 100'000;
  rlb::sim::ClusterConfig cfg;
  cfg.servers = n;
  const auto plan = rlb::sim::AdaptivePlan::fixed(1, kJobs, 1'000, 1);
  rlb::sim::SqdPolicy policy(n, 2);
  const auto arr = rlb::sim::make_exponential(0.9 * n);
  rlb::sim::RenewalArrivals arrivals(*arr);
  const auto svc = rlb::sim::make_exponential(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rlb::sim::simulate_cluster(
        cfg, policy, arrivals, *svc, plan,
        rlb::util::ThreadBudget::serial()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kJobs));
}
BENCHMARK(BM_CompactClusterThroughput)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

void BM_DistinctSampling(benchmark::State& state) {
  const int n = 250;
  const int d = static_cast<int>(state.range(0));
  rlb::sim::Rng rng(5);
  rlb::sim::DistinctSampler sampler(n);
  std::vector<int> out;
  for (auto _ : state) {
    sampler.sample(d, rng, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DistinctSampling)->Arg(2)->Arg(10)->Arg(50);

/// The hold-model event-queue pattern the cluster engine executes: pop
/// the minimum, push a later event, queue size steady at `n`; O(log n).
void BM_CalendarQueueHold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  rlb::sim::Rng rng(7);
  rlb::sim::CalendarQueue cq;
  for (int i = 0; i < n; ++i)
    cq.push(rng.next_double() * n, static_cast<std::int32_t>(i));
  for (auto _ : state) {
    const auto [t, id] = cq.pop();
    cq.push(t + 1.0 + rng.next_double(), id);
    benchmark::DoNotOptimize(cq.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalendarQueueHold)->Arg(100)->Arg(10000)->Arg(1000000);

/// The compact engine's per-event state update: one level move plus one
/// uniform within-level sample, independent of the fleet size.
void BM_LevelDirectoryStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  rlb::sim::Rng rng(11);
  rlb::sim::LevelDirectory dir(n);
  for (auto _ : state) {
    const int s = dir.sample_at_level(0, rng);
    dir.increment(s);
    dir.decrement(s);
    benchmark::DoNotOptimize(dir.idle_head());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LevelDirectoryStep)->Arg(100)->Arg(10000)->Arg(1000000);

/// Directory level moves on servers visited in index order: the packed
/// per-server record makes consecutive servers share cache lines, so
/// this is the layout's best case (pure streaming).
void BM_DirectoryStepSequential(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  rlb::sim::LevelDirectory dir(n);
  int s = 0;
  for (auto _ : state) {
    dir.increment(s);
    dir.decrement(s);
    s = s + 1 == n ? 0 : s + 1;
    benchmark::DoNotOptimize(dir.idle_head());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryStepSequential)->Arg(1000)->Arg(100000)->Arg(1000000);

/// The same level moves on uniformly random servers — the access pattern
/// SQ(d) polling actually produces. At n = 10^6 every touch is a cache
/// miss in a cold layout; the gap between this and the sequential
/// variant is the cache-residency cost the fused record shrinks.
void BM_DirectoryStepRandom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  rlb::sim::Rng rng(17);
  rlb::sim::LevelDirectory dir(n);
  for (auto _ : state) {
    const int s =
        static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n)));
    dir.increment(s);
    dir.decrement(s);
    benchmark::DoNotOptimize(dir.idle_head());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryStepRandom)->Arg(1000)->Arg(100000)->Arg(1000000);

/// Replica-merge cost: the per-round serial section of every parallel
/// run (stats.h moments + batch means + quantile reservoirs).
void BM_ClusterAccumMerge(benchmark::State& state) {
  const int samples = static_cast<int>(state.range(0));
  rlb::sim::Rng rng(13);
  rlb::sim::ClusterAccum a, b;
  a.sojourn_ci = rlb::sim::BatchMeans(64);
  b.sojourn_ci = rlb::sim::BatchMeans(64);
  a.sojourn_quantiles = rlb::sim::ReservoirQuantiles(100'000, 1);
  b.sojourn_quantiles = rlb::sim::ReservoirQuantiles(100'000, 2);
  for (int i = 0; i < samples; ++i) {
    const double x = rng.next_double();
    const double y = rng.next_double();
    a.sojourn_stats.add(x);
    a.sojourn_ci.add(x);
    a.sojourn_quantiles.add(x);
    b.sojourn_stats.add(y);
    b.sojourn_ci.add(y);
    b.sojourn_quantiles.add(y);
  }
  for (auto _ : state) {
    rlb::sim::ClusterAccum into = a;
    into.merge(b);
    benchmark::DoNotOptimize(into.sojourn_stats.count());
  }
}
BENCHMARK(BM_ClusterAccumMerge)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
