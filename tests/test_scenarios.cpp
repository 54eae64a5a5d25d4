// End-to-end checks of registered scenarios through the global registry
// (this binary links the bench/ and examples/ scenario translation units,
// unlike the unit-test binaries). The key property is the rlb_run
// contract: for a fixed --replicas value, the rendered output of a
// scenario is bit-identical for every thread count.
//
// One table of smoke rows drives the contract checks for every scenario
// in the registry: EveryRegisteredScenarioHasASmokeRow fails until a new
// scenario has a row, and the row then gets the thread, replica,
// adaptive and cache checks of the ScenarioSmoke suite below.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/baseline.h"
#include "engine/scenario.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "util/cli.h"
#include "util/table.h"

#ifndef RLB_SOURCE_DIR
#error "RLB_SOURCE_DIR must point at the repository root"
#endif

namespace {

using rlb::engine::Scenario;
using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioRegistry;

/// One scenario run: the output itself and its two renderings.
struct Rendered {
  rlb::engine::ScenarioOutput out;
  std::string json;
  std::string text;
};

/// Run one scenario (args as an rlb_run-style flag list), optionally
/// through a result cache (the rlb_run --cache path). Like rlb_run, it
/// rejects flags the scenario never reads.
Rendered run_scenario(const std::string& name, std::vector<std::string> args,
                      int threads, int replicas,
                      rlb::engine::ResultCache* cache = nullptr) {
  const Scenario& scenario = ScenarioRegistry::global().get(name);
  args.insert(args.begin(), "test_scenarios");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  const rlb::util::Cli cli(static_cast<int>(argv.size()), argv.data());
  for (const auto& p : scenario.params) (void)cli.has(p.name);
  ScenarioContext ctx(cli, threads, replicas, cache);
  cli.finish();
  Rendered run{scenario.run(ctx), "", ""};
  run.json = rlb::engine::to_json(run.out, name);
  std::ostringstream text;
  rlb::engine::write_text(run.out, text);
  run.text = text.str();
  return run;
}

std::string run_to_json(const std::string& name,
                        std::vector<std::string> args, int threads,
                        int replicas,
                        rlb::engine::ResultCache* cache = nullptr) {
  return run_scenario(name, std::move(args), threads, replicas, cache).json;
}

/// One smoke configuration of a registered scenario.
struct SmokeRow {
  std::string scenario;
  /// Whether the run simulates, so that --replicas changes its output.
  bool simulates;
  /// Flags that keep a Release run under about a second, where the
  /// scenario has a size flag.
  std::vector<std::string> flags = {};
  /// Flags that make the run adaptive on top of `flags`; empty when the
  /// scenario ignores --target-ci.
  std::vector<std::string> adaptive = {};
  /// Columns that report wall-clock time, exempt from byte equality.
  std::set<std::string> wall_clock = {};
  /// Test-name suffix: the scenario name, numbered from its second row
  /// (filled in by smoke_rows()).
  std::string label = {};
};

void PrintTo(const SmokeRow& row, std::ostream* os) { *os << row.label; }

const std::string kGoldenTrace =
    std::string("--trace=") + RLB_SOURCE_DIR + "/tests/data/golden.trace";

std::vector<SmokeRow> smoke_rows() {
  const std::vector<std::string> adaptive{"--target-ci=0.2",
                                          "--max-jobs=60000"};
  const std::vector<std::string> rack_adaptive{"--target-ci=0.25",
                                               "--max-jobs=24000"};
  const std::vector<std::string> fleet{"--nmin=32", "--nmax=128",
                                       "--nstep=2", "--jobs-per-server=200"};
  auto fleet_timed = fleet;
  fleet_timed.push_back("--time");
  // A 12-server tier under bursty arrivals and heavy-tailed service.
  const std::vector<std::string> bursty_lognormal{
      "--jobs=20000", "--n=12", "--d=3", "--service=lognormal:mean=1,cv=2",
      "--arrival-scv=4"};
  const std::set<std::string> improved_times{"t_generic(s)", "t_improved(s)",
                                             "speedup"};
  const std::set<std::string> solve_times{"t_lower(s)", "t_upper(s)"};
  std::vector<SmokeRow> rows{
      {"ablation_improved_lower", false, {}, {}, improved_times},
      {"ablation_redirect_rules", false},
      {"ablation_threshold_sweep", true, {"--tmax=3", "--jobs=20000"}, {},
       solve_times},
      // N > 3: no exact reference, the simulated one only.
      {"ablation_threshold_sweep", true,
       {"--n=6", "--rho=0.9", "--tmax=3", "--jobs=20000"}, {}, solve_times},
      {"batch_arrivals", true, {"--jobs=20000"}, adaptive},
      {"capacity_planning", false, {"--T=2"}},
      {"diurnal_surge", true, {"--jobs=20000", "--ns=10,14"}},
      {"diurnal_surge", true, {"--jobs=10000", "--ns=10,12", kGoldenTrace}},
      {"fig09_relative_error", true, {"--jobs=20000", "--rho=0.75"}, adaptive},
      {"fig09_relative_error", true, {"--jobs=10000"}, adaptive},  // both rho
      {"fig10_delay_vs_utilization", true, {"--jobs=20000", "--panel=a"},
       adaptive},
      {"fleet_scaling", true, fleet},
      {"fleet_scaling", true, fleet_timed, {},
       {"sq(2) ns/job", "jiq ns/job", "jsq-h ns/job"}},
      {"heavy_tail_service", true, {"--jobs=15000"}},
      {"hetero_fleet_bounds", true, {"--steps=120000", "--arrivals=60000"},
       {"--target-ci=0.2", "--max-jobs=240000"}},
      {"logreduction_iters", false},
      {"policy_comparison", true, {"--jobs=30000"}, adaptive},
      {"policy_comparison", true, bursty_lognormal, adaptive},
      {"power_of_d", true, {"--jobs=20000"},
       {"--target-ci=0.05", "--max-jobs=120000"}},
      {"rack_locality", true, {"--jobs=8000"}, rack_adaptive},
      {"rack_locality", true, {"--jobs=8000", "--penalty-kind=capacity"},
       rack_adaptive},
      {"sigma_gi", true, {"--jobs=20000"}, adaptive},
      {"tail_distribution", true, {"--jobs=50000"}, adaptive},
      {"waiting_profile", true, {"--jobs=20000"}, adaptive},
  };
  std::map<std::string, int> seen;
  for (SmokeRow& row : rows) {
    const int k = seen[row.scenario]++;
    row.label = row.scenario + (k == 0 ? "" : "_" + std::to_string(k));
  }
  return rows;
}

TEST(Scenarios, EveryRegisteredScenarioHasASmokeRow) {
  std::set<std::string> covered;
  for (const SmokeRow& row : smoke_rows()) {
    EXPECT_TRUE(ScenarioRegistry::global().contains(row.scenario))
        << row.scenario << " has a smoke row but is not registered";
    covered.insert(row.scenario);
  }
  for (const Scenario* s : ScenarioRegistry::global().list())
    EXPECT_EQ(covered.count(s->name), 1u)
        << s->name << " is registered but has no smoke row";
}

/// Where two renderings first differ, for failure messages.
std::string first_difference(const std::string& a, const std::string& b) {
  const auto at = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
  const std::size_t from = at < 40 ? 0 : at - 40;
  return "first difference at byte " + std::to_string(at) + ":\n  " +
         a.substr(from, 80) + "\n  " + b.substr(from, 80);
}

/// Whether two runs of `row` rendered the same output: byte-identical
/// JSON and text, or, for rows with wall-clock columns, the same tables
/// outside those columns.
::testing::AssertionResult same_output(const SmokeRow& row, const Rendered& a,
                                       const Rendered& b) {
  if (row.wall_clock.empty()) {
    if (a.json != b.json)
      return ::testing::AssertionFailure()
             << "JSON differs, " << first_difference(a.json, b.json);
    if (a.text != b.text)
      return ::testing::AssertionFailure()
             << "text differs, " << first_difference(a.text, b.text);
    return ::testing::AssertionSuccess();
  }
  rlb::engine::BaselineOptions exact;  // rtol = atol = 0
  exact.ignore_columns = row.wall_clock;
  const auto report = rlb::engine::compare_to_baseline(a.out, b.json, exact);
  if (report.ok) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.describe();
}

class ScenarioSmoke : public ::testing::TestWithParam<SmokeRow> {
 protected:
  Rendered run(const std::vector<std::string>& flags, int threads,
               int replicas, rlb::engine::ResultCache* cache = nullptr) const {
    return run_scenario(GetParam().scenario, flags, threads, replicas, cache);
  }
};

TEST_P(ScenarioSmoke, ThreadCountNeverChangesOutput) {
  const SmokeRow& row = GetParam();
  for (int replicas : {1, 2, 8}) {
    const Rendered one = run(row.flags, 1, replicas);
    const Rendered four = run(row.flags, 4, replicas);
    EXPECT_TRUE(same_output(row, one, four)) << "replicas=" << replicas;
  }
}

TEST_P(ScenarioSmoke, ReplicaCountChangesOnlySimulatedOutput) {
  // R replicas merge R decorrelated streams, so a simulating row's output
  // changes with R (reproducibly: the thread check pins each R); a pure
  // solver row must ignore --replicas.
  const SmokeRow& row = GetParam();
  const Rendered r1 = run(row.flags, 2, 1);
  const Rendered r2 = run(row.flags, 2, 2);
  if (row.simulates)
    EXPECT_FALSE(same_output(row, r1, r2)) << "--replicas=2 changed nothing";
  else
    EXPECT_TRUE(same_output(row, r1, r2));
}

TEST_P(ScenarioSmoke, AdaptiveModeIsThreadCountInvariantOrIgnored) {
  // The --target-ci contract: adaptive runs stop on their own schedule,
  // report half_width / jobs_used / converged, and stay bit-identical
  // across thread counts (rounds are barriers; replicas seed and merge in
  // index order). A scenario without adaptive mode must ignore the flag.
  const SmokeRow& row = GetParam();
  if (row.adaptive.empty()) {
    auto with_target = row.flags;
    with_target.push_back("--target-ci=0.1");
    EXPECT_TRUE(
        same_output(row, run(row.flags, 2, 2), run(with_target, 2, 2)));
    return;
  }
  auto flags = row.flags;
  flags.insert(flags.end(), row.adaptive.begin(), row.adaptive.end());
  const Rendered one = run(flags, 1, 2);
  const Rendered four = run(flags, 4, 2);
  EXPECT_TRUE(same_output(row, one, four));
  for (const char* column : {"half_width", "jobs_used", "converged"})
    EXPECT_NE(one.json.find(column), std::string::npos) << "lacks " << column;
}

TEST_P(ScenarioSmoke, WarmCacheRerunIsByteIdenticalToCold) {
  // The acceptance contract (docs/CACHING.md): a warm-cache re-run
  // renders byte-for-byte what the cold run rendered and what an uncached
  // run renders, at any thread count, since cells are keyed semantically
  // and the store/lookup passes are serial. Scenarios without a cached
  // sweep must simply ignore the cache.
  const SmokeRow& row = GetParam();
  // One directory per row: ctest -j runs each test in its own process.
  const std::string dir =
      ::testing::TempDir() + "rlb_smoke_cache_" + row.label;
  std::filesystem::remove_all(dir);
  const Rendered uncached = run(row.flags, 2, 1);
  rlb::engine::ResultCache cold_cache(dir, rlb::engine::CacheMode::kReadWrite);
  const Rendered cold = run(row.flags, 4, 1, &cold_cache);
  rlb::engine::ResultCache warm_cache(dir, rlb::engine::CacheMode::kReadWrite);
  const Rendered warm = run(row.flags, 1, 1, &warm_cache);
  std::filesystem::remove_all(dir);

  EXPECT_TRUE(same_output(row, uncached, cold)) << "caching changed output";
  EXPECT_TRUE(same_output(row, cold, warm)) << "warm re-run drifted";
  EXPECT_EQ(cold_cache.hits(), 0u);
  EXPECT_EQ(warm_cache.misses(), 0u);
  EXPECT_EQ(warm_cache.hits(), cold_cache.stored());
  EXPECT_EQ(warm_cache.stored(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Registry, ScenarioSmoke,
                         ::testing::ValuesIn(smoke_rows()));

TEST(Scenarios, InvalidFlagValuesFailNamingTheFlag) {
  // Each of these used to run something else: --jobs=-1 wrapped to
  // 2^64 - 1 jobs (a run that never ends), --jobs=1e6 stopped parsing at
  // the 'e' (one job per cell) and --panel=z printed the preamble alone.
  const std::vector<std::pair<std::string, std::string>> cases{
      {"power_of_d", "--jobs=-1"},
      {"power_of_d", "--jobs=1e6"},
      {"fig10_delay_vs_utilization", "--panel=z"},
      {"policy_comparison", "--arrival-scv=0.5"}};
  for (const auto& [scenario, flag] : cases) {
    try {
      (void)run_to_json(scenario, {flag}, 1, 1);
      ADD_FAILURE() << scenario << " " << flag << " ran";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(flag.substr(0, flag.find('='))),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Scenarios, HeavyTailExpColumnReproducesTheLegacyStream) {
  // The scenario's exponential column is the stock M/M path: the same
  // ClusterConfig and plan fed straight into simulate_cluster must land in
  // the rendered table verbatim (the scenario adds no randomness of its
  // own).
  using namespace rlb::sim;
  ClusterConfig cfg;
  cfg.servers = 8;
  const auto interarrival = make_exponential(0.85 * 8);
  RenewalArrivals arrivals(*interarrival);
  const auto service = make_exponential(1.0);
  SqdPolicy policy(8, 2);
  const auto direct = simulate_cluster(
      cfg, policy, arrivals, *service,
      AdaptivePlan::fixed(1, 15'000, 1'500,
                          rlb::engine::cell_seed(24680, 0)),  // row 0
      rlb::util::ThreadBudget::serial());

  const std::string json = run_to_json(
      "heavy_tail_service", {"--jobs=15000", "--dist=exp"}, 2, 1);
  EXPECT_NE(json.find(rlb::util::fmt(direct.mean_sojourn, 4)),
            std::string::npos);
  EXPECT_NE(json.find(rlb::util::fmt(direct.p99_sojourn, 4)),
            std::string::npos);
}

TEST(Scenarios, DiurnalSurgeReplaysTheGoldenTrace) {
  // The rendered text names the replayed trace stream; the smoke row with
  // the same trace pins its thread-count invariance.
  const Rendered run = run_scenario(
      "diurnal_surge", {"--jobs=10000", "--ns=10,12", kGoldenTrace}, 2, 1);
  EXPECT_NE(run.text.find("trace(40 jobs/cycle)"), std::string::npos);
}

/// A fresh per-test cache directory under gtest's temp root.
class ScenarioCache : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test AND process: ctest -j runs each test in its own
    // process, so a shared name would race between concurrent tests.
    dir_ = ::testing::TempDir() + "rlb_scenario_cache_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  rlb::engine::ResultCache make_cache(
      rlb::engine::CacheMode mode = rlb::engine::CacheMode::kReadWrite) {
    return rlb::engine::ResultCache(dir_, mode);
  }

  std::string dir_;
};

TEST_F(ScenarioCache, RackLocalityKeysCellsOnTopologyCoordinates) {
  // Topology coordinates (penalty kind, rack count) are part of the cell
  // key: a warm re-run with identical flags is all hits and byte-
  // identical, while flipping any topology knob shares nothing.
  const std::vector<std::string> args{"--jobs=6000"};
  auto cold_cache = make_cache();
  const std::string cold =
      run_to_json("rack_locality", args, 4, 1, &cold_cache);
  EXPECT_EQ(cold_cache.hits(), 0u);
  EXPECT_GT(cold_cache.stored(), 0u);

  auto warm_cache = make_cache();
  const std::string warm =
      run_to_json("rack_locality", args, 1, 1, &warm_cache);
  EXPECT_EQ(warm, cold) << "warm re-run drifted";
  EXPECT_EQ(warm_cache.misses(), 0u);
  EXPECT_EQ(warm_cache.hits(), cold_cache.stored());

  auto kind_cache = make_cache();
  (void)run_to_json("rack_locality",
                    {"--jobs=6000", "--penalty-kind=capacity"}, 2, 1,
                    &kind_cache);
  EXPECT_EQ(kind_cache.hits(), 0u)
      << "penalty kind missing from the cell key";

  auto racks_cache = make_cache();
  (void)run_to_json("rack_locality",
                    {"--jobs=6000", "--racks=2", "--per-rack=8"}, 2, 1,
                    &racks_cache);
  EXPECT_EQ(racks_cache.hits(), 0u)
      << "rack geometry missing from the cell key";
}

TEST_F(ScenarioCache, AdaptiveRunsHitUnderBothPlanners) {
  // Adaptive cells key on the stopping knobs and must round-trip through
  // the cache byte-identically.
  const std::vector<std::string> args{"--jobs=20000", "--target-ci=0.1",
                                      "--max-jobs=80000"};
  auto cold_cache = make_cache();
  const std::string cold = run_to_json("power_of_d", args, 4, 2, &cold_cache);
  auto warm_cache = make_cache();
  const std::string warm = run_to_json("power_of_d", args, 1, 2, &warm_cache);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm_cache.misses(), 0u);
  EXPECT_GT(warm_cache.hits(), 0u);
}

TEST_F(ScenarioCache, RefineFromCachedStateEqualsColdRunAtTighterTarget) {
  // The refinement contract end to end: seed the cache at a loose
  // target, re-run at a tighter one, and compare against an uncached cold
  // run at the tight target — byte-identical, and cheaper (only solver
  // cells recompute from scratch; every simulated cell resumes its round
  // schedule). No flag asks for it: a looser record always refines.
  const std::vector<std::string> base{"--jobs=20000", "--max-jobs=160000"};
  auto loose_args = base;
  loose_args.push_back("--target-ci=0.2");
  auto cache = make_cache();
  (void)run_to_json("power_of_d", loose_args, 4, 1, &cache);

  auto tight_args = base;
  tight_args.push_back("--target-ci=0.1");
  const std::string cold = run_to_json("power_of_d", tight_args, 2, 1);

  auto refine_cache = make_cache();
  const std::string refined =
      run_to_json("power_of_d", tight_args, 1, 1, &refine_cache);
  EXPECT_EQ(refined, cold);
  EXPECT_GT(refine_cache.refined(), 0u);
  EXPECT_EQ(refine_cache.hits(), 0u);

  // The refined records now satisfy the tight target: a plain warm
  // re-run at --target-ci=0.1 is all hits.
  auto warm_cache = make_cache();
  const std::string warm =
      run_to_json("power_of_d", tight_args, 4, 1, &warm_cache);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm_cache.misses(), 0u);
}

TEST_F(ScenarioCache, InconsistentRoundStateIsDiscardedAndRecomputed) {
  // A record that parses but holds a round state no run writes is
  // discarded and its cell recomputed, like any corrupt record; resuming
  // from it would abort the whole run.
  const std::vector<std::string> base{"--jobs=20000", "--max-jobs=160000"};
  auto loose_args = base;
  loose_args.push_back("--target-ci=0.2");
  auto cache = make_cache();
  (void)run_to_json("power_of_d", loose_args, 4, 1, &cache);

  // Zero the completed-round count of one record on disk.
  std::vector<std::filesystem::path> records;
  for (const auto& entry : std::filesystem::directory_iterator(dir_))
    records.push_back(entry.path());
  std::sort(records.begin(), records.end());
  const std::string field = "\"round_state\":{\"rounds\":";
  bool edited = false;
  for (const auto& path : records) {
    std::stringstream text;
    text << std::ifstream(path).rdbuf();
    std::string record = text.str();
    const auto at = record.find(field);
    if (at == std::string::npos) continue;
    const auto begin = at + field.size();
    record.replace(begin, record.find(',', begin) - begin, "0");
    std::ofstream(path) << record;
    edited = true;
    break;
  }
  ASSERT_TRUE(edited);

  auto tight_args = base;
  tight_args.push_back("--target-ci=0.1");
  const std::string cold = run_to_json("power_of_d", tight_args, 2, 1);
  auto refine_cache = make_cache();
  std::string refined;
  ASSERT_NO_THROW(
      refined = run_to_json("power_of_d", tight_args, 1, 1, &refine_cache));
  EXPECT_EQ(refined, cold);
  EXPECT_EQ(refine_cache.discarded(), 1u);
}

TEST(Scenarios, MarkdownCatalogCoversEveryScenario) {
  const auto scenarios = ScenarioRegistry::global().list();
  const std::string catalog = rlb::engine::markdown_catalog(scenarios);
  for (const Scenario* s : scenarios) {
    EXPECT_NE(catalog.find("## `" + s->name + "`"), std::string::npos)
        << s->name;
    for (const auto& p : s->params)
      EXPECT_NE(catalog.find("`--" + p.name + "`"), std::string::npos)
          << s->name << " --" << p.name;
    // Each description opens with the paper artifact it reproduces (a
    // figure, theorem or section), or says it goes beyond the paper; no
    // undefined experiment tags like "E10".
    EXPECT_TRUE(std::regex_search(
        s->description, std::regex("^(Fig\\. |Theorem |§|Extension: )")))
        << s->name << ": " << s->description;
    EXPECT_FALSE(std::regex_search(s->description, std::regex("\\bE[0-9]")))
        << s->name << ": " << s->description;
  }
  // The global-flag section documents the full rlb_run CLI.
  EXPECT_NE(catalog.find("## Common flags"), std::string::npos);
  for (const char* flag :
       {"`--threads`", "`--replicas`", "`--baseline`", "`--target-ci`",
        "`--confidence`", "`--max-jobs`", "`--warmup-jobs`", "`--cache`"})
    EXPECT_NE(catalog.find(flag), std::string::npos) << flag;
  // One adaptive schedule: no planner or warmup-policy switch, and the
  // cache refines without being asked.
  for (const char* gone : {"`--planner`", "`--warmup-policy`",
                           "`--warmup-fraction`", "`--refine`"})
    EXPECT_EQ(catalog.find(gone), std::string::npos) << gone;
}

}  // namespace
