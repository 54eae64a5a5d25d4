#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/scenario.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "sim/fast_sqd.h"
#include "sim/rng.h"
#include "util/cli.h"

namespace {

using rlb::engine::cell_seed;
using rlb::engine::parallel_map;
using rlb::engine::Scenario;
using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using rlb::engine::ScenarioRegistry;
using rlb::engine::UnknownScenarioError;
using rlb::util::ThreadBudget;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Scenario make_scenario(const std::string& name) {
  return Scenario{name,
                  "test scenario " + name,
                  {{"n", "servers", "4"}},
                  [](ScenarioContext&) { return ScenarioOutput{}; }};
}

TEST(ScenarioRegistry, LookupFindsRegisteredScenario) {
  ScenarioRegistry registry;
  registry.add(make_scenario("alpha"));
  registry.add(make_scenario("beta"));
  EXPECT_TRUE(registry.contains("alpha"));
  EXPECT_EQ(registry.get("alpha").description, "test scenario alpha");
  EXPECT_EQ(registry.size(), 2u);

  const auto list = registry.list();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0]->name, "alpha");  // sorted by name
  EXPECT_EQ(list[1]->name, "beta");
}

TEST(ScenarioRegistry, UnknownScenarioThrowsWithKnownNames) {
  ScenarioRegistry registry;
  registry.add(make_scenario("alpha"));
  EXPECT_FALSE(registry.contains("nope"));
  try {
    (void)registry.get("nope");
    FAIL() << "expected UnknownScenarioError";
  } catch (const UnknownScenarioError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nope"), std::string::npos);
    EXPECT_NE(message.find("alpha"), std::string::npos);
  }
}

TEST(ScenarioRegistry, RejectsDuplicatesAndInvalidScenarios) {
  ScenarioRegistry registry;
  registry.add(make_scenario("alpha"));
  EXPECT_THROW(registry.add(make_scenario("alpha")), std::invalid_argument);
  EXPECT_THROW(registry.add(make_scenario("")), std::invalid_argument);
  Scenario no_run = make_scenario("gamma");
  no_run.run = nullptr;
  EXPECT_THROW(registry.add(std::move(no_run)), std::invalid_argument);
}

TEST(ScenarioRegistry, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&ScenarioRegistry::global(), &ScenarioRegistry::global());
}

TEST(MarkdownCatalog, RendersSectionsAndParamTables) {
  ScenarioRegistry registry;
  registry.add(make_scenario("alpha"));
  Scenario no_params = make_scenario("beta");
  no_params.params.clear();
  registry.add(std::move(no_params));

  const std::string md = rlb::engine::markdown_catalog(registry.list());
  EXPECT_NE(md.find("# Scenario catalog"), std::string::npos);
  EXPECT_NE(md.find("## `alpha`"), std::string::npos);
  EXPECT_NE(md.find("| `--n` | `4` | servers |"), std::string::npos);
  EXPECT_NE(md.find("## `beta`"), std::string::npos);
  EXPECT_NE(md.find("No parameters."), std::string::npos);
  // Sections are emitted in sorted order.
  EXPECT_LT(md.find("## `alpha`"), md.find("## `beta`"));
}

TEST(MarkdownCatalog, EscapesTableBreakingCharacters) {
  ScenarioRegistry registry;
  Scenario tricky = make_scenario("tricky");
  tricky.description = "a|b\nc";
  tricky.params = {{"x", "pipe|char", "1"}};
  registry.add(std::move(tricky));
  const std::string md = rlb::engine::markdown_catalog(registry.list());
  EXPECT_NE(md.find("a\\|b c"), std::string::npos);
  EXPECT_NE(md.find("pipe\\|char"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Deterministic parallel sweep
// ---------------------------------------------------------------------------

TEST(Sweep, CellSeedIsDeterministicAndDecorrelated) {
  EXPECT_EQ(cell_seed(7, 3), cell_seed(7, 3));
  EXPECT_NE(cell_seed(7, 3), cell_seed(7, 4));
  EXPECT_NE(cell_seed(7, 3), cell_seed(8, 3));
  EXPECT_NE(cell_seed(0, 0), 0u);
}

TEST(Sweep, ParallelMapPreservesIndexOrder) {
  const auto fn = [](std::size_t i) { return static_cast<int>(i * i); };
  ThreadBudget four_threads(4);
  const auto serial = parallel_map<int>(100, ThreadBudget::serial(), fn);
  const auto parallel = parallel_map<int>(100, four_threads, fn);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial[9], 81);
}

TEST(Sweep, FourThreadSweepEqualsOneThreadCellForCell) {
  // The acceptance property behind `rlb_run --threads=N`: a grid of real
  // stochastic simulations, seeded per cell, is bit-identical regardless
  // of the thread count. The grid is rho x d x N x 2 seed replicas.
  const std::vector<double> rhos{0.5, 0.8, 0.9};
  const std::vector<int> ds{1, 2};
  const std::vector<int> ns{2, 4};
  const std::size_t cells = rhos.size() * ds.size() * ns.size() * 2;
  ASSERT_EQ(cells, 24u);
  const auto run_cell = [&](std::size_t i) {
    const std::size_t point = i / 2;
    rlb::sim::FastSqdConfig cfg;
    cfg.params = {ns[point % ns.size()], ds[point / ns.size() % ds.size()],
                  rhos[point / (ns.size() * ds.size())], 1.0};
    return rlb::sim::simulate_sqd_fast(
               cfg,
               rlb::sim::AdaptivePlan::fixed(1, 20'000, 2'000,
                                             cell_seed(99, i)),
               ThreadBudget::serial())
        .mean_delay;
  };
  ThreadBudget four_threads(4);
  const auto one = parallel_map<double>(cells, ThreadBudget::serial(),
                                        run_cell);
  const auto four = parallel_map<double>(cells, four_threads, run_cell);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], four[i]) << "cell " << i << " diverged";
    EXPECT_GT(one[i], 0.0);
  }
}

TEST(Sweep, ParallelMapPropagatesExceptions) {
  const auto fn = [](std::size_t i) -> int {
    if (i == 17) throw std::runtime_error("cell 17 exploded");
    return static_cast<int>(i);
  };
  ThreadBudget four_threads(4);
  EXPECT_THROW(parallel_map<int>(32, four_threads, fn), std::runtime_error);
  EXPECT_THROW(parallel_map<int>(32, ThreadBudget::serial(), fn),
               std::runtime_error);
}

TEST(Sweep, ContextMapUsesConfiguredThreads) {
  char prog[] = "test";
  char* argv[] = {prog};
  const rlb::util::Cli cli(1, argv);
  ScenarioContext ctx(cli, 4);
  EXPECT_EQ(ctx.threads(), 4);
  const auto values = ctx.map<std::uint64_t>(10, [](std::size_t i) {
    rlb::sim::Rng rng(cell_seed(5, i));
    return rng.next_u64();
  });
  ScenarioContext serial(cli, 1);
  const auto expected = serial.map<std::uint64_t>(10, [](std::size_t i) {
    rlb::sim::Rng rng(cell_seed(5, i));
    return rng.next_u64();
  });
  EXPECT_EQ(values, expected);
}

TEST(Sweep, NegativeThreadCountIsRejectedNamingTheFlag) {
  // --threads=-3 used to run on every core, as 0 (hardware concurrency)
  // still does.
  EXPECT_GE(rlb::engine::resolve_threads(0), 1);
  try {
    (void)rlb::engine::resolve_threads(-3);
    ADD_FAILURE() << "--threads=-3 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
        << e.what();
  }
  char prog[] = "test";
  char* argv[] = {prog};
  const rlb::util::Cli cli(1, argv);
  EXPECT_THROW(ScenarioContext(cli, -1), std::invalid_argument);
}

TEST(Sweep, ContextCarriesReplicaCountAndBudget) {
  char prog[] = "test";
  char* argv[] = {prog};
  const rlb::util::Cli cli(1, argv);
  ScenarioContext ctx(cli, 4, 8);
  EXPECT_EQ(ctx.replicas(), 8);
  EXPECT_EQ(ctx.budget().total(), 4);
  ScenarioContext defaulted(cli, 2);
  EXPECT_EQ(defaulted.replicas(), 1);
}

// ---------------------------------------------------------------------------
// AdaptiveSpec / ScenarioContext::plan (--target-ci family)
// ---------------------------------------------------------------------------

rlb::util::Cli make_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  static std::vector<std::string> keep_alive;  // Cli stores string copies
  keep_alive = std::move(args);
  for (auto& a : keep_alive) argv.push_back(a.data());
  return rlb::util::Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(AdaptiveSpec, DisabledByDefaultAndParsesTheFlagFamily) {
  const auto off = make_cli({});
  EXPECT_FALSE(rlb::engine::AdaptiveSpec::parse(off).enabled());

  const auto on = make_cli({"--target-ci=0.01", "--confidence=0.99",
                            "--initial-jobs=500", "--max-jobs=9000",
                            "--growth-factor=3", "--warmup-jobs=40"});
  const auto spec = rlb::engine::AdaptiveSpec::parse(on);
  EXPECT_TRUE(spec.enabled());
  EXPECT_DOUBLE_EQ(spec.target_ci, 0.01);
  EXPECT_DOUBLE_EQ(spec.confidence, 0.99);
  EXPECT_EQ(spec.initial_jobs, 500u);
  EXPECT_EQ(spec.max_jobs, 9000u);
  EXPECT_DOUBLE_EQ(spec.growth_factor, 3.0);
  EXPECT_EQ(spec.warmup_jobs, 40u);
  EXPECT_TRUE(spec.warmup_jobs_set);
}

TEST(AdaptiveSpec, RejectsMalformedValues) {
  // Negative counts must fail loudly instead of wrapping through the
  // uint64 cast into near-infinite budgets.
  EXPECT_THROW(
      (void)rlb::engine::AdaptiveSpec::parse(make_cli({"--target-ci=-0.5"})),
      std::invalid_argument);
  for (const char* bad :
       {"--initial-jobs=-1", "--max-jobs=-1", "--warmup-jobs=-1"}) {
    const auto cli = make_cli({"--target-ci=0.05", bad});
    EXPECT_THROW((void)rlb::engine::AdaptiveSpec::parse(cli),
                 std::invalid_argument)
        << bad;
  }
}

TEST(AdaptiveSpec, RejectsTheFamilyWithoutATarget) {
  // Without a positive --target-ci these flags used to be parsed, marked
  // known and ignored — even a confidence level the t-table rejects ran a
  // fixed-budget table and exited 0. Now each fails naming itself.
  for (const char* flag : {"--confidence=0.5", "--initial-jobs=500",
                           "--max-jobs=5", "--growth-factor=3",
                           "--warmup-jobs=7"}) {
    for (const char* target : {"", "--target-ci=0"}) {
      std::vector<std::string> args{flag};
      if (*target != '\0') args.emplace_back(target);
      const auto cli = make_cli(args);
      const std::string name =
          std::string(flag).substr(0, std::string(flag).find('='));
      try {
        (void)rlb::engine::AdaptiveSpec::parse(cli);
        ADD_FAILURE() << flag << " " << target << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("--target-ci"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(AdaptiveSpec, AdaptivePlanDerivesDocumentedDefaults) {
  const auto cli = make_cli({"--target-ci=0.05"});
  ScenarioContext ctx(cli, 1, 4);
  const auto plan = ctx.plan(123, 80'000, 8'000);
  EXPECT_EQ(plan.replicas, 4);
  EXPECT_EQ(plan.base_seed, 123u);
  EXPECT_DOUBLE_EQ(plan.target_ci, 0.05);
  EXPECT_EQ(plan.initial_jobs, 10'000u);  // fixed budget / 8
  EXPECT_EQ(plan.max_jobs, 320'000u);     // 32 x initial
  EXPECT_EQ(plan.warmup_jobs, 250u);      // initial / (10 * replicas)
  plan.validate();

  // The documented floor: tiny fixed budgets with many replicas still
  // give every replica a measurable round-0 shard.
  ScenarioContext wide(cli, 1, 30);
  const auto floored = wide.plan(1, 1'000, 100);
  EXPECT_EQ(floored.initial_jobs, 900u);  // 30 jobs x 30 replicas
  floored.validate();

  // An explicit --warmup-jobs=0 is a real "no warmup" request, not the
  // unset sentinel: it must survive instead of becoming the 10% default.
  const auto zero_warmup = make_cli({"--target-ci=0.05",
                                     "--warmup-jobs=0"});
  ScenarioContext zero_ctx(zero_warmup, 1, 4);
  EXPECT_EQ(zero_ctx.plan(1, 80'000, 8'000).warmup_jobs, 0u);
}

TEST(AdaptiveSpec, PlanWithoutTargetIsTheFixedPlan) {
  // Without --target-ci a cell runs its fixed budget as one round.
  const auto cli = make_cli({});
  ScenarioContext ctx(cli, 1, 4);
  const auto plan = ctx.plan(123, 80'000, 8'000);
  const auto fixed = rlb::sim::AdaptivePlan::fixed(4, 80'000, 8'000, 123);
  EXPECT_EQ(plan.replicas, fixed.replicas);
  EXPECT_EQ(plan.target_ci, fixed.target_ci);
  EXPECT_EQ(plan.initial_jobs, fixed.initial_jobs);
  EXPECT_EQ(plan.max_jobs, fixed.max_jobs);
  EXPECT_EQ(plan.warmup_jobs, 2'000u);  // 8'000 over 4 replicas
  EXPECT_EQ(plan.base_seed, fixed.base_seed);
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

ScenarioOutput small_grid_output() {
  ScenarioOutput out;
  out.preamble = "small grid";
  auto& table = out.add_table("grid", {"rho", "n", "delay", "status"});
  table.add_row({"0.50", "2", "1.25", "ok"});
  table.add_row({"0.90", "4", "3.5", "unstable"});
  out.note("note under grid");
  return out;
}

std::vector<std::vector<std::string>> parse_csv(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    rows.push_back(std::move(cells));
  }
  return rows;
}

TEST(Sink, CsvRoundTripsASmallGrid) {
  const ScenarioOutput out = small_grid_output();
  const std::string path = ::testing::TempDir() + "/rlb_sink_roundtrip.csv";
  const auto written = rlb::engine::write_csv(out, path);
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], path);

  const auto rows = parse_csv(path);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"rho", "n", "delay",
                                               "status"}));
  EXPECT_EQ(rows[1],
            (std::vector<std::string>{"0.50", "2", "1.25", "ok"}));
  EXPECT_EQ(rows[2],
            (std::vector<std::string>{"0.90", "4", "3.5", "unstable"}));
  std::remove(path.c_str());
}

TEST(Sink, MultiTableCsvSplitsPerTable) {
  ScenarioOutput out = small_grid_output();
  auto& second = out.add_table("extra", {"a"});
  second.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/rlb_multi.csv";
  const auto written = rlb::engine::write_csv(out, path);
  ASSERT_EQ(written.size(), 2u);
  EXPECT_EQ(written[0], ::testing::TempDir() + "/rlb_multi.grid.csv");
  EXPECT_EQ(written[1], ::testing::TempDir() + "/rlb_multi.extra.csv");
  for (const auto& p : written) {
    EXPECT_FALSE(parse_csv(p).empty());
    std::remove(p.c_str());
  }
}

TEST(Sink, JsonRoundTripsASmallGrid) {
  const ScenarioOutput out = small_grid_output();
  const std::string json = rlb::engine::to_json(out, "toy");
  // Numbers stay numbers, non-numeric cells are quoted strings.
  EXPECT_EQ(json,
            "{\"scenario\":\"toy\",\"tables\":[{\"name\":\"grid\","
            "\"header\":[\"rho\",\"n\",\"delay\",\"status\"],"
            "\"rows\":[[0.50,2,1.25,\"ok\"],[0.90,4,3.5,\"unstable\"]]}]}");

  const std::string path = ::testing::TempDir() + "/rlb_sink.json";
  rlb::engine::write_json(out, "toy", path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), json + "\n");
  std::remove(path.c_str());
}

TEST(Sink, JsonEscapesStringsAndRejectsNonJsonNumbers) {
  ScenarioOutput out;
  auto& table = out.add_table("t", {"weird \"col\""});
  table.add_row({"line\nbreak"});
  table.add_row({"007"});    // leading zeros: not a JSON number
  table.add_row({"0x1f"});   // hex: not a JSON number
  table.add_row({"-1.5e3"});  // valid JSON number
  const std::string json = rlb::engine::to_json(out, "esc");
  EXPECT_NE(json.find("\"weird \\\"col\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"line\\nbreak\""), std::string::npos);
  EXPECT_NE(json.find("\"007\""), std::string::npos);
  EXPECT_NE(json.find("\"0x1f\""), std::string::npos);
  EXPECT_NE(json.find("-1.5e3"), std::string::npos);
  EXPECT_EQ(json.find("\"-1.5e3\""), std::string::npos);
}

TEST(Sink, JsonEscapesAllControlCharacters) {
  // Scenario descriptions may carry any byte; the JSON sink must never
  // emit an invalid document. Named escapes for the common controls,
  // \u00XX for the rest.
  ScenarioOutput out;
  auto& table = out.add_table("t", {"c"});
  std::string all_controls;
  for (char c = 1; c < 0x20; ++c) all_controls.push_back(c);
  table.add_row({all_controls});
  const std::string json = rlb::engine::to_json(out, "ctl");
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\r"), std::string::npos);
  EXPECT_NE(json.find("\\b"), std::string::npos);
  EXPECT_NE(json.find("\\f"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  // No raw control byte may survive into the document.
  for (char c = 1; c < 0x20; ++c)
    EXPECT_EQ(json.find(c), std::string::npos)
        << "raw control byte " << static_cast<int>(c);
}

TEST(Sink, TextRenderingIncludesTablesAndNotes) {
  const ScenarioOutput out = small_grid_output();
  std::ostringstream os;
  rlb::engine::write_text(out, os);
  const std::string s = os.str();
  EXPECT_NE(s.find("small grid"), std::string::npos);
  EXPECT_NE(s.find("unstable"), std::string::npos);
  EXPECT_NE(s.find("note under grid"), std::string::npos);
}

}  // namespace
