// Scenario registry: every experiment in bench/ and examples/ registers
// itself here (name, description, parameter schema, run function) and the
// single rlb_run driver looks it up, parses its parameters, runs it —
// fanning sweep cells across worker threads — and feeds the result to the
// text/CSV/JSON sinks.
//
// Authoring a scenario is ~30 lines in one translation unit:
//
//   namespace {
//   rlb::engine::ScenarioOutput run(rlb::engine::ScenarioContext& ctx) {
//     const int n = ctx.cli().get_int<int>("n", 10);
//     rlb::engine::ScenarioOutput out;
//     auto& table = out.add_table("main", {"rho", "delay"});
//     const auto rows = ctx.map<std::vector<double>>(
//         cells.size(), [&](std::size_t i) { /* run cell i */ });
//     for (const auto& r : rows) table.add_row_numeric(r);
//     return out;
//   }
//   const rlb::engine::ScenarioRegistrar reg{{
//       "my_scenario",
//       "Extension: one-line description",
//       {{"n", "number of servers", "10"}},
//       run}};
//   }  // namespace
//
// Cells must derive all randomness from fixed per-cell seeds (see
// engine/sweep.h) so the thread count never changes the output.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/result_cache.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "sim/replica.h"
#include "util/cli.h"

namespace rlb::engine {

/// One declared scenario parameter; purely descriptive (parsing happens
/// through util::Cli), used by --list/--describe and the docs.
struct ParamSpec {
  std::string name;
  std::string description;
  std::string default_value;
};

/// The precision-targeted run-length request parsed from the global
/// `--target-ci` flag family (docs/PRECISION.md). `target_ci == 0` —
/// the default — means adaptive mode is off and scenarios run their
/// fixed budgets. Zero-valued job fields mean "derive from the
/// scenario's fixed budget" (see ScenarioContext::plan).
struct AdaptiveSpec {
  double target_ci = 0.0;
  double confidence = 0.95;
  std::uint64_t initial_jobs = 0;
  std::uint64_t max_jobs = 0;
  double growth_factor = 2.0;
  std::uint64_t warmup_jobs = 0;
  /// Whether --warmup-jobs appeared on the command line: an explicit 0
  /// (a legitimate "no warmup" request) must not fall back to the
  /// derived default the way an absent flag does.
  bool warmup_jobs_set = false;

  [[nodiscard]] bool enabled() const { return target_ci > 0.0; }

  /// Parse the --target-ci family from `cli` (also marking the flags as
  /// known, so util::Cli::finish() accepts them). Throws
  /// std::invalid_argument on malformed values, and on any other flag of
  /// the family given without a positive --target-ci (it would be
  /// silently ignored).
  static AdaptiveSpec parse(const util::Cli& cli);
};

/// Handed to the scenario's run function: its CLI parameters, the
/// requested replica count, the adaptive-precision request, and the
/// run's shared thread budget, from which both the cell-level map() and
/// any within-cell replica parallelism (sim/replica.h) draw their
/// workers.
class ScenarioContext {
 public:
  ScenarioContext(const util::Cli& cli, int threads, int replicas = 1,
                  ResultCache* cache = nullptr)
      : cli_(cli),
        threads_(resolve_threads(threads)),
        replicas_(replicas),
        adaptive_(AdaptiveSpec::parse(cli)),
        cache_(cache),
        budget_(threads_) {}  // threads_ resolved first (declaration order)

  [[nodiscard]] const util::Cli& cli() const { return cli_; }
  [[nodiscard]] int threads() const { return threads_; }

  /// Replicas requested via --replicas; scenarios pass this into their
  /// simulation configs for the big-N cells. Affects the output (R
  /// replicas merge R decorrelated streams) but never varies with the
  /// thread count, preserving the determinism contract.
  [[nodiscard]] int replicas() const { return replicas_; }

  /// The precision-targeted run-length request (--target-ci family).
  /// Scenarios that support adaptive mode run every cell on plan() and
  /// branch on adaptive().enabled() only to add the half_width /
  /// jobs_used / converged columns; scenarios that do not pass
  /// sim::AdaptivePlan::fixed directly and so ignore it (documented in
  /// the catalog's Common flags section).
  [[nodiscard]] const AdaptiveSpec& adaptive() const { return adaptive_; }

  /// The sim::AdaptivePlan for one simulation cell: `base_seed` is the
  /// cell's seed, `jobs` and `warmup` its fixed budget. Without
  /// --target-ci this is sim::AdaptivePlan::fixed(replicas(), jobs,
  /// warmup, base_seed). With it, explicit
  /// --initial-jobs/--max-jobs/--warmup-jobs win; the derived defaults
  /// are initial = max(jobs / 8, 30 * replicas) (round 0 is an eighth of
  /// the fixed budget, floored so every replica gets a measurable
  /// shard), max = 32 * initial (adaptive may spend up to 4x the fixed
  /// budget before giving up), and per-replica warmup = initial /
  /// (10 * replicas) (round 0 discards the usual 10%; later rounds keep
  /// that ABSOLUTE warmup). `warmup` plays no part in the adaptive plan.
  [[nodiscard]] sim::AdaptivePlan plan(std::uint64_t base_seed,
                                       std::uint64_t jobs,
                                       std::uint64_t warmup) const;

  /// The run-wide worker budget; hand it to the simulators so replica
  /// parallelism shares the pool with cell parallelism.
  [[nodiscard]] util::ThreadBudget& budget() const { return budget_; }

  /// results[i] = fn(i), computed on the context's worker budget; output
  /// is invariant under the thread count (see engine/sweep.h).
  template <typename T, typename Fn>
  std::vector<T> map(std::size_t count, Fn&& fn) const {
    return parallel_map<T>(count, budget_, std::forward<Fn>(fn));
  }

  /// The run's persistent result cache (--cache), or nullptr when the
  /// run is uncached.
  [[nodiscard]] ResultCache* cache() const { return cache_; }

  /// A CacheKey pre-filled with the run-level coordinates every cell
  /// shares — replicas and the --target-ci family EXCEPT target-ci
  /// itself (stored in the record instead, so a run at another target
  /// overwrites the record at the same coordinates; docs/CACHING.md).
  /// The scenario adds its own parameters (and the cell seed) on top.
  [[nodiscard]] CacheKey cell_key(const std::string& scenario,
                                  std::uint64_t seed) const;

  using CellKeyFn = std::function<CacheKey(std::size_t)>;
  /// Computes cell `i`. The returned record's target_ci is stamped by
  /// map_cells.
  using CellComputeFn = std::function<CellRecord(std::size_t)>;

  /// The cache-aware sweep: results[i] comes from the cache when its
  /// record satisfies the current precision target and from `compute`
  /// otherwise — computed on the same worker budget as map(), with
  /// lookups and stores serial around the parallel region, so the table
  /// stays invariant under the thread count AND under cache warmth.
  std::vector<CellRecord> map_cells(std::size_t count,
                                    const CellKeyFn& key_of,
                                    const CellComputeFn& compute) const;

 private:
  const util::Cli& cli_;
  int threads_;
  int replicas_;
  AdaptiveSpec adaptive_;
  ResultCache* cache_;
  // Worker-slot accounting mutates under const map(); the budget is
  // internally synchronized.
  mutable util::ThreadBudget budget_;
};

struct Scenario {
  std::string name;         ///< registry key, e.g. "power_of_d"
  std::string description;  ///< one-line summary for --list
  std::vector<ParamSpec> params;
  std::function<ScenarioOutput(ScenarioContext&)> run;
};

class UnknownScenarioError : public std::runtime_error {
 public:
  explicit UnknownScenarioError(const std::string& message)
      : std::runtime_error(message) {}
};

class ScenarioRegistry {
 public:
  /// The process-wide registry that ScenarioRegistrar populates.
  static ScenarioRegistry& global();

  /// Throws std::invalid_argument on an empty name, missing run function,
  /// or duplicate registration.
  void add(Scenario scenario);

  /// Throws UnknownScenarioError (message lists known names) on a miss.
  [[nodiscard]] const Scenario& get(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const;

  /// All scenarios, sorted by name.
  [[nodiscard]] std::vector<const Scenario*> list() const;

  [[nodiscard]] std::size_t size() const { return by_name_.size(); }

 private:
  std::map<std::string, Scenario> by_name_;
};

/// Static-object self-registration into the global registry.
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(Scenario scenario) {
    ScenarioRegistry::global().add(std::move(scenario));
  }
};

/// The self-documenting scenario catalog: one markdown section per
/// scenario (sorted by name) with its description and parameter-schema
/// table. `rlb_run --list --markdown` prints it and docs/SCENARIOS.md
/// commits it; CI regenerates the file and fails on drift, so the
/// rendering must stay deterministic.
std::string markdown_catalog(const std::vector<const Scenario*>& scenarios);

}  // namespace rlb::engine
