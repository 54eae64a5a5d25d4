#include "engine/scenario.h"

#include <algorithm>
#include <optional>

namespace rlb::engine {

AdaptiveSpec AdaptiveSpec::parse(const util::Cli& cli) {
  // Job counts are unsigned: a negative value is rejected instead of
  // wrapping into a near-infinite budget.
  const auto job_count = [&cli](const std::string& name) {
    return cli.get_int<std::uint64_t>(name, 0);
  };
  AdaptiveSpec spec;
  spec.target_ci = cli.get_double("target-ci", 0.0);
  spec.confidence = cli.get_double("confidence", 0.95);
  spec.initial_jobs = job_count("initial-jobs");
  spec.max_jobs = job_count("max-jobs");
  spec.growth_factor = cli.get_double("growth-factor", 2.0);
  spec.warmup_jobs_set = cli.has("warmup-jobs");
  spec.warmup_jobs = job_count("warmup-jobs");
  if (spec.target_ci < 0.0)
    throw std::invalid_argument("--target-ci must be positive");
  // The rest of the family only shapes an adaptive run: without a target
  // it would be parsed, accepted and ignored.
  if (!spec.enabled())
    for (const char* flag : {"confidence", "initial-jobs", "max-jobs",
                             "growth-factor", "warmup-jobs"})
      if (cli.has(flag))
        throw std::invalid_argument(
            std::string("--") + flag +
            " requires a positive --target-ci (it configures the adaptive "
            "run length and does nothing without one)");
  return spec;
}

sim::AdaptivePlan ScenarioContext::plan(std::uint64_t base_seed,
                                        std::uint64_t jobs,
                                        std::uint64_t warmup) const {
  if (!adaptive_.enabled())
    return sim::AdaptivePlan::fixed(replicas_, jobs, warmup, base_seed);
  const auto replicas = static_cast<std::uint64_t>(replicas_);
  sim::AdaptivePlan plan;
  plan.replicas = replicas_;
  plan.base_seed = base_seed;
  plan.target_ci = adaptive_.target_ci;
  plan.confidence = adaptive_.confidence;
  plan.growth_factor = adaptive_.growth_factor;
  plan.initial_jobs = adaptive_.initial_jobs != 0
                          ? adaptive_.initial_jobs
                          : std::max(jobs / 8, replicas * 30);
  plan.max_jobs = adaptive_.max_jobs != 0 ? adaptive_.max_jobs
                                          : 32 * plan.initial_jobs;
  plan.warmup_jobs = adaptive_.warmup_jobs_set
                         ? adaptive_.warmup_jobs
                         : plan.initial_jobs / (10 * replicas);
  return plan;
}

CacheKey ScenarioContext::cell_key(const std::string& scenario,
                                   std::uint64_t seed) const {
  CacheKey key(scenario);
  key.set("seed", seed);
  key.set("replicas", replicas_);
  key.set("adaptive", adaptive_.enabled());
  if (adaptive_.enabled()) {
    // Raw flag values, not derived defaults: the derivations are
    // deterministic functions of the scenario parameters, which are in
    // the key too ("0" = derived is therefore unambiguous).
    key.set("confidence", adaptive_.confidence);
    key.set("initial-jobs", adaptive_.initial_jobs);
    key.set("max-jobs", adaptive_.max_jobs);
    key.set("growth-factor", adaptive_.growth_factor);
    key.set("warmup-jobs", adaptive_.warmup_jobs_set
                               ? std::to_string(adaptive_.warmup_jobs)
                               : std::string("derived"));
  }
  return key;
}

std::vector<CellRecord> ScenarioContext::map_cells(
    std::size_t count, const CellKeyFn& key_of,
    const CellComputeFn& compute) const {
  const double target = adaptive_.target_ci;
  const auto compute_at_target = [&](std::size_t i) {
    CellRecord record = compute(i);
    record.target_ci = target;
    return record;
  };
  if (cache_ == nullptr)
    return parallel_map<CellRecord>(count, budget_, compute_at_target);
  // Serial lookup pre-pass: the cache does unsynchronized IO and
  // counter updates, so all of it stays outside the parallel region.
  std::vector<CacheKey> keys;
  keys.reserve(count);
  std::vector<std::optional<CellRecord>> hits;
  hits.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back(key_of(i));
    hits.push_back(cache_->lookup(keys.back(), target));
  }
  std::vector<CellRecord> results =
      parallel_map<CellRecord>(count, budget_, [&](std::size_t i) {
        return hits[i] ? *hits[i] : compute_at_target(i);
      });
  // Serial store pass: hits are already on disk; every computed cell
  // persists at the current target.
  for (std::size_t i = 0; i < count; ++i)
    if (!hits[i]) cache_->store(keys[i], results[i]);
  return results;
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(Scenario scenario) {
  if (scenario.name.empty())
    throw std::invalid_argument("scenario name must be non-empty");
  if (!scenario.run)
    throw std::invalid_argument("scenario '" + scenario.name +
                                "' has no run function");
  const auto [it, inserted] =
      by_name_.emplace(scenario.name, std::move(scenario));
  if (!inserted)
    throw std::invalid_argument("duplicate scenario registration: '" +
                                it->first + "'");
}

const Scenario& ScenarioRegistry::get(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    std::string message = "unknown scenario '" + name + "'; known:";
    for (const auto& [known, unused] : by_name_) {
      (void)unused;
      message += " " + known;
    }
    throw UnknownScenarioError(message);
  }
  return it->second;
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return by_name_.count(name) != 0;
}

std::vector<const Scenario*> ScenarioRegistry::list() const {
  std::vector<const Scenario*> out;
  out.reserve(by_name_.size());
  for (const auto& [name, scenario] : by_name_) {
    (void)name;
    out.push_back(&scenario);
  }
  return out;
}

namespace {

/// Escape the characters that would break a markdown table cell.
std::string md_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '|') out += "\\|";
    else if (c == '\n') out += ' ';
    else out += c;
  }
  return out;
}

}  // namespace

namespace {

/// The global flags rlb_run understands for every scenario, rendered
/// into the catalog's "Common flags" section (the same CI freshness
/// guard that covers the per-scenario tables covers this list).
struct CommonFlag {
  const char* name;
  const char* default_value;
  const char* description;
};

constexpr CommonFlag kCommonFlags[] = {
    {"threads", "hardware concurrency",
     "worker threads; never changes output, only wall-clock time"},
    {"replicas", "1",
     "independent replica chains per simulation cell (sim/replica.h); "
     "changes output deterministically, 1 reproduces legacy streams"},
    {"csv", "(off)", "write the result tables as CSV"},
    {"json", "(off)", "write the result tables as JSON"},
    {"baseline", "(off)",
     "diff the run against a committed --json reference; drift exits 3"},
    {"rtol", "1e-9",
     "baseline relative tolerance (plain number or col=tol list)"},
    {"atol", "0", "baseline absolute tolerance"},
    {"target-ci", "(off)",
     "adaptive precision target: grow the budget in rounds until the "
     "pooled CI half-width of the cell's target statistic falls below "
     "this (docs/PRECISION.md); scenarios not wired for it ignore it"},
    {"confidence", "0.95",
     "CI level for --target-ci stopping (t-table levels: 0.90/0.95/0.99)"},
    {"initial-jobs", "fixed budget / 8, min 30 x replicas",
     "round-0 total jobs per cell in adaptive mode"},
    {"max-jobs", "32 x initial",
     "adaptive budget cap per cell; hitting it reports converged=0"},
    {"growth-factor", "2", "round-over-round budget growth in adaptive mode"},
    {"warmup-jobs", "initial / (10 * replicas)",
     "leading jobs every replica of every adaptive round discards"},
    {"cache", "(off)",
     "persistent result-cache directory (docs/CACHING.md): sweep cells "
     "load from records at the same coordinates and --target-ci instead "
     "of simulating; a warm re-run is byte-identical to the cold run"},
};

}  // namespace

std::string markdown_catalog(const std::vector<const Scenario*>& scenarios) {
  std::string out =
      "# Scenario catalog\n"
      "\n"
      "<!-- Generated by `rlb_run --list --markdown`. Do not edit by "
      "hand:\n"
      "     regenerate with `./build/rlb_run --list --markdown > "
      "docs/SCENARIOS.md`.\n"
      "     CI fails when this file drifts from the registered "
      "scenarios. -->\n"
      "\n"
      "Every experiment is a scenario registered with the engine "
      "(`src/engine/scenario.h`)\nand run by the `rlb_run` driver:\n"
      "\n"
      "```sh\n"
      "./build/rlb_run --scenario=<name> [--threads=N] [--replicas=R]\n"
      "    [--target-ci=EPS [--confidence=P] [--max-jobs=N]]\n"
      "    [--csv=out.csv] [--json=out.json] [--baseline=ref.json] "
      "[scenario flags]\n"
      "```\n"
      "\n"
      "## Common flags\n"
      "\n"
      "Global flags, understood in front of every scenario's own "
      "parameters.\nThe `--target-ci` family is the adaptive "
      "precision-targeted run length;\nits statistics contract lives in "
      "[PRECISION.md](PRECISION.md).\n"
      "\n"
      "| flag | default | description |\n"
      "| --- | --- | --- |\n";
  for (const CommonFlag& f : kCommonFlags)
    out += std::string("| `--") + f.name + "` | `" + f.default_value +
           "` | " + f.description + " |\n";
  for (const Scenario* s : scenarios) {
    out += "\n## `" + s->name + "`\n\n" + md_escape(s->description) + "\n";
    if (s->params.empty()) {
      out += "\nNo parameters.\n";
      continue;
    }
    out += "\n| parameter | default | description |\n";
    out += "| --- | --- | --- |\n";
    for (const ParamSpec& p : s->params)
      out += "| `--" + md_escape(p.name) + "` | `" +
             md_escape(p.default_value) + "` | " + md_escape(p.description) +
             " |\n";
  }
  return out;
}

}  // namespace rlb::engine
