// rlb_run — the unified scenario driver.
//
//   rlb_run --list                         enumerate registered scenarios
//   rlb_run --list --markdown              render the scenario catalog
//                                          (docs/SCENARIOS.md is this
//                                          output, committed; CI diffs it)
//   rlb_run --describe=power_of_d          parameter schema for one
//   rlb_run --scenario=power_of_d          run it (parallel by default)
//           [--threads=8] [--replicas=4] [--csv=out.csv] [--json=out.json]
//           [--target-ci=0.01 [--confidence=0.95] [--initial-jobs=N]
//            [--max-jobs=N] [--growth-factor=2] [--warmup-jobs=N]]
//           [--baseline=ref.json [--rtol=...] [--atol=...]]
//           [--cache=dir]
//           [scenario-specific flags, e.g. --n=12 --jobs=500000]
//
// Every scenario derives its randomness from fixed per-cell (and, with
// --replicas, per-replica) seeds, so --threads changes wall-clock time
// only: parallel and serial runs emit bit-identical tables, and no table
// holds a clock reading (time a run from outside, e.g. with `time`).
// --replicas=R shards each big simulation cell into R parallel chains
// with merged statistics; it changes the output (R decorrelated streams)
// but the result is still thread-count invariant.
//
// --target-ci=EPS switches wired scenarios into the adaptive
// precision-targeted run length (docs/PRECISION.md): each cell grows its
// budget in rounds of replicas until the pooled CI half-width of the
// cell's target statistic falls below EPS (at --confidence) or
// --max-jobs caps out; cells report half_width / jobs_used / converged
// and remain bit-identical across --threads. The rest of the family is
// an error without --target-ci.
//
// --baseline re-runs the scenario and diffs its tables against a
// committed --json reference; numeric cells compare within --rtol/--atol
// (plain number or per-column "col=tol" list), string cells exactly, and
// drift exits with status 3.
//
// --cache=DIR gives sweep scenarios a persistent result cache
// (docs/CACHING.md): cells whose record matches the run's semantic
// coordinates and --target-ci load instead of simulating, and a warm
// re-run's output is byte-identical to the cold run's at any --threads.
// A record at another --target-ci is recomputed and overwritten. The run
// ends with a "cache summary: hits=... misses=..." line.
#include <exception>
#include <iostream>
#include <optional>

#include "engine/baseline.h"
#include "engine/result_cache.h"
#include "engine/scenario.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "util/cli.h"

namespace {

using rlb::engine::Scenario;
using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioRegistry;

void print_list(std::ostream& os) {
  os << "registered scenarios:\n";
  for (const Scenario* s : ScenarioRegistry::global().list())
    os << "  " << s->name << "  -  " << s->description << "\n";
}

void print_describe(std::ostream& os, const Scenario& s) {
  os << s.name << ": " << s.description << "\n";
  if (s.params.empty()) {
    os << "  (no parameters)\n";
    return;
  }
  os << "  parameters:\n";
  for (const auto& p : s.params)
    os << "    --" << p.name << " (default " << p.default_value << ")  "
       << p.description << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const rlb::util::Cli cli(argc, argv);
    if (cli.get_bool("list")) {
      if (cli.get_bool("markdown"))
        std::cout << rlb::engine::markdown_catalog(
            ScenarioRegistry::global().list());
      else
        print_list(std::cout);
      return 0;
    }
    const std::string describe = cli.get("describe", "");
    if (!describe.empty()) {
      print_describe(std::cout, ScenarioRegistry::global().get(describe));
      return 0;
    }

    const std::string name = cli.get("scenario", "");
    if (name.empty()) {
      std::cerr << "usage: rlb_run --scenario=<name> [--threads=N] "
                   "[--replicas=R] [--csv=path] [--json=path]\n"
                   "       [--target-ci=eps [--confidence=p] "
                   "[--initial-jobs=n] [--max-jobs=n]\n"
                   "        [--growth-factor=g] [--warmup-jobs=n]]\n"
                   "       [--baseline=ref.json [--rtol=tol] [--atol=tol]]\n"
                   "       [--cache=dir]\n"
                   "       [scenario flags]\n"
                   "       rlb_run --list [--markdown] | "
                   "--describe=<name>\n\n";
      print_list(std::cerr);
      return 2;
    }
    const Scenario& scenario = ScenarioRegistry::global().get(name);

    const int threads =
        rlb::engine::resolve_threads(cli.get_int<int>("threads", 0));
    const int replicas = cli.get_int<int>("replicas", 1);
    if (replicas < 1) {
      std::cerr << "error: --replicas must be >= 1\n";
      return 2;
    }
    const std::string csv = cli.get("csv", "");
    const std::string json = cli.get("json", "");

    // The tolerances are read only with --baseline, so finish() rejects
    // them on any other run instead of ignoring them. Read the baseline
    // before the run so a bad path fails fast.
    const std::string baseline_path = cli.get("baseline", "");
    rlb::engine::BaselineOptions baseline_opts;
    std::string baseline_json;
    if (!baseline_path.empty()) {
      baseline_opts.rtol =
          rlb::engine::ToleranceSpec::parse(cli.get("rtol", ""), 1e-9);
      baseline_opts.atol =
          rlb::engine::ToleranceSpec::parse(cli.get("atol", ""), 0.0);
      baseline_json = rlb::engine::read_text_file(baseline_path);
    }

    const std::string cache_dir = cli.get("cache", "");
    std::optional<rlb::engine::ResultCache> cache;
    if (!cache_dir.empty()) cache.emplace(cache_dir);

    // Mark the scenario's declared parameters as known; constructing the
    // context parses (and thereby marks) the global --target-ci family.
    // Then reject typos BEFORE the (possibly hours-long) run.
    for (const auto& p : scenario.params) (void)cli.has(p.name);
    ScenarioContext ctx(cli, threads, replicas,
                        cache ? &*cache : nullptr);
    cli.finish();

    const rlb::engine::ScenarioOutput out = scenario.run(ctx);

    rlb::engine::write_text(out, std::cout);
    if (cache) std::cout << cache->summary() << "\n";
    if (!csv.empty())
      for (const auto& path : rlb::engine::write_csv(out, csv))
        std::cout << "csv written: " << path << "\n";
    if (!json.empty()) {
      rlb::engine::write_json(out, scenario.name, json);
      std::cout << "json written: " << json << "\n";
    }
    if (!baseline_path.empty()) {
      const rlb::engine::BaselineReport report =
          rlb::engine::compare_to_baseline(out, baseline_json,
                                           baseline_opts);
      std::cout << report.describe() << "\n";
      if (!report.ok) return 3;
    }
    return 0;
  } catch (const rlb::engine::UnknownScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
