// rlb_bench — the repository's end-to-end benchmark (perf/README.md).
//
//   rlb_bench --workload W [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
//   rlb_bench --workload W --scaling 1,2,4 [--seed S] [--out DIR]
//   rlb_bench --compare DIR_A,DIR_B
//
// A run measures passes over the workload's cells until --seconds have
// elapsed, and sets the workload up nine times around them (five before,
// four after), reporting the median as setup_s. It prints every metric as
// `name value unit`, writes a JSON record to DIR, and ends with the
// one-line JSON result.
// With --trace 1 it alternates untraced and traced passes, attributes the
// traced time to the library's layers, runs the replay probes and writes
// a Chrome trace next to the record. Every path is relative to the
// working directory. Exit status: 0, or 2 for a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "engine/sweep.h"
#include "replay.h"
#include "report.h"
#include "trace.h"
#include "util/cli.h"
#include "util/thread_budget.h"
#include "workloads.h"

namespace {

using namespace rlb::perf;

constexpr std::uint64_t kDefaultSeed = 1;
// Nine set-ups per run, five before the passes and four after: spreading
// them over the run keeps a slow spell of the host at process start from
// setting the median.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
constexpr double kWarmupScale = 1.0 / 50.0;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The workload, its thread budget, and what setting them up cost.
struct Setup {
  Workload workload;
  std::unique_ptr<rlb::util::ThreadBudget> budget;
  std::vector<double> seconds;
  std::uint64_t failed_warmups = 0;
};

/// Build the inputs and the thread budget, and run the untimed warm-up
/// (the first cell at 1/50 of its jobs), `times` times. The first set-up
/// is timed from `start` (the start of main for a run's first set-up).
Setup set_up(const std::string& name, std::uint64_t seed, int threads,
             int times, double start) {
  Setup s;
  for (int k = 0; k < times; ++k) {
    const double t0 = k == 0 ? start : now_s();
    s.workload = make_workload(name, seed);
    s.budget = std::make_unique<rlb::util::ThreadBudget>(
        threads > 0 ? threads : s.workload.threads);
    const CellOutput warm =
        run_cell(s.workload.cells.front(), *s.budget, kWarmupScale, false, 0);
    if (!warm.failures.empty()) {
      ++s.failed_warmups;
      std::cerr << "warm-up failed: " << warm.failures.front() << '\n';
    }
    s.seconds.push_back(now_s() - t0);
  }
  return s;
}

struct Pass {
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<CellOutput> outs;
  std::string digest;
  std::uint64_t failed = 0;
};

/// One pass over every cell, through the same budgeted parallel map the
/// scenario engine sweeps with.
Pass run_pass(const Workload& w, rlb::util::ThreadBudget& budget) {
  Pass p;
  const double cpu0 = cpu_seconds();
  const double t0 = now_s();
  p.outs = rlb::engine::parallel_map<CellOutput>(
      w.cells.size(), budget, [&](std::size_t i) {
        const int cell = static_cast<int>(i);
        const ScopedSpan span("engine.sweep.cell", cell);
        return run_cell(w.cells[i], budget, 1.0, true, cell);
      });
  p.wall = now_s() - t0;
  p.cpu = cpu_seconds() - cpu0;
  Digest digest;
  for (std::size_t i = 0; i < p.outs.size(); ++i) {
    for (const double v : p.outs[i].values) digest.add(v);
    for (const std::string& f : p.outs[i].failures)
      std::cerr << w.name << " cell " << i << ": " << f << '\n';
    if (!p.outs[i].failures.empty()) ++p.failed;
  }
  p.digest = digest.hex();
  return p;
}

bool is_bound_workload(const Workload& w) {
  return std::holds_alternative<BoundCell>(w.cells.front());
}

/// Counts one pass's outputs add up to.
struct Totals {
  double jobs = 0.0, warmup = 0.0, solves = 0.0, rounds = 0.0,
         adaptive_jobs = 0.0, builds = 0.0, wasted_builds = 0.0,
         compact_jobs = 0.0, legacy_jobs = 0.0, fast_jobs = 0.0;
};

Totals totals(const Workload& w, const Pass& p) {
  Totals t;
  for (std::size_t i = 0; i < p.outs.size(); ++i) {
    const CellOutput& o = p.outs[i];
    const auto jobs = static_cast<double>(o.jobs);
    t.jobs += jobs;
    t.warmup += static_cast<double>(o.warmup);
    t.solves += static_cast<double>(o.solves);
    t.rounds += o.rounds;
    t.builds += static_cast<double>(o.builds);
    t.wasted_builds += static_cast<double>(o.wasted_builds);
    if (const auto* c = std::get_if<ClusterCell>(&w.cells[i])) {
      (o.compact ? t.compact_jobs : t.legacy_jobs) += jobs;
      if (c->plan) t.adaptive_jobs += jobs;
    } else {
      t.fast_jobs += jobs;
    }
  }
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// End-to-end metrics of the untraced passes.
std::vector<Metric> end_to_end(const Setup& s,
                               const std::vector<Pass>& passes) {
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall);
  const double wall = median(walls);
  const Totals t = totals(s.workload, passes.front());
  // Work is simulated arrivals (warmup included) on the cluster
  // workloads and solver calls on bound_sweep.
  const double work = is_bound_workload(s.workload) ? t.solves : t.jobs;
  return {{"wall_s", wall, "s"},
          {"setup_s", median(s.seconds), "s"},
          {"work_per_s", work / wall, "1/s"},
          {"sim_jobs", t.jobs, "jobs"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"passes", static_cast<double>(passes.size()), "count"},
          {"engine.sweep.cells", static_cast<double>(s.workload.cells.size()),
           "count"},
          {"jobs_per_s", t.jobs / wall, "jobs/s"},
          {"solves_per_s", t.solves / wall, "solves/s"}};
}

/// Per-layer metrics from the traced passes' spans and counts, plus the
/// replay probes.
std::vector<Metric> per_layer(const Workload& w,
                              const std::vector<Pass>& traced,
                              const std::vector<Span>& spans,
                              double overhead_frac) {
  const double passes = static_cast<double>(traced.size());
  std::map<std::string, double> self = self_time_by_name(spans);
  for (auto& [name, s] : self) s /= passes;
  std::vector<double> cells;
  double cell_total = 0.0, wall = 0.0, cpu = 0.0;
  for (const Span& s : spans)
    if (std::string(s.name) == "engine.sweep.cell") {
      cells.push_back(s.t1 - s.t0);
      cell_total += s.t1 - s.t0;
    }
  cell_total /= passes;
  for (const Pass& p : traced) {
    wall += p.wall;
    cpu += p.cpu;
  }
  const Totals t = totals(w, traced.back());
  const double compact = self["sim.simulate_cluster.compact"];
  const double legacy = self["sim.simulate_cluster.legacy"];
  const double fast = self["sim.simulate_sqd_fast"];
  const auto frac = [&](const char* name) {
    return Metric{std::string(name) + ".self_frac",
                  ratio(self[name], cell_total), "ratio"};
  };
  std::vector<Metric> m{
      {"engine.sweep.cell_p50_s", median(cells), "s"},
      {"engine.sweep.cell_max_s", *std::max_element(cells.begin(), cells.end()),
       "s"},
      {"engine.parallel.cpu_util",
       ratio(cpu, static_cast<double>(w.threads) * wall), "ratio"},
      {"sim.self_s", compact + legacy + fast, "s"},
      {"sim.ns_per_job", 1e9 * ratio(compact + legacy + fast, t.jobs), "ns"},
      {"sim.warmup_frac", ratio(t.warmup, t.jobs), "ratio"},
      {"sim.adaptive.rounds", t.rounds, "count"},
      {"sim.adaptive.jobs_used", t.adaptive_jobs, "jobs"},
      {"sim.simulate_cluster.self_s", compact + legacy, "s"},
      {"sim.simulate_cluster.jobs", t.compact_jobs + t.legacy_jobs, "jobs"},
      {"sim.simulate_cluster.compact_ns_per_job",
       1e9 * ratio(compact, t.compact_jobs), "ns"},
      {"sim.simulate_cluster.legacy_ns_per_job",
       1e9 * ratio(legacy, t.legacy_jobs), "ns"},
      {"sim.simulate_cluster.self_frac", ratio(compact + legacy, cell_total),
       "ratio"},
      {"sim.fast_sqd.self_s", fast, "s"},
      {"sim.fast_sqd.ns_per_job", 1e9 * ratio(fast, t.fast_jobs), "ns"},
      {"sim.fast_sqd.self_frac", ratio(fast, cell_total), "ratio"},
      {"sqd.build_bound_qbd.self_s", self["sqd.build_bound_qbd"], "s"},
      frac("sqd.build_bound_qbd"),
      {"sqd.build_bound_qbd.wasted_frac", ratio(t.wasted_builds, t.builds),
       "ratio"},
      {"sqd.solve_bound.self_s", self["sqd.solve_bound"], "s"},
      frac("sqd.solve_bound"),
      {"sqd.solve_lower_improved.self_s", self["sqd.solve_lower_improved"],
       "s"},
      frac("sqd.solve_lower_improved"),
      {"sqd.solve_exact_truncated.self_s", self["sqd.solve_exact_truncated"],
       "s"},
      frac("sqd.solve_exact_truncated"),
      {"trace.overhead_frac", overhead_frac, "ratio"}};
  for (Metric& r : replay_des(w, traced.back().outs, compact))
    m.push_back(std::move(r));
  for (Metric& r : replay_qbd(w, self["sqd.solve_bound"]))
    m.push_back(std::move(r));
  return m;
}

/// Seconds one recorded span costs: open, close and buffer it.
double span_cost_s() {
  constexpr int kSpans = 100'000;
  set_tracing(true);
  const double t0 = now_s();
  for (int i = 0; i < kSpans; ++i) {
    const ScopedSpan span("trace.cost", i);
  }
  const double cost = (now_s() - t0) / kSpans;
  set_tracing(false);
  drain_spans();
  return cost;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// `dir/stem-k.json` for the first k not taken yet.
std::string fresh_path(const std::string& dir, const std::string& stem) {
  std::filesystem::create_directories(dir);
  for (int k = 1;; ++k) {
    const std::string path = dir + "/" + stem + "-" + std::to_string(k);
    if (!std::filesystem::exists(path + ".json")) return path;
  }
}

void finish(const RunRecord& record, const std::vector<MetricSpec>& chosen,
            const std::string& path) {
  print_metrics(record.metrics);
  std::printf("digest %s\n", record.digest.c_str());
  std::ofstream(path + ".json") << to_json(record);
  std::printf("record %s.json\n", path.c_str());
  std::printf("%s\n", result_line(record, chosen).c_str());
}

/// Correctness and counts over `passes`; a failed warm-up counts as one
/// failed attempt.
RunRecord base_record(const std::string& workload, std::uint64_t seed,
                      std::uint64_t failed_warmups,
                      const std::vector<Pass>& passes) {
  RunRecord r;
  r.workload = workload;
  r.seed = seed;
  r.digest = passes.front().digest;
  r.attempted = failed_warmups;
  r.failed = failed_warmups;
  bool same_digest = true;
  for (const Pass& p : passes) {
    r.attempted += p.outs.size();
    r.failed += p.failed;
    same_digest = same_digest && p.digest == r.digest;
  }
  if (!same_digest) std::cerr << "passes over one seed disagree on results\n";
  r.correct = r.failed == 0 && same_digest;
  return r;
}

int run(const std::string& workload, std::uint64_t seed, double seconds,
        bool trace, const std::string& out, const BenchSpec& spec,
        double t_main) {
  Setup s = set_up(workload, seed, 0, kSetupsBefore, t_main);
  std::vector<Pass> passes, traced;
  std::vector<Span> spans;
  const auto traced_pass = [&] {
    set_tracing(true);
    traced.push_back(run_pass(s.workload, *s.budget));
    set_tracing(false);
    for (Span& span : drain_spans()) spans.push_back(span);
  };
  const double start = now_s();
  do {
    // Traced runs alternate which pass of a pair goes first, so neither
    // side systematically gets the colder start.
    const bool traced_first = trace && passes.size() % 2 == 1;
    if (traced_first) traced_pass();
    passes.push_back(run_pass(s.workload, *s.budget));
    if (trace && !traced_first) traced_pass();
  } while (now_s() - start + (now_s() - start) / passes.size() <= seconds);
  const Setup after = set_up(workload, seed, 0, kSetupsAfter, now_s());
  s.seconds.insert(s.seconds.end(), after.seconds.begin(), after.seconds.end());
  s.failed_warmups += after.failed_warmups;

  std::vector<Pass> all = passes;
  all.insert(all.end(), traced.begin(), traced.end());
  RunRecord record = base_record(workload, seed, s.failed_warmups, all);
  record.traced = trace;
  record.metrics = end_to_end(s, passes);
  std::printf("pass walls (s):");
  for (const Pass& p : passes) std::printf(" %.4f", p.wall);
  std::printf("\n");
  std::string stem = workload + "-s" + std::to_string(seed);
  if (trace) {
    std::vector<double> plain, with;
    for (const Pass& p : passes) plain.push_back(p.wall);
    for (const Pass& p : traced) with.push_back(p.wall);
    for (Metric& m : per_layer(s.workload, traced, spans,
                               median(with) / median(plain) - 1.0))
      record.metrics.push_back(std::move(m));
    // The wall difference above is within run-to-run noise; the recorder's
    // own cost per pass, measured directly, bounds the real overhead.
    record.metrics.push_back(
        {"trace.span_cost_frac",
         span_cost_s() * static_cast<double>(spans.size()) /
             static_cast<double>(traced.size()) / median(plain),
         "ratio"});
    stem += "-trace";
  }
  const std::string path = fresh_path(out, stem);
  if (trace) {
    std::ofstream chrome(path + ".trace.json");
    write_chrome_trace(spans, chrome);
  }
  finish(record, trace ? spec.per_layer : spec.end_to_end, path);
  return 0;
}

/// The same seed at each thread count: wall, speedup over the first
/// count, efficiency, and one digest across all (no result may depend on
/// the thread count).
int scaling(const std::string& workload, std::uint64_t seed,
            const std::string& list, const std::string& out, double t_main) {
  std::vector<int> threads;
  std::stringstream items(list);
  for (std::string item; std::getline(items, item, ',');) {
    const int t = std::stoi(item);
    if (t < 1)
      throw std::invalid_argument("--scaling thread counts must be >= 1");
    threads.push_back(t);
  }
  if (threads.empty())
    throw std::invalid_argument("--scaling needs thread counts");
  std::vector<Pass> passes;
  std::vector<Metric> metrics;
  std::uint64_t failed_warmups = 0;
  std::printf("threads wall_s speedup efficiency digest\n");
  for (const int t : threads) {
    const Setup s =
        set_up(workload, seed, t, 1, passes.empty() ? t_main : now_s());
    failed_warmups += s.failed_warmups;
    passes.push_back(run_pass(s.workload, *s.budget));
    const double speedup = passes.front().wall / passes.back().wall;
    const double efficiency =
        speedup * threads.front() / static_cast<double>(t);
    std::printf("%d %.4f %.3f %.3f %s\n", t, passes.back().wall, speedup,
                efficiency, passes.back().digest.c_str());
    const std::string suffix = ".threads_" + std::to_string(t);
    metrics.push_back({"wall_s" + suffix, passes.back().wall, "s"});
    metrics.push_back({"speedup" + suffix, speedup, "ratio"});
    metrics.push_back({"efficiency" + suffix, efficiency, "ratio"});
  }
  RunRecord record =
      base_record(workload + ".scaling", seed, failed_warmups, passes);
  record.metrics = std::move(metrics);
  std::vector<MetricSpec> chosen;
  for (const Metric& m : record.metrics) chosen.push_back({m.name, m.unit});
  finish(record, chosen,
         fresh_path(out, record.workload + "-s" + std::to_string(seed)));
  return 0;
}

int compare(const std::string& dirs, const BenchSpec& spec) {
  const auto comma = dirs.find(',');
  if (comma == std::string::npos)
    throw std::invalid_argument("--compare takes DIR_A,DIR_B");
  const std::vector<RunRecord> a = load_run_set(dirs.substr(0, comma));
  const std::vector<RunRecord> b = load_run_set(dirs.substr(comma + 1));
  std::printf(
      "%-20s %-12s %5s %12s %12s %12s %5s %12s %12s %12s %8s %6s %6s %s\n",
      "workload", "metric", "runsA", "A_q1", "A_median", "A_q3", "runsB",
      "B_q1", "B_median", "B_q3", "delta", "bound", "win", "verdict");
  for (const CompareRow& r : compare_runs(a, b, spec))
    std::printf(
        "%-20s %-12s %5zu %12.6g %12.6g %12.6g %5zu %12.6g %12.6g %12.6g "
        "%+7.2f%% %5.1f%% %6.2f %s\n",
        r.workload.c_str(), r.metric.c_str(), r.runs_a, r.a.q1, r.a.q2, r.a.q3,
        r.runs_b, r.b.q1, r.b.q2, r.b.q3, 100.0 * r.rel_diff, 100.0 * r.bound,
        r.win_frac, r.verdict.c_str());
  std::size_t shared = 0;
  const std::vector<std::string> mismatches = digest_mismatches(a, b, shared);
  std::printf("digests: %zu (workload, seed) pairs in both sets, %zu differ\n",
              shared, mismatches.size());
  for (const std::string& m : mismatches) std::printf("  %s\n", m.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_main = now_s();
  try {
    const rlb::util::Cli cli(argc, argv);
    const std::string spec_path = cli.get("spec", "BENCHMARK.json");
    const std::string compare_dirs = cli.get("compare", "");
    const std::string workload = cli.get("workload", "");
    const auto seed =
        cli.get_int("seed", static_cast<std::int64_t>(kDefaultSeed));
    const double seconds = cli.get_double("seconds", 20.0);
    const std::string trace = cli.get("trace", "0");
    const std::string scaling_list = cli.get("scaling", "");
    const std::string out = cli.get("out", "build/perf/runs");
    cli.finish();

    if (!compare_dirs.empty())
      return compare(compare_dirs, parse_spec(read_file(spec_path)));
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), workload) == names.end())
      throw std::invalid_argument(
          "--workload must be one of fleet_1m, racked_10k, "
          "paper_n10_adaptive, bound_sweep");
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    if (trace != "0" && trace != "1")
      throw std::invalid_argument("--trace takes 0 or 1");
    if (!scaling_list.empty())
      return scaling(workload, static_cast<std::uint64_t>(seed), scaling_list,
                     out, t_main);
    return run(workload, static_cast<std::uint64_t>(seed), seconds,
               trace == "1", out, parse_spec(read_file(spec_path)), t_main);
  } catch (const std::invalid_argument& e) {
    std::cerr << "rlb_bench: " << e.what() << '\n';
    return 2;
  } catch (const std::out_of_range& e) {
    std::cerr << "rlb_bench: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "rlb_bench: " << e.what() << '\n';
    return 1;
  }
}
