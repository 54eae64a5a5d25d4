// Scenario "fleet_scaling" — the histogram-state engine at fleet scale:
// sweep the server count N geometrically (default 10^3 .. 10^6) at fixed
// load rho and measure the paper's policies through the cluster engine
// (sim/compact_cluster.h). The point of the table is the COST column:
// with --time=1 each cell reports wall-clock ns per job, which grows only
// with the O(log N) departure heap and the cache misses of a larger
// fleet, because every dispatch and directory update is O(1) for sq(d),
// jiq and histogram-jsq.
//
// Timing note: the ns/job column (--time=1) measures wall-clock and is
// therefore NOT deterministic and NOT thread-invariant; use
// --threads=1 --time=1 for stable measurements (docs/FLEET_SCALING.md
// commits such a run). The default --time=0 output is fully
// deterministic like every other scenario.
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "sim/cluster_sim.h"
#include "util/require.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;

constexpr std::size_t kPolicies = 3;  // sq(d), jiq, jsq-h

std::unique_ptr<rlb::sim::Policy> make_policy(std::size_t task, int n, int d) {
  using namespace rlb::sim;
  switch (task) {
    case 0:
      return std::make_unique<SqdPolicy>(n, d);
    case 1:
      return std::make_unique<JiqPolicy>(n);
    default:
      return std::make_unique<HistogramJsqPolicy>();
  }
}

ScenarioOutput run(ScenarioContext& ctx) {
  const int nmin = static_cast<int>(ctx.cli().get_int("nmin", 1'000));
  const int nmax = static_cast<int>(ctx.cli().get_int("nmax", 1'000'000));
  const int nstep = static_cast<int>(ctx.cli().get_int("nstep", 10));
  const int d = static_cast<int>(ctx.cli().get_int("d", 2));
  const double rho = ctx.cli().get_double("rho", 0.90);
  const auto jobs_per_server =
      static_cast<std::uint64_t>(ctx.cli().get_int("jobs-per-server", 20));
  const auto seed =
      static_cast<std::uint64_t>(ctx.cli().get_int("seed", 97'531));
  const bool time = ctx.cli().get_int("time", 0) != 0;
  const int time_reps = static_cast<int>(ctx.cli().get_int("time-reps", 3));

  RLB_REQUIRE(nmin >= 1 && nmax >= nmin, "need 1 <= nmin <= nmax");
  RLB_REQUIRE(nstep >= 2, "nstep is a multiplier; need nstep >= 2");
  RLB_REQUIRE(rho > 0.0 && rho < 1.0, "need 0 < rho < 1");
  RLB_REQUIRE(time_reps >= 1, "need time-reps >= 1");

  using namespace rlb::sim;
  std::vector<int> fleet_sizes;
  for (std::int64_t n = nmin; n <= nmax;
       n *= nstep)  // geometric sweep; int64 so nmax * nstep cannot wrap
    fleet_sizes.push_back(static_cast<int>(n));

  // Cell values: [0] delay, [1] ns/job (0 unless --time=1).
  const auto compute_cell = [&](std::size_t i,
                                const rlb::engine::CellRecord*) {
    const std::size_t r = i / kPolicies;
    const int n = fleet_sizes[r];
    ClusterConfig cfg;
    cfg.servers = n;
    cfg.jobs = jobs_per_server * static_cast<std::uint64_t>(n);
    cfg.warmup = cfg.jobs / 10;
    // One seed per fleet size: policy columns share random streams.
    cfg.seed = rlb::engine::cell_seed(seed, r);
    cfg.replicas = ctx.replicas();
    const auto arr = make_exponential(rho * n);
    const auto svc = make_exponential(1.0);
    const auto policy = make_policy(i % kPolicies, n, d);
    // With --time=1 each cell reruns the identical simulation
    // `time-reps` times and reports the MINIMUM ns/job — the
    // standard benchmarking estimator for the noise-free cost
    // (interference only ever adds time). The reruns are
    // deterministic repeats, so the delay column is unaffected.
    const int reps = time ? time_reps : 1;
    ClusterResult res;
    double ns = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      res = simulate_cluster(cfg, *policy, *arr, *svc, ctx.budget());
      const auto t1 = std::chrono::steady_clock::now();
      const double rep_ns =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()) /
          static_cast<double>(cfg.jobs);
      if (rep == 0 || rep_ns < ns) ns = rep_ns;
    }
    rlb::engine::CellRecord rec;
    rec.values = {res.mean_sojourn, ns};
    return rec;
  };
  // The ns/job column is measured wall-clock — not reproducible — so
  // --time=1 bypasses the result cache entirely (a cached timing would
  // silently report another machine's clock).
  const auto cells =
      time ? ctx.map<rlb::engine::CellRecord>(
                 fleet_sizes.size() * kPolicies,
                 [&](std::size_t i) { return compute_cell(i, nullptr); })
           : ctx.map_cells(
                 fleet_sizes.size() * kPolicies,
                 [&](std::size_t i) {
                   const std::size_t r = i / kPolicies;
                   auto key = ctx.cell_key(
                       "fleet_scaling", rlb::engine::cell_seed(seed, r));
                   key.set("table", "scaling");
                   key.set("n", fleet_sizes[r]);
                   key.set("jobs-per-server", jobs_per_server);
                   key.set("rho", rho);
                   key.set("d", d);
                   key.set("task", static_cast<std::uint64_t>(i % kPolicies));
                   return key;
                 },
                 compute_cell);

  ScenarioOutput out;
  out.preamble =
      "Fleet-size scaling on the compact histogram engine, rho = " +
      rlb::util::fmt(rho, 2) + ", Poisson arrivals, Exp(1) service, " +
      std::to_string(jobs_per_server) +
      " jobs per server per cell.\nPolicies: sq(" + std::to_string(d) +
      "), jiq (random fallback), jsq-h (histogram JSQ, O(1) dispatch).";

  std::vector<std::string> header{"n", "jobs"};
  const std::vector<std::string> policy_names{
      "sq(" + std::to_string(d) + ")", "jiq", "jsq-h"};
  for (const auto& p : policy_names) header.push_back(p);
  if (time)
    for (const auto& p : policy_names) header.push_back(p + " ns/job");
  auto& scaling = out.add_table("scaling", header);
  for (std::size_t r = 0; r < fleet_sizes.size(); ++r) {
    std::vector<std::string> row{
        std::to_string(fleet_sizes[r]),
        std::to_string(jobs_per_server *
                       static_cast<std::uint64_t>(fleet_sizes[r]))};
    for (std::size_t t = 0; t < kPolicies; ++t)
      row.push_back(rlb::util::fmt(cells[r * kPolicies + t].values[0], 4));
    if (time)
      for (std::size_t t = 0; t < kPolicies; ++t)
        row.push_back(
            rlb::util::fmt(cells[r * kPolicies + t].values[1], 1));
    scaling.add_row(std::move(row));
  }
  out.note(time ? "Mean sojourn time per policy, then wall-clock ns per job "
                  "(non-deterministic, use --threads=1)."
                : "Mean sojourn time per policy; pass --time=1 for "
                  "wall-clock ns/job columns.");

  out.postamble =
      "Reading: delay per policy is flat in n (mean-field regime: the "
      "fleet's behavior\nconverges as n grows), and with --time=1 the "
      "ns/job columns grow only slowly — every\ndispatch and directory "
      "update is O(1); only the departure heap is O(log n).";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "fleet_scaling",
    "Compact-engine fleet sweep to n = 10^6: delay and per-job cost vs "
    "fleet size",
    {{"nmin", "smallest fleet size", "1000"},
     {"nmax", "largest fleet size", "1000000"},
     {"nstep", "fleet-size multiplier between rows", "10"},
     {"d", "polled servers for sq(d)", "2"},
     {"rho", "offered load per server", "0.90"},
     {"jobs-per-server", "simulated jobs per server per cell", "20"},
     {"seed", "base RNG seed; per-row seeds are derived from it", "97531"},
     {"time", "1: add wall-clock ns/job columns (non-deterministic)", "0"},
     {"time-reps",
      "repetitions per cell for --time=1; reports the min ns/job", "3"}},
    run}};

}  // namespace
