// Scenario "fleet_scaling" — the histogram-state engine at fleet scale:
// sweep the server count N geometrically (default 10^3 .. 10^6) at fixed
// load rho and measure the paper's policies through the cluster engine
// (sim/compact_cluster.h). Every dispatch and directory update is O(1)
// for sq(d), jiq and histogram-jsq, which is what lets the sweep reach
// n = 10^6. The table holds delays only; the cost per job is timed from
// outside the run or by perf/ (docs/FLEET_SCALING.md).
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
  const int nmin = ctx.cli().get_int<int>("nmin", 1'000);
  const int nmax = ctx.cli().get_int<int>("nmax", 1'000'000);
  const int nstep = ctx.cli().get_int<int>("nstep", 10);
  const int d = ctx.cli().get_int<int>("d", 2);
  const double rho = ctx.cli().get_double("rho", 0.90);
  const auto jobs_per_server =
      ctx.cli().get_int<std::uint64_t>("jobs-per-server", 20);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 97'531);

  RLB_REQUIRE(nmin >= 1 && nmax >= nmin, "need 1 <= nmin <= nmax");
  RLB_REQUIRE(nstep >= 2, "nstep is a multiplier; need nstep >= 2");
  RLB_REQUIRE(rho > 0.0 && rho < 1.0, "need 0 < rho < 1");

  using namespace rlb::sim;
  std::vector<int> fleet_sizes;
  for (std::int64_t n = nmin; n <= nmax;
       n *= nstep)  // geometric sweep; int64 so nmax * nstep cannot wrap
    fleet_sizes.push_back(static_cast<int>(n));

  const auto cells = ctx.map_cells(
      fleet_sizes.size() * kPolicies,
      [&](std::size_t i) {
        const std::size_t r = i / kPolicies;
        auto key = ctx.cell_key("fleet_scaling",
                                rlb::engine::cell_seed(seed, r));
        key.set("table", "scaling");
        key.set("n", fleet_sizes[r]);
        key.set("jobs-per-server", jobs_per_server);
        key.set("rho", rho);
        key.set("d", d);
        key.set("task", static_cast<std::uint64_t>(i % kPolicies));
        return key;
      },
      [&](std::size_t i) {
        const std::size_t r = i / kPolicies;
        const int n = fleet_sizes[r];
        ClusterConfig cfg;
        cfg.servers = n;
        const std::uint64_t jobs =
            jobs_per_server * static_cast<std::uint64_t>(n);
        // One seed per fleet size: policy columns share random streams. A
        // fixed plan: this scenario ignores --target-ci.
        const auto plan = AdaptivePlan::fixed(ctx.replicas(), jobs, jobs / 10,
                                              rlb::engine::cell_seed(seed, r));
        const auto arr = make_exponential(rho * n);
        RenewalArrivals arrivals(*arr);
        const auto svc = make_exponential(1.0);
        const auto policy = make_policy(i % kPolicies, n, d);
        const ClusterResult res =
            simulate_cluster(cfg, *policy, arrivals, *svc, plan, ctx.budget());
        rlb::engine::CellRecord rec;
        rec.values = {res.mean_sojourn};
        return rec;
      });

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
  auto& scaling = out.add_table("scaling", header);
  for (std::size_t r = 0; r < fleet_sizes.size(); ++r) {
    std::vector<std::string> row{
        std::to_string(fleet_sizes[r]),
        std::to_string(jobs_per_server *
                       static_cast<std::uint64_t>(fleet_sizes[r]))};
    for (std::size_t t = 0; t < kPolicies; ++t)
      row.push_back(rlb::util::fmt(cells[r * kPolicies + t].values[0], 4));
    scaling.add_row(std::move(row));
  }
  out.note("Mean sojourn time per policy.");

  out.postamble =
      "Reading: delay per policy is flat in n (mean-field regime: the "
      "fleet's behavior\nconverges as n grows).";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "fleet_scaling",
    "Extension: compact-engine fleet sweep to n = 10^6, delay vs fleet size",
    {{"nmin", "smallest fleet size", "1000"},
     {"nmax", "largest fleet size", "1000000"},
     {"nstep", "fleet-size multiplier between rows", "10"},
     {"d", "polled servers for sq(d)", "2"},
     {"rho", "offered load per server", "0.90"},
     {"jobs-per-server", "simulated jobs per server per cell", "20"},
     {"seed", "base RNG seed; per-row seeds are derived from it", "97531"}},
    run}};

}  // namespace
