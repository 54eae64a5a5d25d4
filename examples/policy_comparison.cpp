// Scenario "policy_comparison" — SQ(d) against the classic low-feedback
// alternatives it competes with: join-idle-queue (JIQ, Lu et al. 2011)
// and join-below-threshold-d (JBT), bracketed by uniform random routing
// and full-information JSQ. One delay table and one p99 tail table, rho
// down the rows and one column per policy, comparable to the fig10 delay
// curves. Each (rho, policy) simulation is one sweep cell; policy columns
// share the rho row's random streams (common random numbers).
//
// The workload defaults to Poisson arrivals and Exp(1) service. --service
// takes any sim::parse_distribution spec and --arrival-scv > 1 makes the
// arrivals bursty (a hyperexponential fitted to the row's mean
// interarrival time), e.g. a 12-server tier under bursty, heavy-tailed
// requests:
//
//   rlb_run --scenario=policy_comparison --n=12 --d=3
//           --service=lognormal:mean=1,cv=2 --arrival-scv=4
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "util/require.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;

constexpr std::size_t kPolicies = 5;  // random, sq(d), jbt, jiq, jsq

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = ctx.cli().get_int<int>("n", 16);
  const int d = ctx.cli().get_int<int>("d", 2);
  const int jbt_t = ctx.cli().get_int<int>("jbt-t", 3);
  const auto jobs = ctx.cli().get_int<std::uint64_t>("jobs", 400'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 24680);
  const std::string service = ctx.cli().get("service", "exp:rate=1");
  const double arrival_scv = ctx.cli().get_double("arrival-scv", 1.0);
  RLB_REQUIRE(arrival_scv >= 1.0, "--arrival-scv must be >= 1 (1: Poisson)");
  (void)rlb::sim::parse_distribution(service);  // reject a bad spec up front

  using namespace rlb::sim;
  const std::vector<double> rhos{0.50, 0.70, 0.80, 0.90, 0.95};
  const auto make_policy = [&](std::size_t task) -> std::unique_ptr<Policy> {
    switch (task) {
      case 0:
        return std::make_unique<SqdPolicy>(n, 1);
      case 1:
        return std::make_unique<SqdPolicy>(n, d);
      case 2:
        return std::make_unique<JbtPolicy>(n, d, jbt_t);
      case 3:
        return std::make_unique<JiqPolicy>(n);
      default:
        return std::make_unique<JsqPolicy>();
    }
  };

  // Cell values: [0] mean sojourn, [1] p99 sojourn.
  const bool adaptive = ctx.adaptive().enabled();
  const auto cells = ctx.map_cells(
      rhos.size() * kPolicies,
      [&](std::size_t i) {
        // Row seed is shared across policy columns (common random
        // numbers), so the policy task index joins it in the key.
        auto key = ctx.cell_key(
            "policy_comparison",
            rlb::engine::cell_seed(seed, i / kPolicies));
        key.set("n", n);
        key.set("d", d);
        key.set("jbt-t", jbt_t);
        key.set("jobs", jobs);
        key.set("rho", rhos[i / kPolicies]);
        key.set("service", service);
        key.set("arrival-scv", arrival_scv);
        key.set("task", static_cast<std::uint64_t>(i % kPolicies));
        return key;
      },
      [&](std::size_t i) {
        const std::size_t r = i / kPolicies;
        ClusterConfig cfg;
        cfg.servers = n;
        const auto arr =
            arrival_scv > 1.0
                ? make_hyperexp_fitted(1.0 / (rhos[r] * n), arrival_scv)
                : make_exponential(rhos[r] * n);
        RenewalArrivals arrivals(*arr);
        const auto svc = parse_distribution(service);
        const auto policy = make_policy(i % kPolicies);
        // One seed per rho row: policy columns share random streams
        // (common random numbers), isolating the policy effect.
        const auto plan =
            ctx.plan(rlb::engine::cell_seed(seed, r), jobs, jobs / 10);
        const ClusterResult res =
            simulate_cluster(cfg, *policy, arrivals, *svc, plan, ctx.budget());
        rlb::engine::CellRecord rec;
        rec.values = {res.mean_sojourn, res.p99_sojourn};
        if (adaptive) rec.report = res.adaptive;
        return rec;
      });

  ScenarioOutput out;
  out.preamble =
      "Dispatch-policy comparison, N = " + std::to_string(n) + " servers, " +
      (arrival_scv > 1.0
           ? "hyperexponential (scv " + rlb::util::fmt(arrival_scv, 2) + ")"
           : std::string("Poisson")) +
      " arrivals, " + service + " service.\nPolicies: uniform "
      "random, the paper's sq(" +
      std::to_string(d) + "), jbt(" + std::to_string(d) +
      ", t=" + std::to_string(jbt_t) + "), jiq (random fallback), jsq.";
  const std::vector<std::string> header{
      "rho",         "random", "sq(" + std::to_string(d) + ")",
      "jbt",         "jiq",    "jsq"};
  auto& delay = out.add_table("delay", header);
  for (std::size_t r = 0; r < rhos.size(); ++r) {
    std::vector<std::string> row{rlb::util::fmt(rhos[r], 2)};
    for (std::size_t t = 0; t < kPolicies; ++t)
      row.push_back(rlb::util::fmt(cells[r * kPolicies + t].values[0], 4));
    delay.add_row(std::move(row));
  }
  out.note("Mean sojourn time (delay) per policy.");
  auto& tail = out.add_table("tail_p99", header);
  for (std::size_t r = 0; r < rhos.size(); ++r) {
    std::vector<std::string> row{rlb::util::fmt(rhos[r], 2)};
    for (std::size_t t = 0; t < kPolicies; ++t)
      row.push_back(rlb::util::fmt(cells[r * kPolicies + t].values[1], 4));
    tail.add_row(std::move(row));
  }
  out.note("99th percentile sojourn time per policy.");
  if (adaptive) {
    // The stopping report per (rho, policy) cell: the target statistic
    // is the mean sojourn time; p99 rides along on whatever budget the
    // mean needed.
    std::vector<std::string> adaptive_header{"rho"};
    rlb::engine::add_adaptive_columns(adaptive_header);
    auto& report = out.add_table("adaptive", adaptive_header);
    for (std::size_t r = 0; r < rhos.size(); ++r) {
      auto combined = rlb::sim::AdaptiveReport::row_identity();
      for (std::size_t t = 0; t < kPolicies; ++t)
        combined.combine(cells[r * kPolicies + t].report);
      std::vector<std::string> row{rlb::util::fmt(rhos[r], 2)};
      rlb::engine::add_adaptive_cells(row, combined);
      report.add_row(std::move(row));
    }
    out.note(rlb::engine::adaptive_note("the five policies"));
  }
  out.postamble =
      "Reading: JIQ tracks JSQ while idle servers exist and falls back to "
      "random beyond\nrho ~ 0.9; JBT needs one bit per poll and sits "
      "between sq(d) and random;\nsq(d) degrades the most gracefully at "
      "high load.";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "policy_comparison",
    "Extension: SQ(d) vs JIQ, JBT(d), random and JSQ, delay and p99 tail "
    "across the load range under any service law and bursty arrivals",
    {{"n", "number of servers", "16"},
     {"d", "polled servers for sq(d)/jbt and the jbt fallback", "2"},
     {"jbt-t", "JBT queue-length threshold", "3"},
     {"jobs", "simulated jobs per cell", "400000"},
     {"seed", "base RNG seed; per-row seeds are derived from it", "24680"},
     {"service", "service law, a distribution spec (docs/WORKLOADS.md)",
      "exp:rate=1"},
     {"arrival-scv",
      "interarrival squared coefficient of variation: 1 is Poisson, > 1 a "
      "fitted hyperexponential",
      "1"}},
    run}};

}  // namespace
