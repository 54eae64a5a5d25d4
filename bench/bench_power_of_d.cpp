// Scenario "power_of_d" — the motivating "power of d"
// comparison (§I): delay of SQ(1), SQ(2), SQ(5), JSQ and the classic
// comparators, by discrete-event simulation, plus the paper's bounds for
// SQ(2). Each (rho, policy) simulation is one sweep cell, so the table
// fills across worker threads.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "qbd/solver.h"
#include "sim/cluster_sim.h"
#include "sqd/asymptotic.h"
#include "sqd/bound_solver.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;

constexpr std::size_t kTasks = 7;  // 6 simulated policies + 1 bound solve

std::unique_ptr<rlb::sim::Policy> make_policy(int n, std::size_t task) {
  using namespace rlb::sim;
  switch (task) {
    case 0:
      return std::make_unique<SqdPolicy>(n, 1);
    case 1:
      return std::make_unique<SqdPolicy>(n, 2);
    case 2:
      return std::make_unique<SqdPolicy>(n, 5);
    case 3:
      return std::make_unique<JsqPolicy>();
    case 4:
      return std::make_unique<RoundRobinPolicy>();
    default:
      return std::make_unique<LeastWorkLeftPolicy>();
  }
}

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = ctx.cli().get_int<int>("n", 10);
  const auto jobs = ctx.cli().get_int<std::uint64_t>("jobs", 1'000'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 777);
  const bool adaptive = ctx.adaptive().enabled();

  const std::vector<double> rhos{0.5, 0.7, 0.9, 0.95, 0.99};
  // Cell values[0] is the delay; the report stays default in fixed mode
  // and for the solver task (which never enters the row aggregation).
  const auto cells = ctx.map_cells(
      rhos.size() * kTasks,
      [&](std::size_t i) {
        // The row seed is shared across the policy columns (common random
        // numbers), so `task` must be part of the key alongside it.
        auto key = ctx.cell_key("power_of_d",
                                rlb::engine::cell_seed(seed, i / kTasks));
        key.set("n", n);
        key.set("jobs", jobs);
        key.set("rho", rhos[i / kTasks]);
        key.set("task", static_cast<std::uint64_t>(i % kTasks));
        return key;
      },
      [&](std::size_t i) {
        const double rho = rhos[i / kTasks];
        const std::size_t task = i % kTasks;
        rlb::engine::CellRecord rec;
        if (task == kTasks - 1) {
          // Lower bound for SQ(2) at this N (improved solver, T = 2).
          const rlb::sqd::BoundModel lower(rlb::sqd::Params{n, 2, rho, 1.0},
                                           2, rlb::sqd::BoundKind::Lower);
          rec.values = {rlb::sqd::solve_lower_improved(lower).mean_delay};
          return rec;
        }
        using namespace rlb::sim;
        ClusterConfig cfg;
        cfg.servers = n;
        const auto arr = make_exponential(rho * n);
        RenewalArrivals arrivals(*arr);
        const auto svc = make_exponential(1.0);
        const auto policy = make_policy(n, task);
        // One seed per rho row (not per cell): all policy columns see the
        // same random streams, so column differences isolate the policy
        // effect (common random numbers, as the original bench did).
        const auto plan =
            ctx.plan(rlb::engine::cell_seed(seed, i / kTasks), jobs,
                     jobs / 10);
        const ClusterResult res =
            simulate_cluster(cfg, *policy, arrivals, *svc, plan, ctx.budget());
        rec.values = {res.mean_sojourn};
        if (adaptive) rec.report = res.adaptive;
        return rec;
      });

  ScenarioOutput out;
  out.preamble = "§I: the power of d choices, N = " + std::to_string(n) +
                 " servers, M/M service, DES with " +
                 (adaptive ? "adaptive (--target-ci) run lengths"
                           : std::to_string(jobs) + " jobs") +
                 ".";
  std::vector<std::string> header{"rho",  "sq(1)",       "sq(2)",
                                  "sq(5)", "jsq",        "round-robin",
                                  "least-work", "asym d=2",
                                  "lower bound sq(2)"};
  if (adaptive) {
    // Per-row stopping report over the six simulated cells: the WORST
    // half-width, the TOTAL budget, and whether every cell converged.
    rlb::engine::add_adaptive_columns(header);
  }
  auto& table = out.add_table("main", header);
  for (std::size_t r = 0; r < rhos.size(); ++r) {
    std::vector<std::string> row{rlb::util::fmt(rhos[r], 2)};
    for (std::size_t task = 0; task + 1 < kTasks; ++task)
      row.push_back(
          rlb::util::fmt(cells[r * kTasks + task].values.front(), 3));
    row.push_back(rlb::util::fmt(rlb::sqd::asymptotic_delay(rhos[r], 2), 3));
    row.push_back(
        rlb::util::fmt(cells[r * kTasks + kTasks - 1].values.front(), 3));
    if (adaptive) {
      auto report = rlb::sim::AdaptiveReport::row_identity();
      for (std::size_t task = 0; task + 1 < kTasks; ++task)
        report.combine(cells[r * kTasks + task].report);
      rlb::engine::add_adaptive_cells(row, report);
    }
    table.add_row(std::move(row));
  }
  if (adaptive)
    out.note(rlb::engine::adaptive_note("the six simulated policies"));
  out.postamble =
      "Expected shape: sq(1) explodes at high rho; sq(2) removes most of "
      "that pain\n(exponential improvement); extra choices give diminishing "
      "returns.";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "power_of_d",
    "§I: SQ(1/2/5), JSQ, round-robin, least-work delays by DES plus the "
    "paper's SQ(2) bounds",
    {{"n", "number of servers", "10"},
     {"jobs", "simulated jobs per cell", "1000000"},
     {"seed", "base RNG seed; per-cell seeds are derived from it", "777"}},
    run}};

}  // namespace
