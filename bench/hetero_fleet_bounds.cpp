// Scenario "hetero_fleet_bounds" — mixed-speed fleets at equal total
// capacity, through the bound models and through the DES of the fleet
// itself. Heterogeneous SQ(d) is the related-work setting of Mukhopadhyay
// et al. and Izagirre & Makowski.
//
// The "main" table runs the bound models with rank-based heterogeneous
// service rates (BoundModel::transitions(m, rank_speeds)): the queue at
// sorted position k is served at speeds[k] * mu, fast half / slow half.
// Three simulations per skew row: the lower bound CTMC jump chain, the
// same lower model through the event-driven GI simulator (a cross-check
// of the two independent implementations), and the upper bound CTMC.
// Delay columns follow the solver convention E[W] + 1/mu; the skew 1:1
// row reproduces the homogeneous model, cross-checked against the
// matrix-geometric solver in the note.
//
// The "des" table simulates the real fleet: the first n/2 servers run at
// the fast speed and the rest at the slow one, under random, sq(d), jsq
// and least-work-left dispatch. It shows what queue-length-based SQ(d)
// loses on a skewed fleet and how much a workload-aware policy (which
// sees speeds through remaining work) recovers.
//
// Each (skew, simulator) and (skew, policy) run is one sweep cell; a skew
// row's cells share its seed (common random numbers).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/bound_sim.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "sim/gi_bound_sim.h"
#include "sqd/bound_solver.h"
#include "util/require.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

constexpr std::size_t kSims = 3;      // ctmc lower, gi lower, ctmc upper
constexpr std::size_t kPolicies = 4;  // DES: random, sq(d), jsq, least-work

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = ctx.cli().get_int<int>("n", 4);
  const int d = ctx.cli().get_int<int>("d", 2);
  const int t = ctx.cli().get_int<int>("t", 3);
  const double rho = ctx.cli().get_double("rho", 0.75);
  const auto steps = ctx.cli().get_int<std::uint64_t>("steps", 2'000'000);
  const auto arrivals = ctx.cli().get_int<std::uint64_t>("arrivals", 1'000'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 11223);

  RLB_REQUIRE(n >= 2 && n % 2 == 0,
              "hetero_fleet_bounds needs an even --n for the half/half "
              "speed split");
  const Params p{n, d, rho, 1.0};
  const std::vector<double> skews{1.0, 1.25, 1.5, 1.75};
  // Rank speeds at equal total capacity: the fast half serves the longest
  // queues. n must be even for the half/half split.
  const auto rank_speeds = [&](double fast) {
    std::vector<double> speeds(n, 1.0);
    for (int k = 0; k < n / 2; ++k) {
      speeds[k] = fast;
      speeds[n / 2 + k] = 2.0 - fast;
    }
    return speeds;
  };

  struct Cell {
    double delay = 0.0;
    rlb::sim::AdaptiveReport report;
    double p99 = 0.0;  ///< DES cells only
  };
  const bool adaptive = ctx.adaptive().enabled();
  const auto make_policy =
      [&](std::size_t task) -> std::unique_ptr<rlb::sim::Policy> {
    switch (task) {
      case 0:
        return std::make_unique<rlb::sim::SqdPolicy>(n, 1);
      case 1:
        return std::make_unique<rlb::sim::SqdPolicy>(n, d);
      case 2:
        return std::make_unique<rlb::sim::JsqPolicy>();
      default:
        return std::make_unique<rlb::sim::LeastWorkLeftPolicy>();
    }
  };
  const auto des_cell = [&](std::size_t i) {
    const std::size_t s = i / kPolicies;
    rlb::sim::ClusterConfig cfg;
    cfg.servers = n;
    cfg.server_speeds = rank_speeds(skews[s]);
    const auto arr = rlb::sim::make_exponential(rho * n);
    rlb::sim::RenewalArrivals arrival_process(*arr);
    const auto svc = rlb::sim::make_exponential(1.0);
    const auto policy = make_policy(i % kPolicies);
    const auto res = rlb::sim::simulate_cluster(
        cfg, *policy, arrival_process, *svc,
        ctx.plan(rlb::engine::cell_seed(seed, s), arrivals, arrivals / 10),
        ctx.budget());
    return Cell{res.mean_sojourn, res.adaptive, res.p99_sojourn};
  };
  const std::size_t bound_cells = skews.size() * kSims;
  const auto cells = ctx.map<Cell>(
      bound_cells + skews.size() * kPolicies, [&](std::size_t i) {
        if (i >= bound_cells) return des_cell(i - bound_cells);
        const std::size_t s = i / kSims;
        const std::vector<double> speeds = rank_speeds(skews[s]);
        // One seed per skew row (common random numbers across simulators).
        const std::uint64_t cell = rlb::engine::cell_seed(seed, s);
        // Little's-law scaling (below) maps a waiting-jobs half-width to
        // a delay half-width, so the CTMC/GI targets are requested in
        // delay units too: target scales by lambda * N (a fixed plan's
        // infinite target stays infinite).
        const auto bound_plan = [&](std::uint64_t budget_jobs) {
          auto plan = ctx.plan(cell, budget_jobs, budget_jobs / 10);
          plan.target_ci *= p.lambda * p.N;
          return plan;
        };
        const std::size_t sim = i % kSims;
        double waiting_jobs = 0.0;
        rlb::sim::AdaptiveReport report;
        if (sim == 1) {
          const auto arr = rlb::sim::make_exponential(rho * n);
          const auto res = rlb::sim::simulate_gi_lower_bound(
              BoundModel(p, t, BoundKind::Lower), *arr, bound_plan(arrivals),
              ctx.budget(), speeds);
          waiting_jobs = res.mean_waiting_jobs;
          report = res.adaptive;
        } else {
          const BoundModel model(
              p, t, sim == 0 ? BoundKind::Lower : BoundKind::Upper);
          const auto res = rlb::sim::simulate_bound_model(
              model, bound_plan(steps), ctx.budget(), speeds);
          waiting_jobs = res.mean_waiting_jobs;
          report = res.adaptive;
        }
        // Solver convention: delay = E[W] + 1/mu, Little's law over the
        // original arrival rate lambda*N.
        report.half_width /= p.lambda * p.N;
        return Cell{waiting_jobs / (p.lambda * p.N) + 1.0 / p.mu, report};
      });

  ScenarioOutput out;
  out.preamble =
      "Heterogeneous-rate bound models, N = " + std::to_string(n) +
      ", d = " + std::to_string(d) + ", T = " + std::to_string(t) +
      ", rho = " + rlb::util::fmt(rho, 2) +
      ".\nRank speeds: fast half serves the longest queues, slow half the "
      "shortest;\ntotal capacity is constant across skews.";
  std::vector<std::string> header{"skew (fast:slow)", "lower delay",
                                  "lower delay (GI sim)", "upper delay"};
  if (adaptive) rlb::engine::add_adaptive_columns(header);
  auto& table = out.add_table("main", header);
  for (std::size_t s = 0; s < skews.size(); ++s) {
    std::vector<std::string> row{rlb::util::fmt(skews[s], 2) + ":" +
                                 rlb::util::fmt(2.0 - skews[s], 2)};
    for (std::size_t k = 0; k < kSims; ++k)
      row.push_back(rlb::util::fmt(cells[s * kSims + k].delay, 4));
    if (adaptive) {
      auto report = rlb::sim::AdaptiveReport::row_identity();
      for (std::size_t k = 0; k < kSims; ++k)
        report.combine(cells[s * kSims + k].report);
      rlb::engine::add_adaptive_cells(row, report);
    }
    table.add_row(std::move(row));
  }
  if (adaptive)
    out.note(rlb::engine::adaptive_note(
        "the three simulators (waiting-jobs CIs scaled to delay units by "
        "Little's law;\njobs_used counts steps+arrivals)"));
  std::string homog_note;
  try {
    const auto lower =
        rlb::sqd::solve_bound(BoundModel(p, t, BoundKind::Lower));
    const auto upper =
        rlb::sqd::solve_bound(BoundModel(p, t, BoundKind::Upper));
    homog_note = "Homogeneous (skew 1:1) matrix-geometric reference: "
                 "lower delay " +
                 rlb::util::fmt(lower.mean_delay, 4) + ", upper delay " +
                 rlb::util::fmt(upper.mean_delay, 4) + ".";
  } catch (const rlb::qbd::UnstableError&) {
    homog_note = "Homogeneous upper bound model is unstable at this "
                 "(rho, T) — drift condition fails.";
  }
  out.note(homog_note);

  std::vector<std::string> des_header{
      "skew (fast:slow)", "random", "sq(" + std::to_string(d) + ")", "jsq",
      "least-work", "sq(" + std::to_string(d) + ") p99"};
  if (adaptive) rlb::engine::add_adaptive_columns(des_header);
  auto& des = out.add_table("des", des_header);
  for (std::size_t s = 0; s < skews.size(); ++s) {
    const Cell* row_cells = &cells[bound_cells + s * kPolicies];
    std::vector<std::string> row{rlb::util::fmt(skews[s], 2) + ":" +
                                 rlb::util::fmt(2.0 - skews[s], 2)};
    for (std::size_t k = 0; k < kPolicies; ++k)
      row.push_back(rlb::util::fmt(row_cells[k].delay, 3));
    row.push_back(rlb::util::fmt(row_cells[1].p99, 2));
    if (adaptive) {
      auto report = rlb::sim::AdaptiveReport::row_identity();
      for (std::size_t k = 0; k < kPolicies; ++k)
        report.combine(row_cells[k].report);
      rlb::engine::add_adaptive_cells(row, report);
    }
    des.add_row(std::move(row));
  }
  out.note("DES of the fleet itself: first N/2 servers fast, the rest "
           "slow; mean sojourn per\npolicy, then the sq(" +
           std::to_string(d) + ") p99 sojourn.");
  out.postamble =
      "Reading: speeding up service of the LONGEST queues (skew > 1) "
      "shrinks the\nbacklog both bound models hold at equal capacity; the "
      "two lower-model columns\nare independent simulators of the same "
      "chain and should agree within noise.\nIn the real fleet, "
      "queue-length signals degrade as speeds diverge: a short\nqueue on "
      "a slow machine is a trap. Workload-aware least-work-left degrades "
      "far\nless.";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "hetero_fleet_bounds",
    "Extension: mixed-speed fleets at equal capacity — bound models with "
    "rank-based service rates, and the fleet's DES under "
    "random/SQ(d)/JSQ/least-work",
    {{"n", "number of servers (even)", "4"},
     {"d", "polled servers", "2"},
     {"t", "gap threshold T", "3"},
     {"rho", "utilization", "0.75"},
     {"steps", "CTMC jump-chain steps per cell", "2000000"},
     {"arrivals", "GI-simulator arrival events and DES jobs per cell",
      "1000000"},
     {"seed", "base RNG seed; per-row seeds are derived from it", "11223"}},
    run}};

}  // namespace
