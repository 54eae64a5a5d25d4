// Scenario "hetero_fleet_bounds" — mixed-speed fleets at equal total
// capacity, through the bound models and through the DES of the fleet
// itself. Heterogeneous SQ(d) is the related-work setting of Mukhopadhyay
// et al. and Izagirre & Makowski.
//
// The "main" table solves the bound models with rank-based heterogeneous
// service rates (sqd::BoundModel's rank speeds): the queue at sorted
// position k is served at speeds[k] * mu, fast half / slow half. Every
// level state has all N servers busy, so both models stay
// level-independent QBDs and solve_bound gives their exact delays, or
// "unstable" where the upper model fails the drift condition. The lower
// model also runs through the event-driven GI simulator with Poisson
// arrivals, an independent implementation printed with its 95% CI
// half-width. Delay columns follow the solver convention E[W] + 1/mu; the
// skew 1:1 row is the homogeneous model.
//
// The "des" table simulates the real fleet: the first n/2 servers run at
// the fast speed and the rest at the slow one, under random, sq(d), jsq
// and least-work-left dispatch. It shows what queue-length-based SQ(d)
// loses on a skewed fleet and how much a workload-aware policy (which
// sees speeds through remaining work) recovers. Random routing sends each
// server arrivals at rate rho, so a server of speed s carries load
// rho / s: a random cell whose slowest server has load >= 1 has no
// stationary mean, and prints "unstable" without simulating.
//
// Each GI cell and (skew, policy) run is one sweep cell; a skew row's
// cells share its seed (common random numbers).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
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

constexpr std::size_t kPolicies = 4;  // DES: random, sq(d), jsq, least-work

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = ctx.cli().get_int<int>("n", 4);
  const int d = ctx.cli().get_int<int>("d", 2);
  const int t = ctx.cli().get_int<int>("t", 3);
  const double rho = ctx.cli().get_double("rho", 0.75);
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
    double p99 = 0.0;       ///< DES cells only
    double ci95 = 0.0;      ///< GI cells only: the delay's 95% half-width
    bool unstable = false;  ///< DES random cells past the slowest capacity
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
    const std::vector<double> speeds = rank_speeds(skews[s]);
    if (i % kPolicies == 0 &&
        rho >= *std::min_element(speeds.begin(), speeds.end())) {
      Cell skipped;
      skipped.unstable = true;
      return skipped;
    }
    rlb::sim::ClusterConfig cfg;
    cfg.servers = n;
    cfg.server_speeds = speeds;
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
  const auto gi_cell = [&](std::size_t s) {
    // Little's law (below) maps a waiting-jobs half-width to a delay
    // half-width, so the target is requested in delay units too: it
    // scales by lambda * N (a fixed plan's infinite target stays
    // infinite). One seed per skew row (common random numbers).
    const std::uint64_t row_seed = rlb::engine::cell_seed(seed, s);
    auto plan = ctx.plan(row_seed, arrivals, arrivals / 10);
    plan.target_ci *= p.lambda * p.N;
    const auto arr = rlb::sim::make_exponential(rho * n);
    const auto res = rlb::sim::simulate_gi_lower_bound(
        BoundModel(p, t, BoundKind::Lower, rank_speeds(skews[s])), *arr, plan,
        ctx.budget());
    // Solver convention: delay = E[W] + 1/mu, Little's law over the
    // original arrival rate lambda*N.
    Cell cell{res.mean_waiting_jobs / (p.lambda * p.N) + 1.0 / p.mu,
              res.adaptive};
    cell.ci95 = res.ci95_waiting_jobs / (p.lambda * p.N);
    cell.report.half_width /= p.lambda * p.N;
    return cell;
  };
  const auto cell = [&](std::size_t i) {
    return i < skews.size() ? gi_cell(i) : des_cell(i - skews.size());
  };
  const auto cells = ctx.map<Cell>(skews.size() * (1 + kPolicies), cell);
  const auto exact_delay = [&](BoundKind kind, double fast) -> std::string {
    try {
      return rlb::util::fmt(
          rlb::sqd::solve_bound(BoundModel(p, t, kind, rank_speeds(fast)))
              .mean_delay,
          4);
    } catch (const rlb::qbd::UnstableError&) {
      return "unstable";
    }
  };

  ScenarioOutput out;
  out.preamble =
      "Heterogeneous-rate bound models, N = " + std::to_string(n) +
      ", d = " + std::to_string(d) + ", T = " + std::to_string(t) +
      ", rho = " + rlb::util::fmt(rho, 2) +
      ".\nRank speeds: fast half serves the longest queues, slow half the "
      "shortest;\ntotal capacity is constant across skews.";
  std::vector<std::string> header{"skew (fast:slow)", "lower delay",
                                  "lower delay (GI sim)", "GI ci95",
                                  "upper delay"};
  if (adaptive) rlb::engine::add_adaptive_columns(header);
  auto& table = out.add_table("main", header);
  for (std::size_t s = 0; s < skews.size(); ++s) {
    std::vector<std::string> row{rlb::util::fmt(skews[s], 2) + ":" +
                                 rlb::util::fmt(2.0 - skews[s], 2)};
    row.push_back(exact_delay(BoundKind::Lower, skews[s]));
    row.push_back(rlb::util::fmt(cells[s].delay, 4));
    row.push_back(rlb::util::fmt(cells[s].ci95, 4));
    row.push_back(exact_delay(BoundKind::Upper, skews[s]));
    if (adaptive) rlb::engine::add_adaptive_cells(row, cells[s].report);
    table.add_row(std::move(row));
  }
  std::string main_note =
      "lower/upper delay: exact matrix-geometric solutions of the rank-speed "
      "bound\nmodels; GI ci95: the GI simulator's 95% CI half-width.";
  if (adaptive) main_note += "\n" + rlb::engine::adaptive_note();
  out.note(main_note);

  std::vector<std::string> des_header{
      "skew (fast:slow)", "random", "sq(" + std::to_string(d) + ")", "jsq",
      "least-work", "sq(" + std::to_string(d) + ") p99"};
  if (adaptive) rlb::engine::add_adaptive_columns(des_header);
  auto& des = out.add_table("des", des_header);
  for (std::size_t s = 0; s < skews.size(); ++s) {
    const Cell* row_cells = &cells[skews.size() + s * kPolicies];
    std::vector<std::string> row{rlb::util::fmt(skews[s], 2) + ":" +
                                 rlb::util::fmt(2.0 - skews[s], 2)};
    auto report = rlb::sim::AdaptiveReport::row_identity();
    for (std::size_t k = 0; k < kPolicies; ++k) {
      if (row_cells[k].unstable) {
        row.push_back("unstable");
        continue;
      }
      row.push_back(rlb::util::fmt(row_cells[k].delay, 3));
      report.combine(row_cells[k].report);
    }
    row.push_back(rlb::util::fmt(row_cells[1].p99, 2));
    if (adaptive) rlb::engine::add_adaptive_cells(row, report);
    des.add_row(std::move(row));
  }
  out.note("DES of the fleet itself: first N/2 servers fast, the rest "
           "slow; mean sojourn per\npolicy, then the sq(" +
           std::to_string(d) + ") p99 sojourn.");
  out.postamble =
      "Reading: speeding up service of the LONGEST queues (skew > 1) "
      "shrinks the\nbacklog both bound models hold at equal capacity; the "
      "GI simulator is an\nindependent implementation of the lower model "
      "and should land within its CI of\nthe exact lower delay. In the "
      "real fleet, queue-length signals degrade as\nspeeds diverge: a short "
      "queue on a slow machine is a trap. Workload-aware\nleast-work-left "
      "degrades far less. Random routing loads a server of speed s with "
      "rho / s,\nso a random cell whose slowest server is at or past "
      "capacity has no stationary\nmean: it prints \"unstable\" and is not "
      "simulated.";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "hetero_fleet_bounds",
    "Extension: mixed-speed fleets at equal capacity — exact bound models "
    "with rank-based service rates, a GI-simulator cross-check, and the "
    "fleet's DES under random/SQ(d)/JSQ/least-work",
    {{"n", "number of servers (even)", "4"},
     {"d", "polled servers", "2"},
     {"t", "gap threshold T", "3"},
     {"rho", "utilization", "0.75"},
     {"arrivals", "GI-simulator arrival events and DES jobs per cell",
      "1000000"},
     {"seed", "base RNG seed; per-row seeds are derived from it", "11223"}},
    run}};

}  // namespace
