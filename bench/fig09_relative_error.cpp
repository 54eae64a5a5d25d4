// Scenario "fig09_relative_error" — Figure 9(a,b):
// relative error (%) of the asymptotic delay formula (Eq. 16) against
// simulation, as a function of the number of servers N, for d in
// {2, 5, 10, 25, 50} and rho in {0.75, 0.95}, plus the small-N detail
// panel from the §V text. Every (rho, N, d) simulation is one sweep cell.
//
// The paper simulates 1e8 jobs with 1e7 warmup; defaults here are scaled
// down so the whole suite runs in minutes. Pass --full for paper scale.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/fast_sqd.h"
#include "sqd/asymptotic.h"
#include "util/require.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;

struct Cell {
  double rho = 0.0;
  int n = 0;
  int d = 0;
};

// Seed from the cell's (rho, N, d) coordinates — not its position in the
// (possibly --rho-filtered) cell list — so a filtered run reproduces the
// same numbers as the full sweep.
std::uint64_t seed_for(std::uint64_t base, const Cell& c) {
  const auto rho_key =
      static_cast<std::uint64_t>(std::llround(c.rho * 10000));
  return rlb::engine::cell_seed(
      rlb::engine::cell_seed(base, rho_key),
      (static_cast<std::uint64_t>(c.n) << 8) |
          static_cast<std::uint64_t>(c.d));
}

/// One simulation cell's result; the report is shown under --target-ci
/// only.
struct CellResult {
  double delay = 0.0;
  rlb::sim::AdaptiveReport report;
};

// Each cell's job budget shards into ctx.replicas() parallel chains with
// merged batch-means (sim/replica.h); replica workers share the sweep's
// thread budget, so the lone huge-N cell at the tail of the sweep soaks
// up the slots its finished neighbours released.
CellResult simulate_cell(const ScenarioContext& ctx, const Cell& c,
                         std::uint64_t jobs, std::uint64_t seed) {
  rlb::sim::FastSqdConfig cfg;
  cfg.params = {c.n, c.d, c.rho, 1.0};
  const auto res = rlb::sim::simulate_sqd_fast(
      cfg, ctx.plan(seed, jobs, jobs / 10), ctx.budget());
  return CellResult{res.mean_delay, res.adaptive};
}

ScenarioOutput run(ScenarioContext& ctx) {
  const bool full = ctx.cli().get_bool("full");
  const auto jobs =
      ctx.cli().get_int<std::uint64_t>("jobs", full ? 100'000'000 : 4'000'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 42);
  const double only_rho = ctx.cli().get_double("rho", 0.0);
  RLB_REQUIRE(only_rho == 0.0 || (only_rho > 0.0 && only_rho < 1.0),
              "--rho must be 0 (both panels) or in (0, 1)");

  const std::vector<int> choices{2, 5, 10, 25, 50};
  const std::vector<int> servers{5, 10, 25, 50, 75, 100, 150, 200, 250};
  std::vector<double> rhos{0.75, 0.95};
  if (only_rho > 0.0) rhos = {only_rho};

  // Flatten the panels plus the small-N detail into one deterministic cell
  // list, then fan the simulations across the worker threads.
  std::vector<Cell> cells;
  for (double rho : rhos)
    for (int n : servers)
      for (int d : choices)
        if (d <= n) cells.push_back({rho, n, d});
  const std::size_t detail_start = cells.size();
  for (double rho : {0.75, 0.95})
    for (int n : {3, 6, 12, 25, 50}) cells.push_back({rho, n, 2});

  const bool adaptive = ctx.adaptive().enabled();
  const auto delays = ctx.map<CellResult>(cells.size(), [&](std::size_t i) {
    return simulate_cell(ctx, cells[i], jobs, seed_for(seed, cells[i]));
  });

  ScenarioOutput out;
  out.preamble =
      "Fig. 9: accuracy of the N->infinity approximation in "
      "finite regimes.\nExpected shape: errors grow as N shrinks, far "
      "larger at rho=0.95 than rho=0.75,\nand not monotone in d at "
      "moderate load.";

  std::size_t next = 0;
  for (double rho : rhos) {
    std::vector<std::string> header{"N"};
    for (int d : choices) header.push_back("d=" + std::to_string(d));
    if (adaptive) rlb::engine::add_adaptive_columns(header);
    auto& table = out.add_table("rho" + rlb::util::fmt(rho, 2), header);
    for (int n : servers) {
      std::vector<std::string> row{std::to_string(n)};
      auto report = rlb::sim::AdaptiveReport::row_identity();
      for (int d : choices) {
        if (d > n) {
          row.push_back("-");
          continue;
        }
        const CellResult& cell = delays[next++];
        const double asym = rlb::sqd::asymptotic_delay(rho, d);
        report.combine(cell.report);
        row.push_back(
            rlb::util::fmt(100.0 * std::abs(asym - cell.delay) / cell.delay,
                           2));
      }
      if (adaptive) rlb::engine::add_adaptive_cells(row, report);
      table.add_row(std::move(row));
    }
    out.note("relative error (%) of asymptotic vs simulation, rho = " +
             rlb::util::fmt(rho, 2) +
             (adaptive ? " (adaptive --target-ci run lengths)"
                       : ", jobs = " + std::to_string(jobs)));
  }
  if (adaptive)
    out.note(rlb::engine::adaptive_note(
        "the row's simulated d values (half_width in delay units; the "
        "error\ncolumns are percentages)"));

  // The headline motivation: small-N panel where the approximation is
  // misleading (text of Section V).
  std::vector<std::string> detail_header{"rho", "N", "simulated",
                                         "asymptotic", "rel.err(%)"};
  if (adaptive) rlb::engine::add_adaptive_columns(detail_header);
  auto& detail = out.add_table("small_n", detail_header);
  next = detail_start;
  for (double rho : {0.75, 0.95}) {
    for (int n : {3, 6, 12, 25, 50}) {
      const CellResult& cell = delays[next++];
      const double asym = rlb::sqd::asymptotic_delay(rho, 2);
      std::vector<std::string> row{
          rlb::util::fmt(rho, 2), std::to_string(n),
          rlb::util::fmt(cell.delay, 4), rlb::util::fmt(asym, 4),
          rlb::util::fmt(100.0 * std::abs(asym - cell.delay) / cell.delay,
                         2)};
      if (adaptive) rlb::engine::add_adaptive_cells(row, cell.report);
      detail.add_row(std::move(row));
    }
  }
  out.note("small-N detail (d = 2): asymptotic vs simulated delay");
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "fig09_relative_error",
    "Fig. 9: relative error of the asymptotic delay formula vs simulation "
    "across N and d",
    {{"jobs", "simulated jobs per cell", "4000000"},
     {"full", "paper scale (1e8 jobs per cell)", "false"},
     {"rho", "restrict to a single utilization (0 = both panels)", "0"},
     {"seed", "base RNG seed; per-cell seeds are derived from it", "42"}},
    run}};

}  // namespace
