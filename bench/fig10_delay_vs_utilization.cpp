// Scenario "fig10_delay_vs_utilization" — Figure 10(a-d): average delay
// vs utilization for SQ(2) with (N, T) in
// {(3,2), (3,3), (6,3), (12,3)}. Four series per panel, exactly as in the
// paper: upper bound, simulation, lower bound, asymptotic result.
// "unstable" marks utilizations where the upper bound model's drift
// condition fails (the curve that shoots off in Fig 10(a)). Every
// (panel, rho) column triple is a sweep cell.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "qbd/solver.h"
#include "sim/fast_sqd.h"
#include "sqd/asymptotic.h"
#include "sqd/bound_solver.h"
#include "util/require.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

struct PanelDef {
  char label;
  int n, t;
};

struct CellResult {
  std::string upper = "unstable";
  double sim = 0.0;
  double lower = 0.0;
  rlb::sim::AdaptiveReport report;  ///< shown under --target-ci only
};

ScenarioOutput run(ScenarioContext& ctx) {
  const bool full = ctx.cli().get_bool("full");
  const auto jobs =
      ctx.cli().get_int<std::uint64_t>("jobs", full ? 100'000'000 : 2'000'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 5000);
  const std::string only_panel = ctx.cli().get("panel", "");

  std::vector<double> rhos;
  for (double r = 0.05; r < 0.96; r += 0.05) rhos.push_back(r);

  const std::vector<PanelDef> all_panels{
      {'a', 3, 2}, {'b', 3, 3}, {'c', 6, 3}, {'d', 12, 3}};
  std::vector<PanelDef> panels;
  for (const auto& def : all_panels)
    if (only_panel.empty() || only_panel == std::string(1, def.label))
      panels.push_back(def);
  RLB_REQUIRE(!panels.empty(), "--panel must be a, b, c or d (empty: all)");

  const std::size_t per_panel = rhos.size();
  const auto cells = ctx.map<CellResult>(
      panels.size() * per_panel, [&](std::size_t i) {
        const PanelDef& def = panels[i / per_panel];
        const double rho = rhos[i % per_panel];
        const Params p{def.n, 2, rho, 1.0};

        CellResult cell;
        try {
          cell.upper = rlb::util::fmt(
              rlb::sqd::solve_bound(BoundModel(p, def.t, BoundKind::Upper))
                  .mean_delay,
              4);
        } catch (const rlb::qbd::UnstableError&) {
        }

        rlb::sim::FastSqdConfig cfg;
        cfg.params = p;
        // Seed from (N, rho) — not the position in the --panel-filtered
        // cell list — so a single-panel run reproduces the full sweep's
        // numbers (and panels sharing N, like a and b, share streams).
        const std::uint64_t sim_seed = rlb::engine::cell_seed(
            rlb::engine::cell_seed(seed, static_cast<std::uint64_t>(def.n)),
            static_cast<std::uint64_t>(std::llround(rho * 10000)));
        const auto res = rlb::sim::simulate_sqd_fast(
            cfg, ctx.plan(sim_seed, jobs, jobs / 10), ctx.budget());
        cell.sim = res.mean_delay;
        cell.report = res.adaptive;

        cell.lower = rlb::sqd::solve_lower_improved(
                         BoundModel(p, def.t, BoundKind::Lower))
                         .mean_delay;
        return cell;
      });

  ScenarioOutput out;
  out.preamble =
      "Fig. 10: finite-regime bounds vs simulation vs asymptotics "
      "for SQ(2).\nExpected shape: lower bound hugs the simulation "
      "everywhere; the T=2 upper bound\nis loose and goes unstable early; "
      "T=3 is much tighter; the asymptotic curve\nunderestimates at high "
      "rho, worst for small N.";

  const bool adaptive = ctx.adaptive().enabled();
  for (std::size_t pi = 0; pi < panels.size(); ++pi) {
    const PanelDef& def = panels[pi];
    std::vector<std::string> header{"rho", "upper", "simulation", "lower",
                                    "asymptotic"};
    if (adaptive) rlb::engine::add_adaptive_columns(header);
    auto& table = out.add_table(std::string("panel_") + def.label, header);
    for (std::size_t ri = 0; ri < rhos.size(); ++ri) {
      const CellResult& cell = cells[pi * per_panel + ri];
      std::vector<std::string> row{
          rlb::util::fmt(rhos[ri], 2), cell.upper,
          rlb::util::fmt(cell.sim, 4), rlb::util::fmt(cell.lower, 4),
          rlb::util::fmt(rlb::sqd::asymptotic_delay(rhos[ri], 2), 4)};
      if (adaptive) rlb::engine::add_adaptive_cells(row, cell.report);
      table.add_row(std::move(row));
    }
    out.note("Figure 10(" + std::string(1, def.label) +
             "): SQ(2), N = " + std::to_string(def.n) +
             ", T = " + std::to_string(def.t) +
             " (block size C(N+T-1,T))");
  }
  if (adaptive) out.note(rlb::engine::adaptive_note());
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "fig10_delay_vs_utilization",
    "Fig. 10: SQ(2) delay vs utilization — upper/lower bounds, simulation, "
    "asymptotic, four (N,T) panels",
    {{"jobs", "simulated jobs per cell", "2000000"},
     {"full", "paper scale (1e8 jobs per cell)", "false"},
     {"panel", "restrict to one panel a|b|c|d (empty = all)", ""},
     {"seed", "base RNG seed; per-cell seeds are derived from it", "5000"}},
    run}};

}  // namespace
