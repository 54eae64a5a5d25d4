// Scenario "waiting_profile" — waiting-time percentiles from the analytic
// profile (Erlang mixture over the lower bound model's stationary law)
// against the DES's reservoir-sampled quantiles. Mean-delay bounds are the
// paper's product; operators usually care about p95/p99, and the same
// matrix-geometric solution delivers them in milliseconds. Each rho is one
// sweep cell (analytic profile + DES run).
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/cluster_sim.h"
#include "sqd/waiting_distribution.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

struct CellResult {
  double p_wait = 0.0;
  double model_p50 = 0.0, model_p95 = 0.0, model_p99 = 0.0;
  double sim_p50 = 0.0, sim_p95 = 0.0, sim_p99 = 0.0;
  rlb::sim::AdaptiveReport report;  ///< shown under --target-ci only
};

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = ctx.cli().get_int<int>("n", 6);
  const int d = ctx.cli().get_int<int>("d", 2);
  const int t = ctx.cli().get_int<int>("T", 3);
  const auto jobs = ctx.cli().get_int<std::uint64_t>("jobs", 800'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 1618);

  const std::vector<double> rhos{0.5, 0.7, 0.8, 0.9};
  const auto cells = ctx.map<CellResult>(
      rhos.size(), [&](std::size_t i) {
        const Params p{n, d, rhos[i], 1.0};
        const rlb::sqd::WaitingProfile profile(
            BoundModel(p, t, BoundKind::Lower));

        rlb::sim::ClusterConfig cfg;
        cfg.servers = n;
        rlb::sim::SqdPolicy policy(n, d);
        const auto arr = rlb::sim::make_exponential(rhos[i] * n);
        rlb::sim::RenewalArrivals arrivals(*arr);
        const auto svc = rlb::sim::make_exponential(1.0);
        // Under --target-ci the stopping target is the mean-sojourn CI;
        // the quantile columns ride along on whatever budget the mean
        // needed.
        const rlb::sim::ClusterResult sim = rlb::sim::simulate_cluster(
            cfg, policy, arrivals, *svc,
            ctx.plan(rlb::engine::cell_seed(seed, i), jobs, jobs / 10),
            ctx.budget());
        CellResult cell;
        cell.report = sim.adaptive;

        cell.p_wait = profile.ccdf(0.0);
        cell.model_p50 = profile.quantile(0.50);
        cell.model_p95 = profile.quantile(0.95);
        cell.model_p99 = profile.quantile(0.99);
        // The DES reports sojourn quantiles; subtracting the unit mean
        // service gives a rough waiting comparison.
        cell.sim_p50 = std::max(0.0, sim.p50_sojourn - 1.0);
        cell.sim_p95 = std::max(0.0, sim.p95_sojourn - 1.0);
        cell.sim_p99 = std::max(0.0, sim.p99_sojourn - 1.0);
        return cell;
      });

  ScenarioOutput out;
  out.preamble =
      "Waiting-time percentiles: analytic profile (lower bound model) vs "
      "DES,\nSQ(" +
      std::to_string(d) + "), N = " + std::to_string(n) +
      ", T = " + std::to_string(t);
  const bool adaptive = ctx.adaptive().enabled();
  std::vector<std::string> header{"rho",       "P(W>0) model", "p50 model",
                                  "p50 sim",   "p95 model",    "p95 sim",
                                  "p99 model", "p99 sim"};
  if (adaptive) rlb::engine::add_adaptive_columns(header);
  auto& table = out.add_table("main", header);
  for (std::size_t i = 0; i < rhos.size(); ++i) {
    const CellResult& c = cells[i];
    std::vector<std::string> row{
        rlb::util::fmt(rhos[i], 2),   rlb::util::fmt(c.p_wait, 4),
        rlb::util::fmt(c.model_p50, 3), rlb::util::fmt(c.sim_p50, 3),
        rlb::util::fmt(c.model_p95, 3), rlb::util::fmt(c.sim_p95, 3),
        rlb::util::fmt(c.model_p99, 3), rlb::util::fmt(c.sim_p99, 3)};
    if (adaptive) rlb::engine::add_adaptive_cells(row, c.report);
    table.add_row(std::move(row));
  }
  if (adaptive)
    out.note(rlb::engine::adaptive_note() +
             "\nTarget statistic: the mean sojourn time (half_width in "
             "sojourn units); the\nquantile columns ride along.");
  out.postamble =
      "Note: sim columns are sojourn quantiles minus the unit mean service "
      "time; the\nwait and sojourn distributions differ by an independent "
      "Exp(1), so treat the\ncomparison as directional. The model columns "
      "are exact percentiles of the\nsnapshot mixture (see "
      "src/sqd/waiting_distribution.h).";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "waiting_profile",
    "Extension: waiting-time percentiles, analytic Erlang-mixture profile vs "
    "DES quantiles across rho",
    {{"n", "number of servers", "6"},
     {"d", "polled servers per arrival", "2"},
     {"T", "bound model threshold", "3"},
     {"jobs", "simulated jobs per cell", "800000"},
     {"seed", "base RNG seed; per-cell seeds are derived from it", "1618"}},
    run}};

}  // namespace
