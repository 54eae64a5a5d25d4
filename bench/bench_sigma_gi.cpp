// Scenario "sigma_gi" — Theorem 2 and its extension: the geometric
// decay parameter sigma for general renewal arrivals (the paper proves
// pi_{q+1} = sigma^N pi_q for the lower bound model; Theorem 3 specializes
// sigma = rho for Poisson). Computes sigma across interarrival families
// and utilizations, cross-checks the GI/M/1-style ordering by simulating
// GI/M SQ(2) clusters with the DES, and verifies the geometric tail on the
// lower bound model itself. The seven simulations are sweep cells; the
// sigma rootfinds are cheap and run inline.
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/cluster_sim.h"
#include "sim/gi_bound_sim.h"
#include "sqd/bound_model.h"
#include "sqd/interarrival.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using namespace rlb::sqd;

// scv = 4 hyperexponential fit used throughout.
const double kP1 = 0.5 * (1.0 + std::sqrt(3.0 / 5.0));

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = ctx.cli().get_int<int>("n", 6);
  const double rho = ctx.cli().get_double("rho", 0.9);
  const auto jobs = ctx.cli().get_int<std::uint64_t>("jobs", 400'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 4242);

  ScenarioOutput out;
  out.preamble =
      "Theorem 2: sigma = root of x = sum_k x^k beta_k for renewal "
      "arrivals.\nsigma orders by burstiness: deterministic < erlang < "
      "poisson < hyperexp.";

  auto& sigma_table = out.add_table(
      "sigma", {"rho", "deterministic", "erlang(4)", "poisson",
                "hyperexp(scv=4)"});
  for (double load : {0.3, 0.5, 0.7, 0.8, 0.9, 0.95}) {
    // All with mean interarrival 1/load (per-server utilization load, mu=1).
    const DeterministicInterarrival det(1.0 / load);
    const ErlangInterarrival erl(4, 4.0 * load);
    const ExponentialInterarrival poi(load);
    const HyperExpInterarrival hyp(kP1, 2.0 * kP1 * load,
                                   2.0 * (1.0 - kP1) * load);
    sigma_table.add_row_numeric(
        {load, solve_sigma(det, 1.0).sigma, solve_sigma(erl, 1.0).sigma,
         solve_sigma(poi, 1.0).sigma, solve_sigma(hyp, 1.0).sigma},
        6);
  }

  // Simulation cross-check: delay of GI/M SQ(2) clusters of --n servers at
  // utilization --rho orders the same way as sigma. Cells 0-3 are the DES
  // runs; cells 4-6 simulate the lower bound model itself for the
  // Theorem 2 tail check.
  const double mean_ia = 1.0 / (rho * n);  // cluster-level stream

  const int n2 = 2;
  const double rho2 = 0.85;
  const double cluster2 = rho2 * n2;

  const auto des_sampler =
      [&](std::size_t task) -> std::unique_ptr<rlb::sim::Distribution> {
    switch (task) {
      case 0:
        return rlb::sim::make_deterministic(mean_ia);
      case 1:
        return rlb::sim::make_erlang(4, 4.0 / mean_ia);
      case 2:
        return rlb::sim::make_exponential(1.0 / mean_ia);
      default:
        return rlb::sim::make_hyperexp_fitted(mean_ia, 4.0);
    }
  };
  const auto tail_sampler =
      [&](std::size_t task) -> std::unique_ptr<rlb::sim::Distribution> {
    switch (task) {
      case 0:
        return rlb::sim::make_erlang(3, 3.0 * cluster2);
      case 1:
        return rlb::sim::make_exponential(cluster2);
      default:
        return rlb::sim::make_deterministic(1.0 / cluster2);
    }
  };

  // All DES cells share one seed and all tail cells share another, so the
  // arrival families are compared under common random numbers (as the
  // original bench did with its fixed seeds).
  struct Cell {
    double value = 0.0;
    rlb::sim::AdaptiveReport report;
  };
  const bool adaptive = ctx.adaptive().enabled();
  const auto cells = ctx.map<Cell>(7, [&](std::size_t i) {
    if (i < 4) {
      rlb::sim::ClusterConfig cfg;
      cfg.servers = n;
      rlb::sim::SqdPolicy policy(n, 2);
      const auto arr = des_sampler(i);
      rlb::sim::RenewalArrivals arrivals(*arr);
      const auto svc = rlb::sim::make_exponential(1.0);
      const auto res = rlb::sim::simulate_cluster(
          cfg, policy, arrivals, *svc,
          ctx.plan(rlb::engine::cell_seed(seed, 0), jobs, jobs / 10),
          ctx.budget());
      return Cell{res.mean_sojourn, res.adaptive};
    }
    const rlb::sqd::BoundModel lower(rlb::sqd::Params{n2, 2, rho2, 1.0}, 2,
                                     rlb::sqd::BoundKind::Lower);
    const auto sampler = tail_sampler(i - 4);
    // Under --target-ci the stopping target is the waiting-jobs CI (the
    // level ratio has no interval of its own); the tail estimate rides
    // along.
    const auto res = rlb::sim::simulate_gi_lower_bound(
        lower, *sampler,
        ctx.plan(rlb::engine::cell_seed(seed, 1), 4 * jobs, jobs / 2),
        ctx.budget());
    return Cell{res.level_tail_ratio, res.adaptive};
  });

  std::vector<std::string> des_header{"arrivals", "sigma", "sim mean delay"};
  if (adaptive) rlb::engine::add_adaptive_columns(des_header);
  auto& sim_table = out.add_table("des_crosscheck", des_header);
  const std::vector<std::pair<std::string, double>> des_entries{
      {"deterministic",
       solve_sigma(DeterministicInterarrival(1.0 / rho), 1.0).sigma},
      {"erlang(4)", solve_sigma(ErlangInterarrival(4, 4.0 * rho), 1.0).sigma},
      {"poisson", solve_sigma(ExponentialInterarrival(rho), 1.0).sigma},
      {"hyperexp(scv=4)",
       solve_sigma(HyperExpInterarrival(kP1, 2.0 * kP1 * rho,
                                        2.0 * (1.0 - kP1) * rho),
                   1.0)
           .sigma}};
  for (std::size_t i = 0; i < des_entries.size(); ++i) {
    std::vector<std::string> row{des_entries[i].first,
                                 rlb::util::fmt(des_entries[i].second, 5),
                                 rlb::util::fmt(cells[i].value, 4)};
    if (adaptive) rlb::engine::add_adaptive_cells(row, cells[i].report);
    sim_table.add_row(std::move(row));
  }
  out.note("DES cross-check: GI/M SQ(2), N = " + std::to_string(n) +
           ", rho = " + rlb::util::fmt(rho, 2) +
           (adaptive ? " (adaptive --target-ci run lengths)"
                     : ", " + std::to_string(jobs) + " jobs"));

  // Direct verification of Theorem 2's geometric tail: simulate the LOWER
  // BOUND MODEL itself under each arrival family and compare the measured
  // level-mass ratio with sigma^N.
  std::vector<std::string> tail_header{"arrivals", "sigma^N (Thm 2)",
                                       "measured level ratio"};
  if (adaptive) rlb::engine::add_adaptive_columns(tail_header);
  auto& tail_table = out.add_table("thm2_tail", tail_header);
  const std::vector<std::pair<std::string, double>> tail_entries{
      {"erlang(3)",
       solve_sigma(ErlangInterarrival(3, 3.0 * cluster2), n2).sigma},
      {"poisson", solve_sigma(ExponentialInterarrival(cluster2), n2).sigma},
      {"deterministic",
       solve_sigma(DeterministicInterarrival(1.0 / cluster2), n2).sigma}};
  for (std::size_t i = 0; i < tail_entries.size(); ++i) {
    std::vector<std::string> row{
        tail_entries[i].first,
        rlb::util::fmt(std::pow(tail_entries[i].second, n2), 5),
        rlb::util::fmt(cells[4 + i].value, 5)};
    if (adaptive) rlb::engine::add_adaptive_cells(row, cells[4 + i].report);
    tail_table.add_row(std::move(row));
  }
  out.note("Theorem 2 tail check: lower bound model, N = 2, T = 2, rho = "
           "0.85");
  if (adaptive)
    out.note(rlb::engine::adaptive_note() +
             "\nTargets: DES rows stop on the mean-sojourn CI; tail rows "
             "stop on the\nwaiting-jobs CI (the level ratio itself carries "
             "no interval).");

  out.postamble =
      "Note: sigma solves x = LST(N mu (1-x)) for the cluster stream "
      "(per-job decay);\nlevels span N jobs, so the predicted level-mass "
      "ratio is sigma^N.";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "sigma_gi",
    "Theorem 2: geometric decay sigma for renewal arrivals, with DES and "
    "lower-bound-model cross-checks",
    {{"n", "servers in the DES cross-check", "6"},
     {"rho", "utilization of the DES cross-check", "0.9"},
     {"jobs", "simulated jobs per DES cell", "400000"},
     {"seed", "base RNG seed; per-cell seeds are derived from it", "4242"}},
    run}};

}  // namespace
