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
#include <utility>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/cluster_sim.h"
#include "sim/gi_bound_sim.h"
#include "sqd/bound_model.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using rlb::sim::Distribution;
using rlb::sim::solve_sigma;

// The four families of the sigma and DES tables, least to most bursty.
const std::vector<std::string> kFamilies{"deterministic", "erlang(4)",
                                         "poisson", "hyperexp(scv=4)"};

/// kFamilies[family] with the given mean interarrival time.
std::unique_ptr<Distribution> family_law(std::size_t family, double mean) {
  switch (family) {
    case 0:
      return rlb::sim::make_deterministic(mean);
    case 1:
      return rlb::sim::make_erlang(4, 4.0 / mean);
    case 2:
      return rlb::sim::make_exponential(1.0 / mean);
    default:
      return rlb::sim::make_hyperexp_fitted(mean, 4.0);
  }
}

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

  std::vector<std::string> sigma_header{"rho"};
  sigma_header.insert(sigma_header.end(), kFamilies.begin(), kFamilies.end());
  auto& sigma_table = out.add_table("sigma", sigma_header);
  for (double load : {0.3, 0.5, 0.7, 0.8, 0.9, 0.95}) {
    // Per-server laws of mean 1/load at mu = 1: utilization load.
    std::vector<double> row{load};
    for (std::size_t f = 0; f < kFamilies.size(); ++f)
      row.push_back(solve_sigma(*family_law(f, 1.0 / load), 1.0).sigma);
    sigma_table.add_row_numeric(row, 6);
  }

  // Simulation cross-check: delay of GI/M SQ(2) clusters of --n servers at
  // utilization --rho orders the same way as sigma. Cells 0-3 are the DES
  // runs; cells 4-6 simulate the lower bound model itself for the
  // Theorem 2 tail check. Each row's sigma comes from the law it
  // simulates, at the pooled service rate N mu of the cluster stream.
  const double mean_ia = 1.0 / (rho * n);  // cluster-level stream
  std::vector<std::unique_ptr<Distribution>> des_laws;
  for (std::size_t f = 0; f < kFamilies.size(); ++f)
    des_laws.push_back(family_law(f, mean_ia));

  const int n2 = 2;
  const double rho2 = 0.85;
  const double cluster2 = rho2 * n2;
  std::vector<std::pair<std::string, std::unique_ptr<Distribution>>> tail_laws;
  tail_laws.emplace_back("erlang(3)", rlb::sim::make_erlang(3, 3.0 * cluster2));
  tail_laws.emplace_back("poisson", rlb::sim::make_exponential(cluster2));
  tail_laws.emplace_back("deterministic",
                         rlb::sim::make_deterministic(1.0 / cluster2));

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
      rlb::sim::RenewalArrivals arrivals(*des_laws[i]);
      const auto svc = rlb::sim::make_exponential(1.0);
      const auto res = rlb::sim::simulate_cluster(
          cfg, policy, arrivals, *svc,
          ctx.plan(rlb::engine::cell_seed(seed, 0), jobs, jobs / 10),
          ctx.budget());
      return Cell{res.mean_sojourn, res.adaptive};
    }
    const rlb::sqd::BoundModel lower(rlb::sqd::Params{n2, 2, rho2, 1.0}, 2,
                                     rlb::sqd::BoundKind::Lower);
    // Under --target-ci the stopping target is the waiting-jobs CI (the
    // level ratio has no interval of its own); the tail estimate rides
    // along.
    const auto res = rlb::sim::simulate_gi_lower_bound(
        lower, *tail_laws[i - 4].second,
        ctx.plan(rlb::engine::cell_seed(seed, 1), 4 * jobs, jobs / 2),
        ctx.budget());
    return Cell{res.level_tail_ratio, res.adaptive};
  });

  std::vector<std::string> des_header{"arrivals", "sigma", "sim mean delay"};
  if (adaptive) rlb::engine::add_adaptive_columns(des_header);
  auto& sim_table = out.add_table("des_crosscheck", des_header);
  for (std::size_t i = 0; i < des_laws.size(); ++i) {
    std::vector<std::string> row{
        kFamilies[i], rlb::util::fmt(solve_sigma(*des_laws[i], n).sigma, 5),
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
  for (std::size_t i = 0; i < tail_laws.size(); ++i) {
    const double sigma = solve_sigma(*tail_laws[i].second, n2).sigma;
    std::vector<std::string> row{tail_laws[i].first,
                                 rlb::util::fmt(std::pow(sigma, n2), 5),
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
