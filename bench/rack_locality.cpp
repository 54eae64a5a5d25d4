// Scenario "rack_locality" — does power-of-d survive rack-locality
// constraints? (docs/TOPOLOGY.md). A racked cluster (R racks x per-rack
// servers, cross-rack penalty as added latency or a capacity factor)
// compares topology-blind SQ(d)/JIQ against their locality-aware
// variants: delay and p99 vs the penalty, and vs d at a fixed penalty.
// Each (row, policy) simulation is one sweep cell with common random
// numbers per row; the zero-penalty no-spill column is cross-checked
// against the paper's exact solver (each rack is then an independent
// SQ(d) system of per-rack servers).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/cluster_sim.h"
#include "sqd/exact_reference.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;

constexpr std::size_t kMainTasks = 5;  // blind sq(d), spill, local, jiq, rack-jiq
constexpr std::size_t kDTasks = 3;     // blind sq(d), spill, local

/// Truncation cap that keeps the exact solve's truncation mass
/// negligible at per-rack sizes (matches test_exact_sandwich.cpp).
int cap_for(int n) { return n == 2 ? 70 : (n == 3 ? 36 : 26); }

std::unique_ptr<rlb::sim::Policy> make_main_policy(int n, int racks, int d,
                                                   std::size_t task) {
  using namespace rlb::sim;
  switch (task) {
    case 0:
      return std::make_unique<SqdPolicy>(n, d);
    case 1:
      return std::make_unique<RackLocalSqdPolicy>(n, racks, d, 1);
    case 2:
      return std::make_unique<RackLocalSqdPolicy>(n, racks, d, 0);
    case 3:
      return std::make_unique<JiqPolicy>(n);
    default:
      return std::make_unique<RackJiqPolicy>(n, racks);
  }
}

ScenarioOutput run(ScenarioContext& ctx) {
  const int racks = ctx.cli().get_int<int>("racks", 4);
  const int per = ctx.cli().get_int<int>("per-rack", 4);
  const int d = ctx.cli().get_int<int>("d", 2);
  const double rho = ctx.cli().get_double("rho", 0.85);
  const auto jobs = ctx.cli().get_int<std::uint64_t>("jobs", 400'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 99);
  const std::string kind = ctx.cli().get("penalty-kind", "latency");
  const bool adaptive = ctx.adaptive().enabled();

  if (racks < 1 || per < 1)
    throw std::invalid_argument("--racks and --per-rack must be >= 1");
  if (kind != "latency" && kind != "capacity")
    throw std::invalid_argument(
        "--penalty-kind must be 'latency' or 'capacity'");

  const double check_rho = ctx.cli().get_double("check-rho", 0.70);
  const int n = racks * per;
  const std::vector<double> penalties{0.0, 0.25, 0.5, 1.0, 2.0};
  const std::size_t main_cells = penalties.size() * kMainTasks;
  // The d sweep runs d = 1..per at the middle penalty; its rows continue
  // the CRN row numbering after the main table's.
  const double d_sweep_penalty = penalties[2];
  const std::size_t d_rows = static_cast<std::size_t>(per);
  // The exact cross-check gets a dedicated zero-penalty cell at its own
  // (milder) load: the reference solver is truncated, and at per-rack
  // sizes the truncation mass is negligible only up to moderate rho.
  const bool have_check = per <= 4;
  const std::size_t check_cell = main_cells + d_rows * kDTasks;
  const std::size_t total_cells = check_cell + (have_check ? 1 : 0);

  const auto topology_of = [&](double p) {
    rlb::sim::Topology topo;
    topo.racks = racks;
    if (kind == "latency")
      topo.cross_latency = p;
    else
      topo.cross_capacity = 1.0 / (1.0 + p);
    return topo;
  };
  const auto row_of = [&](std::size_t i) {
    if (i >= check_cell) return penalties.size() + d_rows;
    return i < main_cells ? i / kMainTasks
                          : penalties.size() + (i - main_cells) / kDTasks;
  };

  // Cell values are {mean delay, p99 sojourn}.
  const auto cells = ctx.map_cells(
      total_cells,
      [&](std::size_t i) {
        // One seed per row shared across the policy columns (common
        // random numbers), so `task` must join the key alongside the
        // full topology coordinates.
        auto key = ctx.cell_key("rack_locality",
                                rlb::engine::cell_seed(seed, row_of(i)));
        const bool check = i >= check_cell;
        const bool main = i < main_cells;
        const std::size_t task = check ? 2
                                 : main ? i % kMainTasks
                                        : (i - main_cells) % kDTasks;
        key.set("racks", racks);
        key.set("per_rack", per);
        key.set("rho", check ? check_rho : rho);
        key.set("jobs", jobs);
        key.set("penalty_kind", kind);
        key.set("penalty", !check && main ? penalties[i / kMainTasks]
                           : check       ? 0.0
                                         : d_sweep_penalty);
        key.set("d", check  ? d
                    : main ? d
                           : static_cast<int>((i - main_cells) / kDTasks) + 1);
        key.set("table", check ? "zero_penalty_check"
                        : main ? "main"
                               : "d_sweep");
        key.set("task", static_cast<std::uint64_t>(task));
        return key;
      },
      [&](std::size_t i) {
        using namespace rlb::sim;
        const bool check = i >= check_cell;
        const bool main = i < main_cells;
        const std::size_t task = check ? 2
                                 : main ? i % kMainTasks
                                        : (i - main_cells) % kDTasks;
        const double penalty = check  ? 0.0
                               : main ? penalties[i / kMainTasks]
                                      : d_sweep_penalty;
        const int cell_d =
            check  ? d
            : main ? d
                   : static_cast<int>((i - main_cells) / kDTasks) + 1;
        ClusterConfig cfg;
        cfg.servers = n;
        cfg.topology = topology_of(penalty);
        const auto arr = make_exponential((check ? check_rho : rho) * n);
        RenewalArrivals arrivals(*arr);
        const auto svc = make_exponential(1.0);
        const auto policy = make_main_policy(n, racks, cell_d, task);
        const auto plan =
            ctx.plan(rlb::engine::cell_seed(seed, row_of(i)), jobs, jobs / 10);
        const ClusterResult res =
            simulate_cluster(cfg, *policy, arrivals, *svc, plan, ctx.budget());
        rlb::engine::CellRecord rec;
        rec.values = {res.mean_sojourn, res.p99_sojourn};
        if (adaptive) rec.report = res.adaptive;
        return rec;
      });

  ScenarioOutput out;
  out.preamble =
      "Rack locality: " + std::to_string(racks) + " racks x " +
      std::to_string(per) + " servers, d = " + std::to_string(d) +
      ", rho = " + rlb::util::fmt(rho, 2) + ", cross-rack penalty as " +
      kind + ", M/M service, DES with " +
      (adaptive ? "adaptive (--target-ci) run lengths"
                : std::to_string(jobs) + " jobs") +
      ".";

  std::vector<std::string> header{
      "penalty",          "sq(d)",        "rack-sq(d)",   "rack-local",
      "jiq",              "rack-jiq",     "sq(d) p99",    "rack-sq(d) p99",
      "rack-local p99",   "jiq p99",      "rack-jiq p99"};
  if (adaptive) rlb::engine::add_adaptive_columns(header);
  auto& table = out.add_table("main", header);
  for (std::size_t r = 0; r < penalties.size(); ++r) {
    std::vector<std::string> row{rlb::util::fmt(penalties[r], 2)};
    for (std::size_t task = 0; task < kMainTasks; ++task)
      row.push_back(
          rlb::util::fmt(cells[r * kMainTasks + task].values[0], 3));
    for (std::size_t task = 0; task < kMainTasks; ++task)
      row.push_back(
          rlb::util::fmt(cells[r * kMainTasks + task].values[1], 3));
    if (adaptive) {
      auto report = rlb::sim::AdaptiveReport::row_identity();
      for (std::size_t task = 0; task < kMainTasks; ++task)
        report.combine(cells[r * kMainTasks + task].report);
      rlb::engine::add_adaptive_cells(row, report);
    }
    table.add_row(std::move(row));
  }

  // At zero penalty the no-spill policy partitions the cluster into
  // `racks` independent SQ(d) systems of `per` servers, so the paper's
  // exact solver (viable for per <= 4) predicts its delay. The check
  // runs at --check-rho, where the solver's truncation mass is
  // negligible at cap_for(per).
  if (have_check) {
    auto& check = out.add_table(
        "zero_penalty_check",
        {"per-rack n", "d", "rho", "exact delay", "rack-local sim",
         "rel err"});
    const int d_eff = std::min(d, per);
    const auto exact = rlb::sqd::solve_exact_truncated(
        rlb::sqd::Params{per, d_eff, check_rho, 1.0}, cap_for(per));
    const double sim = cells[check_cell].values[0];
    const double rel =
        std::abs(sim - exact.mean_delay) / exact.mean_delay;
    check.add_row({std::to_string(per), std::to_string(d_eff),
                   rlb::util::fmt(check_rho, 2),
                   rlb::util::fmt(exact.mean_delay, 4),
                   rlb::util::fmt(sim, 4), rlb::util::fmt(rel, 4)});
  } else {
    out.note(
        "zero-penalty exact cross-check skipped: per-rack size > 4 is "
        "out of the exact solver's reach");
  }

  std::vector<std::string> d_header{"d", "sq(d)", "rack-sq(d)",
                                    "rack-local"};
  if (adaptive) rlb::engine::add_adaptive_columns(d_header);
  auto& d_table = out.add_table("d_sweep", d_header);
  for (std::size_t r = 0; r < d_rows; ++r) {
    std::vector<std::string> row{std::to_string(static_cast<int>(r) + 1)};
    for (std::size_t task = 0; task < kDTasks; ++task)
      row.push_back(rlb::util::fmt(
          cells[main_cells + r * kDTasks + task].values[0], 3));
    if (adaptive) {
      auto report = rlb::sim::AdaptiveReport::row_identity();
      for (std::size_t task = 0; task < kDTasks; ++task)
        report.combine(cells[main_cells + r * kDTasks + task].report);
      rlb::engine::add_adaptive_cells(row, report);
    }
    d_table.add_row(std::move(row));
  }
  out.note("d_sweep runs at penalty " + rlb::util::fmt(d_sweep_penalty, 2) +
           " (" + kind + ").");
  if (adaptive) out.note(rlb::engine::adaptive_note("every simulated cell"));
  out.postamble =
      "Expected shape: at zero penalty locality costs nothing (rack-local "
      "equals per-rack\nSQ(d), the exact column); as the penalty grows, "
      "blind policies pay it on most\ndispatches while locality-aware "
      "variants contain it — the power of d survives\ninside the rack.";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "rack_locality",
    "Extension: racked clusters, blind vs locality-aware SQ(d)/JIQ delay and "
    "p99 vs cross-rack penalty and d, with an exact zero-penalty cross-check",
    {{"racks", "number of equal racks", "4"},
     {"per-rack", "servers per rack", "4"},
     {"d", "polled servers per dispatch", "2"},
     {"rho", "offered load per server", "0.85"},
     {"jobs", "simulated jobs per cell", "400000"},
     {"penalty-kind", "cross-rack penalty: latency | capacity", "latency"},
     {"check-rho",
      "load for the zero-penalty exact cross-check (kept where the "
      "truncated solver is sharp)",
      "0.70"},
     {"seed", "base RNG seed; per-row seeds are derived from it", "99"}},
    run}};

}  // namespace
