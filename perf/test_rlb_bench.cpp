// Self-tests of rlb_bench's own logic: span self time, the quartile
// helpers, compare verdicts, result records, and each correctness check
// tripped by a doctored result.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "checks.h"
#include "report.h"
#include "trace.h"

namespace rlb::perf {
namespace {

Span span(std::uint64_t id, std::uint64_t parent, double t0, double t1) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = id == 1 ? "root" : "child";
  s.t0 = t0;
  s.t1 = t1;
  return s;
}

TEST(SelfTime, NestedChildIsSubtracted) {
  const auto self = self_times({span(1, 0, 0, 10), span(2, 1, 2, 5)});
  EXPECT_DOUBLE_EQ(self[0], 7.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  const auto self = self_times(
      {span(1, 0, 0, 10), span(2, 1, 2, 6), span(3, 1, 4, 8)});
  EXPECT_DOUBLE_EQ(self[0], 4.0);  // children cover [2, 8]
  EXPECT_DOUBLE_EQ(self[1], 4.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const auto self = self_times({span(1, 0, 0, 10), span(2, 1, 8, 12)});
  EXPECT_DOUBLE_EQ(self[0], 8.0);
}

TEST(SelfTime, GrandchildrenChargeOnlyTheirParent) {
  const auto self = self_times(
      {span(1, 0, 0, 10), span(2, 1, 1, 9), span(4, 2, 2, 3)});
  EXPECT_DOUBLE_EQ(self[0], 2.0);
  EXPECT_DOUBLE_EQ(self[1], 7.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
}

TEST(SelfTime, ByNameSumsSpansOfOneName) {
  const auto by_name = self_time_by_name(
      {span(1, 0, 0, 10), span(2, 1, 1, 2), span(3, 1, 4, 6)});
  EXPECT_DOUBLE_EQ(by_name.at("root"), 7.0);
  EXPECT_DOUBLE_EQ(by_name.at("child"), 3.0);
}

TEST(ScopedSpan, RecordsParentsOnlyWhileTracing) {
  drain_spans();
  { const ScopedSpan ignored("off", 0); }
  set_tracing(true);
  {
    const ScopedSpan outer("outer", 3);
    const ScopedSpan inner("inner", 3);
  }
  set_tracing(false);
  const std::vector<Span> spans = drain_spans();
  ASSERT_EQ(spans.size(), 2u);
  const bool inner_first = std::string(spans[0].name) == "inner";
  const Span& inner = inner_first ? spans[0] : spans[1];
  const Span& outer = inner_first ? spans[1] : spans[0];
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.cell, 3);
  EXPECT_LE(outer.t0, inner.t0);
  EXPECT_GE(outer.t1, inner.t1);
  EXPECT_TRUE(drain_spans().empty());
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  const Quartiles odd = quartiles({1.2, 0.9, 1.1, 1.0, 1.05, 0.95, 1.3, 0.8,
                                   1.15});
  EXPECT_NEAR(odd.q1, 0.925, 1e-12);
  EXPECT_NEAR(odd.q2, 1.05, 1e-12);
  EXPECT_NEAR(odd.q3, 1.175, 1e-12);
  const Quartiles two = quartiles({5.0, 7.0});
  EXPECT_DOUBLE_EQ(two.q1, 4.5);
  EXPECT_DOUBLE_EQ(two.q3, 7.5);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0}), 4.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(DigestTest, DependsOnValuesAndOrder) {
  Digest a, b, c;
  a.add(1.0);
  a.add(2.0);
  b.add(1.0);
  b.add(2.0);
  c.add(2.0);
  c.add(1.0);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_NE(a.hex(), c.hex());
  EXPECT_EQ(a.hex().size(), 16u);
}

std::vector<double> around(double center, double spread) {
  std::vector<double> v;
  for (int i = 0; i < 10; ++i)
    v.push_back(center * (1.0 + spread * ((i * 7) % 10 - 4.5) / 4.5));
  return v;
}

TEST(Verdict, TightEqualSetsAreSame) {
  EXPECT_EQ(verdict(around(10, 0.01), around(10, 0.01), false, 0.05), "same");
}

TEST(Verdict, WorseBeyondTheBound) {
  EXPECT_EQ(verdict(around(10, 0.01), around(11, 0.01), false, 0.05),
            "worse");
  // Higher-is-better metrics flip the direction.
  EXPECT_EQ(verdict(around(10, 0.01), around(9, 0.01), true, 0.05), "worse");
}

TEST(Verdict, SmallWorseningWithinTheBoundIsSame) {
  EXPECT_EQ(verdict(around(10, 0.01), around(10.3, 0.01), false, 0.05),
            "same");
}

TEST(Verdict, ConsistentGainIsBetter) {
  EXPECT_EQ(verdict(around(10, 0.01), around(9, 0.01), false, 0.05),
            "better");
}

TEST(Verdict, WideSpreadIsUnresolvedUnlessDominated) {
  EXPECT_EQ(verdict(around(10, 0.3), around(10, 0.01), false, 0.05),
            "unresolved");
  EXPECT_EQ(verdict(around(10, 0.3), around(1, 0.3), false, 0.05), "better");
}

RunRecord record(const std::string& workload, std::uint64_t seed, double wall,
                 const std::string& digest) {
  RunRecord r;
  r.workload = workload;
  r.seed = seed;
  r.digest = digest;
  r.correct = true;
  r.attempted = 4;
  r.metrics = {{"wall_s", wall, "s"}, {"peak_rss_mb", 100.0, "MB"}};
  return r;
}

BenchSpec spec() {
  BenchSpec s;
  s.workloads = {"w"};
  s.end_to_end = {{"wall_s", "s", false, 0.05},
                  {"peak_rss_mb", "MB", false, 0.05}};
  return s;
}

TEST(Compare, RowsPerWorkloadAndMetricWithVerdicts) {
  std::vector<RunRecord> a, b;
  const std::vector<double> wa = around(10, 0.01), wb = around(12, 0.01);
  for (std::size_t i = 0; i < wa.size(); ++i) {
    a.push_back(record("w", i, wa[i], "d" + std::to_string(i)));
    b.push_back(record("w", i, wb[i], "d" + std::to_string(i)));
  }
  RunRecord traced = record("w", 0, 99.0, "d0");
  traced.traced = true;
  b.push_back(traced);  // traced runs never enter the comparison
  const auto rows = compare_runs(a, b, spec());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].metric, "wall_s");
  EXPECT_EQ(rows[0].runs_b, 10u);
  EXPECT_NEAR(rows[0].rel_diff, 0.2, 1e-9);
  EXPECT_DOUBLE_EQ(rows[0].win_frac, 0.0);
  EXPECT_EQ(rows[0].verdict, "worse");
  EXPECT_EQ(rows[1].verdict, "same");
  std::size_t shared = 0;
  EXPECT_TRUE(digest_mismatches(a, b, shared).empty());
  EXPECT_EQ(shared, 10u);
  b[3].digest = "other";
  EXPECT_EQ(digest_mismatches(a, b, shared).size(), 1u);
}

TEST(Records, JsonRoundTripAndResultLine) {
  RunRecord r = record("w", 7, 1.25, "abc");
  r.failed = 1;
  const RunRecord back = run_record_from_json(to_json(r));
  EXPECT_EQ(back.workload, "w");
  EXPECT_EQ(back.seed, 7u);
  EXPECT_EQ(back.failed, 1u);
  ASSERT_NE(back.find("wall_s"), nullptr);
  EXPECT_DOUBLE_EQ(back.find("wall_s")->value, 1.25);
  EXPECT_EQ(result_line(r, {{"wall_s", "s", false, 0.05}}),
            "{\"correct\":true,\"attempted\":4,\"failed\":1,\"metrics\":"
            "{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}");
  EXPECT_THROW(result_line(r, {{"missing", "s", false, 0.05}}),
               std::invalid_argument);
  r.metrics[0].value = std::nan("");
  EXPECT_THROW(result_line(r, {{"wall_s", "s", false, 0.05}}),
               std::invalid_argument);
}

TEST(Records, SpecParsesBoundsAndDirections) {
  const BenchSpec s = parse_spec(
      R"({"workloads":[{"name":"a","why":"x"}],)"
      R"("end_to_end":[{"name":"wall_s","unit":"s","better":"lower",)"
      R"("bound":0.1}],)"
      R"("per_layer":[{"name":"r","unit":"ratio","better":"higher"}]})");
  ASSERT_EQ(s.end_to_end.size(), 1u);
  EXPECT_DOUBLE_EQ(s.end_to_end[0].bound, 0.1);
  EXPECT_FALSE(s.end_to_end[0].higher_is_better);
  EXPECT_TRUE(s.per_layer[0].higher_is_better);
  EXPECT_THROW(parse_spec(R"({"workloads":[]})"), std::invalid_argument);
}

// 9000 measured jobs at rate 9 span 1000 time units after a 100-unit
// warm-up; the measured window drains for 10 more, so L = lambda W / 1.01.
ClusterOutcome good_cluster() {
  ClusterOutcome c;
  c.mean_sojourn = 1.5;
  c.arrival_rate = 9.0;
  c.jobs_measured = 9000.0;
  c.warmup_jobs = 900.0;
  c.sim_time = 1110.0;
  c.mean_jobs_in_system = 13.5 / 1.01;
  c.adaptive = true;
  c.converged = true;
  c.half_width = 0.01;
  c.lower_bound = 1.45;
  return c;
}

TEST(ClusterChecks, GoodCellPasses) {
  EXPECT_TRUE(check_cluster(good_cluster()).empty());
}

TEST(ClusterChecks, EachDoctoredFieldTripsItsCheck) {
  ClusterOutcome c = good_cluster();
  c.mean_jobs_in_system = 13.5 * 1.05;
  EXPECT_EQ(check_cluster(c).size(), 1u);
  // A run short against its sojourn (warm-up residue above 1% of the
  // measured jobs) does not check Little's law.
  c.jobs_measured = 100.0;
  EXPECT_TRUE(check_cluster(c).empty());

  c = good_cluster();
  c.converged = false;
  EXPECT_EQ(check_cluster(c).size(), 1u);

  c = good_cluster();
  c.lower_bound = 1.6;  // above delay + 3 half-widths
  EXPECT_EQ(check_cluster(c).size(), 1u);

  c = good_cluster();
  c.expect_unit_delay = true;  // delay 1.5 is not within 1% of 1
  EXPECT_EQ(check_cluster(c).size(), 1u);
  c.mean_sojourn = 1.005;
  c.mean_jobs_in_system = 9.0 * 1.005;
  c.lower_bound.reset();
  EXPECT_TRUE(check_cluster(c).empty());
}

sqd::BoundResult solved(double delay) {
  sqd::BoundResult r;
  r.mean_delay = delay;
  r.total_probability = 1.0;
  r.r_residual = 1e-15;
  return r;
}

BoundOutcome good_bound() {
  BoundOutcome b;
  b.upper = solved(1.36);
  b.lower = solved(1.34569);
  b.improved = solved(1.34569);
  sqd::ExactResult e;
  e.mean_delay = 1.352;
  e.truncation_mass = 1e-8;
  b.exact = e;
  b.fast_delay = 1.3536;
  b.fast_ci = 0.011;
  return b;
}

TEST(BoundChecks, GoodCellPasses) {
  EXPECT_TRUE(check_bound(good_bound()).empty());
  BoundOutcome unstable = good_bound();
  unstable.upper.reset();  // an unstable upper bound is expected, not failed
  EXPECT_TRUE(check_bound(unstable).empty());
}

TEST(BoundChecks, EachDoctoredFieldTripsItsCheck) {
  BoundOutcome b = good_bound();
  b.lower->total_probability = 1.0 + 1e-6;
  EXPECT_EQ(check_bound(b).size(), 1u);

  b = good_bound();
  b.upper->r_residual = 1e-8;
  EXPECT_EQ(check_bound(b).size(), 1u);

  b = good_bound();
  b.improved.mean_delay = 1.34569 * (1 + 1e-6);
  EXPECT_EQ(check_bound(b).size(), 1u);

  b = good_bound();
  b.upper->mean_delay = 1.30;  // below the lower bound and the exact delay
  EXPECT_GE(check_bound(b).size(), 2u);

  b = good_bound();
  b.exact->truncation_mass = 1e-4;
  EXPECT_EQ(check_bound(b).size(), 1u);

  b = good_bound();
  b.exact->mean_delay = 1.40;
  EXPECT_EQ(check_bound(b).size(), 1u);

  b = good_bound();
  b.fast_delay = 1.20;
  EXPECT_EQ(check_bound(b).size(), 1u);

  b = good_bound();
  b.improved.mean_delay = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(check_bound(b).empty());
}

}  // namespace
}  // namespace rlb::perf
