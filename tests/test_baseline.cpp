#include "engine/baseline.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "engine/sink.h"

namespace {

using rlb::engine::BaselineOptions;
using rlb::engine::BaselineReport;
using rlb::engine::compare_to_baseline;
using rlb::engine::ScenarioOutput;
using rlb::engine::to_json;
using rlb::engine::ToleranceSpec;

ScenarioOutput sample_output() {
  ScenarioOutput out;
  auto& table = out.add_table("main", {"rho", "delay", "status"});
  table.add_row({"0.50", "1.2500", "ok"});
  table.add_row({"0.90", "3.5000", "unstable"});
  auto& extra = out.add_table("extra", {"k", "p"});
  extra.add_row({"1", "0.125000"});
  return out;
}

TEST(ToleranceSpecTest, ParsesScalarsAndPerColumnOverrides) {
  const ToleranceSpec plain = ToleranceSpec::parse("0.01", 1e-9);
  EXPECT_DOUBLE_EQ(plain.for_column("anything"), 0.01);

  const ToleranceSpec mixed = ToleranceSpec::parse("1e-6,delay=0.05", 0.0);
  EXPECT_DOUBLE_EQ(mixed.for_column("rho"), 1e-6);
  EXPECT_DOUBLE_EQ(mixed.for_column("delay"), 0.05);

  const ToleranceSpec empty = ToleranceSpec::parse("", 1e-9);
  EXPECT_DOUBLE_EQ(empty.for_column("x"), 1e-9);

  EXPECT_THROW(ToleranceSpec::parse("delay=abc", 0.0),
               std::invalid_argument);
  EXPECT_THROW(ToleranceSpec::parse("-0.5", 0.0), std::invalid_argument);
}

TEST(Baseline, IdenticalOutputMatchesItsOwnJson) {
  const ScenarioOutput out = sample_output();
  const BaselineReport report =
      compare_to_baseline(out, to_json(out, "x"), BaselineOptions{});
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.cells_compared, 8u);
  EXPECT_NE(report.describe().find("baseline match"), std::string::npos);
}

TEST(Baseline, NumericDriftDetectedWithinAndBeyondTolerance) {
  const ScenarioOutput ref = sample_output();
  ScenarioOutput moved = sample_output();
  moved.tables[0].table = rlb::util::Table({"rho", "delay", "status"});
  moved.tables[0].table.add_row({"0.50", "1.2501", "ok"});  // +1e-4
  moved.tables[0].table.add_row({"0.90", "3.5000", "unstable"});

  BaselineOptions strict;
  const BaselineReport drift =
      compare_to_baseline(moved, to_json(ref, "x"), strict);
  EXPECT_FALSE(drift.ok);
  ASSERT_EQ(drift.mismatches.size(), 1u);
  EXPECT_EQ(drift.mismatches[0].table, "main");
  EXPECT_EQ(drift.mismatches[0].column, "delay");
  EXPECT_EQ(drift.mismatches[0].row, 0u);
  EXPECT_NE(drift.describe().find("DRIFT"), std::string::npos);

  BaselineOptions loose;
  loose.atol = ToleranceSpec::parse("0.001", 0.0);
  EXPECT_TRUE(compare_to_baseline(moved, to_json(ref, "x"), loose).ok);

  BaselineOptions per_column;
  per_column.rtol = ToleranceSpec::parse("delay=0.01", 0.0);
  EXPECT_TRUE(
      compare_to_baseline(moved, to_json(ref, "x"), per_column).ok);
}

TEST(Baseline, StringCellsCompareExactly) {
  const ScenarioOutput ref = sample_output();
  ScenarioOutput changed = sample_output();
  changed.tables[0].table = rlb::util::Table({"rho", "delay", "status"});
  changed.tables[0].table.add_row({"0.50", "1.2500", "ok"});
  changed.tables[0].table.add_row({"0.90", "3.5000", "stable"});
  const BaselineReport report =
      compare_to_baseline(changed, to_json(ref, "x"), BaselineOptions{});
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.mismatches.size(), 1u);
  EXPECT_EQ(report.mismatches[0].column, "status");
}

TEST(Baseline, StructureDriftIsReportedNotThrown) {
  const ScenarioOutput ref = sample_output();
  ScenarioOutput fewer_rows = sample_output();
  fewer_rows.tables[0].table = rlb::util::Table({"rho", "delay", "status"});
  fewer_rows.tables[0].table.add_row({"0.50", "1.2500", "ok"});
  EXPECT_FALSE(
      compare_to_baseline(fewer_rows, to_json(ref, "x"), BaselineOptions{})
          .ok);

  ScenarioOutput renamed = sample_output();
  renamed.tables[1].name = "renamed";
  EXPECT_FALSE(
      compare_to_baseline(renamed, to_json(ref, "x"), BaselineOptions{})
          .ok);
}

TEST(Baseline, MalformedJsonThrows) {
  const ScenarioOutput out = sample_output();
  EXPECT_THROW(compare_to_baseline(out, "{not json", BaselineOptions{}),
               std::invalid_argument);
  EXPECT_THROW(compare_to_baseline(out, "[]", BaselineOptions{}),
               std::invalid_argument);
  // A number token must parse in full — prefixes like "1e-" or "1.2.3"
  // must be rejected, not silently truncated.
  const std::string bad_number =
      "{\"scenario\":\"x\",\"tables\":[{\"name\":\"main\","
      "\"header\":[\"a\"],\"rows\":[[1.2.3]]}]}";
  EXPECT_THROW(compare_to_baseline(out, bad_number, BaselineOptions{}),
               std::invalid_argument);
}

TEST(Baseline, RoundTripsEscapedStrings) {
  // Control characters and quotes must survive sink -> parser intact.
  ScenarioOutput out;
  auto& table = out.add_table("esc", {"text"});
  table.add_row({"line\nbreak\ttab \"quote\" \x01 bell\x07 \b\f\r"});
  const BaselineReport report =
      compare_to_baseline(out, to_json(out, "x"), BaselineOptions{});
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.cells_compared, 1u);
}

TEST(Baseline, ReadTextFileErrors) {
  EXPECT_THROW(rlb::engine::read_text_file("/nonexistent/path.json"),
               std::invalid_argument);
}

}  // namespace
