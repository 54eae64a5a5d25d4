#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "util/cli.h"
#include "util/table.h"

namespace {

using rlb::util::Cli;
using rlb::util::Table;

TEST(Table, AlignsColumns) {
  Table t({"rho", "delay"});
  t.add_row({"0.5", "1.25"});
  t.add_row({"0.95", "10.5"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("rho"), std::string::npos);
  EXPECT_NE(s.find("10.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumericRowsFormatted) {
  Table t({"x", "y"});
  t.add_row_numeric({1.23456, 2.0}, 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
  Table t({"n", "value"});
  t.add_row({"1", "2.5"});
  const std::string path = ::testing::TempDir() + "/rlb_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "n,value");
  EXPECT_EQ(row, "1,2.5");
  std::remove(path.c_str());
}

Cli make_cli(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& s : storage) argv.push_back(s.data());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
  const Cli cli = make_cli({"--rho=0.9", "--jobs=1000"});
  EXPECT_DOUBLE_EQ(cli.get_double("rho", 0.0), 0.9);
  EXPECT_EQ(cli.get_int("jobs", 0), 1000);
}

TEST(Cli, ParsesSpaceForm) {
  const Cli cli = make_cli({"--name", "panel-a"});
  EXPECT_EQ(cli.get("name", ""), "panel-a");
}

TEST(Cli, BooleanFlag) {
  const Cli cli = make_cli({"--full"});
  EXPECT_TRUE(cli.get_bool("full"));
  EXPECT_FALSE(cli.get_bool("absent"));
}

TEST(Cli, DefaultsApply) {
  const Cli cli = make_cli({});
  EXPECT_DOUBLE_EQ(cli.get_double("rho", 0.75), 0.75);
}

/// Expects `get` to throw std::invalid_argument naming --`flag`.
void expect_rejected(const std::function<void()>& get,
                     const std::string& flag) {
  try {
    get();
    ADD_FAILURE() << "--" << flag << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--" + flag), std::string::npos)
        << e.what();
  }
}

TEST(Cli, IntegersParseInFullAndFitTheirType) {
  const Cli cli = make_cli({"--jobs=20000", "--seed=18446744073709551615",
                            "--n=-3", "--time-reps", "7"});
  EXPECT_EQ(cli.get_int<std::uint64_t>("jobs", 0), 20000u);
  EXPECT_EQ(cli.get_int<std::uint64_t>("seed", 0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(cli.get_int<int>("n", 0), -3);
  EXPECT_EQ(cli.get_int<int>("time-reps", 3), 7);
  EXPECT_EQ(cli.get_int<int>("absent", 5), 5);
  EXPECT_EQ(cli.get_int("jobs", 0), 20000);  // T defaults to int64
}

TEST(Cli, MalformedIntegersNameTheirFlag) {
  // Each of these used to run something other than what was asked: -1
  // wrapped to 2^64 - 1 jobs, 1e6 read as 1, 20000abc as 20000, 12.9 as
  // 12, and the int casts truncated 4294967306 to 10 and 4294967297 to 1.
  const Cli cli = make_cli({"--jobs=-1", "--steps=1e6", "--arrivals=20000abc",
                            "--n=12.9", "--d=4294967306",
                            "--replicas=4294967297", "--seed=+5", "--t"});
  for (const char* flag : {"jobs", "steps", "arrivals", "seed"})
    expect_rejected([&] { (void)cli.get_int<std::uint64_t>(flag, 0); }, flag);
  for (const char* flag : {"n", "d", "replicas", "t"})
    expect_rejected([&] { (void)cli.get_int<int>(flag, 0); }, flag);
  expect_rejected([&] { (void)cli.get_int("arrivals", 0); }, "arrivals");
}

TEST(Cli, DoublesMustBeFiniteAndParseInFull) {
  const Cli cli = make_cli({"--rho=0.9x", "--a=nan", "--b=inf", "--c=1e999",
                            "--d=", "--e=2.5e-1"});
  for (const char* flag : {"rho", "a", "b", "c"})
    expect_rejected([&] { (void)cli.get_double(flag, 0.0); }, flag);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 0.5), 0.5);  // empty: the default
  EXPECT_DOUBLE_EQ(cli.get_double("e", 0.0), 0.25);
}

TEST(Cli, BooleansAcceptOnlyTheSixSpellings) {
  const Cli cli = make_cli({"--a=true", "--b=1", "--c=yes", "--d=false",
                            "--e=0", "--f=no", "--full=ture"});
  for (const char* flag : {"a", "b", "c"}) EXPECT_TRUE(cli.get_bool(flag));
  for (const char* flag : {"d", "e", "f"})
    EXPECT_FALSE(cli.get_bool(flag, true));
  // --full=ture used to read as false and run the default scale.
  expect_rejected([&] { (void)cli.get_bool("full"); }, "full");
}

TEST(Cli, FinishRejectsUnknownFlags) {
  const Cli cli = make_cli({"--typo=1"});
  EXPECT_THROW(cli.finish(), std::invalid_argument);
}

TEST(Cli, FinishAcceptsQueriedFlags) {
  const Cli cli = make_cli({"--rho=0.5"});
  (void)cli.get_double("rho", 0.0);
  EXPECT_NO_THROW(cli.finish());
}

}  // namespace
