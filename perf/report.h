// Summaries, result records and run-set comparison for rlb_bench.
//
// A run writes one RunRecord (JSON) per process; a run set is a directory
// of them. The medians and quartiles here follow Python's
// statistics.quantiles(values, n=4) ("exclusive" method), so numbers
// printed by --compare match any script that recomputes them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rlb::perf {

/// Quartiles by statistics.quantiles(v, n=4); q2 is the median. A single
/// value is its own quartiles. Requires a non-empty input.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);
double median(std::vector<double> values);

/// FNV-1a (64-bit) over the bytes of result doubles, in the order fed.
class Digest {
 public:
  void add(double x);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One metric as BENCHMARK.json declares it. `bound` is the relative
/// worsening allowed before a change counts as a regression (end-to-end
/// metrics only).
struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;
};

struct BenchSpec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

/// Parse BENCHMARK.json; throws std::invalid_argument when a required key
/// is missing or malformed.
BenchSpec parse_spec(const std::string& json_text);

/// What one rlb_bench process measured.
struct RunRecord {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::string digest;
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  [[nodiscard]] const Metric* find(const std::string& name) const;
};

std::string to_json(const RunRecord& r);
RunRecord run_record_from_json(const std::string& json_text);

/// The last stdout line of a run: correct, attempted, failed, and the
/// named metrics. Throws std::invalid_argument when `names` asks for a
/// metric the run did not produce.
std::string result_line(const RunRecord& r,
                        const std::vector<MetricSpec>& names);

/// One (workload, metric) row of a comparison of run set A (the parent)
/// with run set B (the change).
struct CompareRow {
  std::string workload;
  std::string metric;
  Quartiles a, b;
  std::size_t runs_a = 0, runs_b = 0;
  double rel_diff = 0.0;    ///< (median B - median A) / median A
  double bound = 0.0;
  double win_frac = 0.0;    ///< pairs (in run order) where B beat A
  std::string verdict;
};

/// The verdict for one row:
/// - "unresolved" when either set's relative IQR exceeds the bound, unless
///   every B run beats every A run ("better");
/// - otherwise "worse" when B's median is worse than A's by more than the
///   bound, "better" when B wins at least 9/10 of the pairs and the
///   medians differ by more than A's IQR, else "same".
/// "same", "better" and "worse" are resolved verdicts.
std::string verdict(const std::vector<double>& a, const std::vector<double>& b,
                    bool higher_is_better, double bound);

/// Compare every (workload, end-to-end metric) pair present in both sets.
/// Only untraced runs count; runs are paired in (seed, file) order.
std::vector<CompareRow> compare_runs(const std::vector<RunRecord>& a,
                                     const std::vector<RunRecord>& b,
                                     const BenchSpec& spec);

/// Runs of one workload at one seed must produce one digest, in either
/// set. Returns a line per (workload, seed) that produced several, and
/// sets `shared` to the number of (workload, seed) pairs both sets ran.
std::vector<std::string> digest_mismatches(const std::vector<RunRecord>& a,
                                           const std::vector<RunRecord>& b,
                                           std::size_t& shared);

/// Every RunRecord (*.json, traces excluded) in a directory, sorted by
/// workload, seed and file name.
std::vector<RunRecord> load_run_set(const std::string& dir);

}  // namespace rlb::perf
