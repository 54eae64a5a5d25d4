// Baseline regression checking for rlb_run.
//
// `rlb_run --scenario=X --baseline=ref.json` re-runs the scenario and
// diffs its tables against a committed reference produced earlier with
// `--json=ref.json`. Numeric cells compare within per-column absolute /
// relative tolerances, string cells must match exactly, and any drift is
// reported cell by cell with a non-zero exit — CI uses this to pin
// scenario runs to the committed reference tables in baselines/. Every
// column is compared: a round-off-sized column gets a per-column --atol.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "engine/sink.h"

namespace rlb::engine {

/// A tolerance with an optional per-column override, parsed from either a
/// plain number ("1e-6") or a comma-separated list of column overrides
/// with an optional default ("1e-6,delay=0.01,rho=0").
struct ToleranceSpec {
  double default_value = 0.0;
  std::map<std::string, double> by_column;

  [[nodiscard]] double for_column(const std::string& column) const;

  static ToleranceSpec parse(const std::string& spec, double fallback);
};

struct BaselineOptions {
  ToleranceSpec rtol;  ///< relative tolerance (vs the baseline magnitude)
  ToleranceSpec atol;  ///< absolute tolerance
};

struct BaselineMismatch {
  std::string table;
  std::string column;
  std::size_t row = 0;  ///< 0-based data row; SIZE_MAX for structure drift
  std::string expected;
  std::string actual;
};

struct BaselineReport {
  bool ok = true;
  std::size_t cells_compared = 0;
  std::vector<BaselineMismatch> mismatches;

  /// Human-readable multi-line summary (empty when ok and verbose off).
  [[nodiscard]] std::string describe() const;
};

/// Compare a scenario's output against baseline JSON text (the format
/// to_json emits). Table names, headers and row counts must match
/// exactly; cells compare per BaselineOptions. Throws std::invalid_argument
/// on malformed baseline JSON.
BaselineReport compare_to_baseline(const ScenarioOutput& out,
                                   const std::string& baseline_json,
                                   const BaselineOptions& opts);

/// Read a whole file into a string; throws std::invalid_argument when the
/// file cannot be opened.
std::string read_text_file(const std::string& path);

}  // namespace rlb::engine
