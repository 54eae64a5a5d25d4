// Persistent result cache for sweep scenarios (docs/CACHING.md).
//
// A sweep cell is a pure function of its semantic coordinates: scenario
// name, cell parameters, seed, and the engine version. The cache stores
// one JSON record per cell under a digest filename; a warm re-run loads
// the record instead of simulating and reproduces the cold run's table
// BYTE-FOR-BYTE (doubles round-trip through %.17g, counters through
// verbatim decimal tokens). Records that fail to parse, carry a
// different engine-version stamp, or hold a different canonical key
// (digest collision or truncation) are discarded and recomputed — a
// corrupt cache can cost time, never correctness.
//
// The precision target (--target-ci) is deliberately NOT part of the
// key: a record stores the target it satisfied, and a lookup hits only
// when that target equals the run's. A record at any other target is a
// miss; the cell recomputes and the store overwrites the record.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/replica.h"

namespace rlb::engine {

/// Engine-version stamp embedded in every record. Bump whenever ANY
/// change alters simulation output for unchanged parameters (RNG
/// streams, merge order, estimator defaults, record layout): stale
/// records are then discarded on load instead of resurrecting old
/// numbers.
inline constexpr const char* kResultCacheVersion = "rlb-cache-v2";

/// Semantic coordinates of one sweep cell. Parameters canonicalize by
/// name (sorted, last set() of a name wins), so the key is stable under
/// parameter reordering; values are the exact strings produced by the
/// typed set() overloads, so equal inputs always canonicalize equally.
class CacheKey {
 public:
  explicit CacheKey(std::string scenario) : scenario_(std::move(scenario)) {}

  void set(const std::string& name, const std::string& value);
  void set(const std::string& name, const char* value);
  void set(const std::string& name, double value);  ///< %.17g (exact)
  void set(const std::string& name, std::uint64_t value);
  void set(const std::string& name, std::int64_t value);
  void set(const std::string& name, int value);
  void set(const std::string& name, bool value);

  /// The canonical key string: "scenario|name=value|..." with parameters
  /// sorted by name. Stored verbatim in the record for collision and
  /// truncation detection.
  [[nodiscard]] std::string canonical() const;

  /// 32-hex-digit digest of canonical() — the record's filename stem.
  /// Collisions are survivable (the stored canonical key disambiguates,
  /// colliding cells just recompute), so a fast FNV-style hash is fine.
  [[nodiscard]] std::string digest() const;

 private:
  std::string scenario_;
  std::vector<std::pair<std::string, std::string>> params_;
};

/// One cached cell: the scenario's output columns, the adaptive stopping
/// report, and the precision target they satisfied.
struct CellRecord {
  /// The cell's numeric output columns in scenario-defined order.
  std::vector<double> values;
  /// Stopping outcome of the adaptive run (zeroed for fixed-budget
  /// cells); scenarios surface half_width / jobs_used / converged from
  /// here.
  sim::AdaptiveReport report;
  /// The --target-ci this record satisfied; 0 marks a fixed-budget run.
  /// Not part of the key (see file comment) — the hit test compares it.
  double target_ci = 0.0;
};

/// Serialize a record (with its key and the engine-version stamp) to the
/// on-disk JSON document.
std::string encode_record(const CacheKey& key, const CellRecord& record);

/// Parse an on-disk document back. Returns nullopt — never throws — when
/// the text is malformed, the version stamp differs, or the embedded
/// canonical key is not `key`'s (the discard-and-recompute contract).
std::optional<CellRecord> parse_record(const CacheKey& key,
                                       const std::string& text);

/// One directory of cell records plus the run's hit/miss accounting.
/// Lookups and stores are serial by design — ScenarioContext::map_cells
/// does both outside its parallel region — so the class needs no locks.
class ResultCache {
 public:
  /// Opens the cache directory. Nothing touches the file system until the
  /// first store() creates the directory, so a run refused before it
  /// computes a cell leaves nothing behind.
  explicit ResultCache(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// The record for `key` when it satisfies the current run's precision
  /// target `target_ci` (0 = fixed budget): a HIT needs the stored target
  /// to equal it. A missing record, or one at any other target, is a
  /// miss; an unusable record also counts as discarded.
  std::optional<CellRecord> lookup(const CacheKey& key, double target_ci);

  /// Persist a computed cell, overwriting any record at its key and
  /// creating the directory if needed. Writes to a temp file then
  /// renames, so a crashed run leaves no truncated record.
  void store(const CacheKey& key, const CellRecord& record);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t discarded() const { return discarded_; }
  [[nodiscard]] std::uint64_t stored() const { return stored_; }

  /// The run-summary line rlb_run prints:
  /// "cache summary: hits=H misses=M discarded=D stored=S".
  [[nodiscard]] std::string summary() const;

 private:
  [[nodiscard]] std::string path_of(const CacheKey& key) const;

  std::string dir_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t stored_ = 0;
};

}  // namespace rlb::engine
