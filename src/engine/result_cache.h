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
// key: a record stores the target it satisfied plus the adaptive round
// state, so a run at a tighter target finds the looser entry at the same
// coordinates and resumes its round schedule (sim::simulate_cluster's
// `resume`) instead of starting over — bit-identical to a cold run,
// because round sizes depend only on the round index.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/cluster_sim.h"
#include "sim/replica.h"

namespace rlb::engine {

/// Engine-version stamp embedded in every record. Bump whenever ANY
/// change alters simulation output for unchanged parameters (RNG
/// streams, merge order, estimator defaults, record layout): stale
/// records are then discarded on load instead of resurrecting old
/// numbers.
inline constexpr const char* kResultCacheVersion = "rlb-cache-v1";

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

/// One cached cell: the scenario's output columns plus everything a
/// later, tighter run needs to resume the adaptive run.
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
  /// Adaptive round state for refinement; absent for
  /// fixed-budget cells and for scenarios that cannot checkpoint
  /// (windowed statistics, non-cluster cells).
  bool has_round_state = false;
  sim::ClusterRoundState round_state;
};

/// Serialize a record (with its key and the engine-version stamp) to the
/// on-disk JSON document.
std::string encode_record(const CacheKey& key, const CellRecord& record);

/// Parse an on-disk document back. Returns nullopt — never throws — when
/// the text is malformed, the version stamp differs, or the embedded
/// canonical key is not `key`'s (the discard-and-recompute contract).
std::optional<CellRecord> parse_record(const CacheKey& key,
                                       const std::string& text);

/// What the cache is allowed to do this run (--cache-mode).
enum class CacheMode {
  kReadWrite,  ///< default: serve hits, store recomputed cells
  kReadOnly,   ///< serve hits, never write (shared/CI caches)
  kRefresh,    ///< ignore existing entries, recompute, overwrite
};

/// One directory of cell records plus the run's hit/miss accounting.
/// Lookups and stores are serial by design — ScenarioContext::map_cells
/// does both outside its parallel region — so the class needs no locks.
class ResultCache {
 public:
  /// Opens (creating if needed) the cache directory.
  ResultCache(std::string dir, CacheMode mode);

  [[nodiscard]] CacheMode mode() const { return mode_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  struct Lookup {
    enum class Outcome {
      kHit,     ///< record satisfies the current target; reuse verbatim
      kRefine,  ///< looser-target record with round state; resume it
      kMiss,    ///< nothing usable; compute from scratch
    };
    Outcome outcome = Outcome::kMiss;
    CellRecord record;  ///< valid for kHit and kRefine
  };

  /// Decide what a cell can reuse. `target_ci` is the current run's
  /// precision target (0 = fixed budget); a record is a HIT when its
  /// stored target equals it, and a REFINE when the record's target is
  /// looser and it carries round state. kRefresh mode skips the read
  /// entirely (every cell recomputes); unusable records count as
  /// discarded and fall through to kMiss.
  Lookup lookup(const CacheKey& key, double target_ci);

  /// Persist a computed cell (no-op in kReadOnly mode). Writes to a temp
  /// file then renames, so a crashed run leaves no truncated record.
  void store(const CacheKey& key, const CellRecord& record);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t refined() const { return refined_; }
  [[nodiscard]] std::uint64_t discarded() const { return discarded_; }
  [[nodiscard]] std::uint64_t stored() const { return stored_; }

  /// The run-summary line rlb_run prints:
  /// "cache summary: hits=H misses=M refined=R discarded=D stored=S".
  [[nodiscard]] std::string summary() const;

 private:
  [[nodiscard]] std::string path_of(const CacheKey& key) const;

  std::string dir_;
  CacheMode mode_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t refined_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t stored_ = 0;
};

/// Parse a --cache-mode value; throws std::invalid_argument on anything
/// but "readwrite" / "readonly" / "refresh".
CacheMode parse_cache_mode(const std::string& text);

/// Coherence check for the cache flag family: --cache-mode only
/// configures the result cache, so without --cache=DIR it used to be
/// consumed silently and do nothing. Returns the error message for that
/// misuse, or an empty string when the combination is coherent.
std::string cache_cli_error(bool has_cache, bool has_cache_mode);

}  // namespace rlb::engine
