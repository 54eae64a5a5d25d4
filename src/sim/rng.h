// xoshiro256++ pseudo-random generator with splitmix64 seeding, plus the
// sampling primitives the simulators need. Deterministic across platforms
// (unlike std::*_distribution), which keeps simulation tests reproducible.
#pragma once

#include <cstdint>
#include <vector>

namespace rlb::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double();

  /// Uniform integer in [0, bound); bound > 0 (Lemire-style, unbiased via
  /// rejection).
  std::uint64_t uniform_int(std::uint64_t bound);

  /// Exponential with the given rate (> 0).
  double exponential(double rate);

  /// Standard normal (Marsaglia polar method).
  double normal();

  /// A decorrelated child generator (for independent streams).
  Rng split();

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// O(d) sampling of d distinct indices from {0, ..., n-1}, uniformly
/// without replacement — a partial Fisher–Yates simulated sparsely.
///
/// A materialized shuffle array would be O(n) memory (4 MB per sampler
/// at n = 10^6, and every policy clone owns one); instead the sampler
/// exploits that the permutation is the identity at the start of every
/// call, so only the <= 2d slots the partial shuffle touches need
/// tracking. Same draws, same outputs as the materialized version.
class DistinctSampler {
 public:
  explicit DistinctSampler(int n);

  /// Fills `out` (resized to min(d, n)) with distinct uniform indices,
  /// consuming exactly min(d, n) uniform_int draws. d beyond the
  /// population clamps to a full enumeration rather than aborting:
  /// rack-local polls shrink the candidate pool below the configured d,
  /// and "poll everyone" is the right degenerate behavior there.
  void sample(int d, Rng& rng, std::vector<int>& out);

 private:
  int n_;
  /// Sparse view of the in-progress shuffle: slot touched_pos_[k]
  /// currently holds value touched_val_[k]; untouched slots hold their
  /// own index. Scratch, cleared per call; linear scans are O(d) with
  /// the small poll sizes the paper's policies use.
  std::vector<std::int32_t> touched_pos_;
  std::vector<std::int32_t> touched_val_;
};

}  // namespace rlb::sim
