// The result cache's correctness bar (docs/CACHING.md): stable semantic
// keys, lossless record round-trips, corrupted/mismatched entries
// discarded, and a record that hits only at its own precision target.
#include "engine/result_cache.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using rlb::engine::CacheKey;
using rlb::engine::CellRecord;
using rlb::engine::encode_record;
using rlb::engine::kResultCacheVersion;
using rlb::engine::parse_record;
using rlb::engine::ResultCache;

CacheKey sample_key() {
  CacheKey key("power_of_d");
  key.set("rho", 0.9);
  key.set("n", 10);
  key.set("seed", std::uint64_t{12345});
  return key;
}

TEST(CacheKey, StableUnderParameterReordering) {
  CacheKey a("scenario");
  a.set("alpha", 1.5);
  a.set("beta", 2);
  a.set("gamma", std::uint64_t{7});

  CacheKey b("scenario");
  b.set("gamma", std::uint64_t{7});
  b.set("alpha", 1.5);
  b.set("beta", 2);

  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(CacheKey, DistinguishesScenarioParamsAndValues) {
  CacheKey a("s1");
  a.set("x", 1);
  CacheKey b("s2");
  b.set("x", 1);
  CacheKey c("s1");
  c.set("x", 2);
  CacheKey d("s1");
  d.set("y", 1);
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_NE(a.canonical(), c.canonical());
  EXPECT_NE(a.canonical(), d.canonical());
}

TEST(CacheKey, LastSetOfANameWins) {
  CacheKey a("s");
  a.set("x", 1);
  a.set("x", 2);
  CacheKey b("s");
  b.set("x", 2);
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(CacheKey, DoubleValuesKeyExactly) {
  // %.17g: nextafter-distinct doubles must produce distinct keys.
  const double x = 0.1;
  const double y = std::nextafter(x, 1.0);
  CacheKey a("s");
  a.set("x", x);
  CacheKey b("s");
  b.set("x", y);
  EXPECT_NE(a.canonical(), b.canonical());
}

TEST(CacheKey, TopologyCoordinatesProduceDistinctKeys) {
  // rack_locality keys its cells on the full topology coordinates; every
  // knob a cell's simulation depends on must move the canonical key.
  const auto racked = [](int racks, const std::string& kind, double penalty,
                         std::uint64_t task) {
    CacheKey key("rack_locality");
    key.set("racks", racks);
    key.set("penalty_kind", kind);
    key.set("penalty", penalty);
    key.set("task", task);
    return key;
  };
  const CacheKey base = racked(4, "latency", 0.5, 1);
  EXPECT_NE(base.canonical(), racked(2, "latency", 0.5, 1).canonical());
  EXPECT_NE(base.canonical(), racked(4, "capacity", 0.5, 1).canonical());
  EXPECT_NE(base.canonical(), racked(4, "latency", 0.25, 1).canonical());
  EXPECT_NE(base.canonical(), racked(4, "latency", 0.5, 2).canonical());
  EXPECT_EQ(base.canonical(), racked(4, "latency", 0.5, 1).canonical());
}

TEST(CacheKey, DigestIs32HexChars) {
  const std::string d = sample_key().digest();
  EXPECT_EQ(d.size(), 32u);
  EXPECT_EQ(d.find_first_not_of("0123456789abcdef"), std::string::npos);
}

CellRecord sample_record() {
  CellRecord rec;
  rec.values = {1.0 / 3.0, 1e300, 5e-324,
                std::numeric_limits<double>::infinity(),
                -std::numeric_limits<double>::infinity()};
  rec.report.rounds = 3;
  rec.report.jobs_used = (std::uint64_t{1} << 60) + 12345;  // beyond 2^53
  rec.report.half_width = 0.0123456789012345678;
  rec.report.converged = true;
  rec.target_ci = 0.05;
  return rec;
}

TEST(CellRecord, RoundTripsThroughJsonExactly) {
  const CacheKey key = sample_key();
  const CellRecord rec = sample_record();
  const std::string text = encode_record(key, rec);
  const auto parsed = parse_record(key, text);
  ASSERT_TRUE(parsed.has_value()) << text;

  // Encode-of-parse is byte-identical: nothing is lost or reformatted.
  EXPECT_EQ(encode_record(key, *parsed), text);

  ASSERT_EQ(parsed->values.size(), rec.values.size());
  for (std::size_t i = 0; i < rec.values.size(); ++i)
    EXPECT_EQ(parsed->values[i], rec.values[i]) << i;
  EXPECT_EQ(parsed->report.rounds, rec.report.rounds);
  EXPECT_EQ(parsed->report.jobs_used, rec.report.jobs_used);
  EXPECT_EQ(parsed->report.half_width, rec.report.half_width);
  EXPECT_EQ(parsed->report.converged, rec.report.converged);
  EXPECT_EQ(parsed->target_ci, rec.target_ci);

  // Members the record does not define, such as the "round_state" that
  // earlier builds wrote, are ignored.
  std::string extended = text;
  extended.insert(extended.size() - 1, ",\"round_state\":{\"rounds\":1}");
  const auto lenient = parse_record(key, extended);
  ASSERT_TRUE(lenient.has_value()) << extended;
  EXPECT_EQ(encode_record(key, *lenient), text);
}

TEST(CellRecord, NanValueSurvivesTheRoundTrip) {
  CellRecord rec;
  rec.values = {std::numeric_limits<double>::quiet_NaN()};
  const CacheKey key = sample_key();
  const auto parsed = parse_record(key, encode_record(key, rec));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->values.size(), 1u);
  EXPECT_TRUE(std::isnan(parsed->values[0]));
}

TEST(CellRecord, CorruptEntriesAreRejectedNotThrown) {
  const CacheKey key = sample_key();
  const std::string good = encode_record(key, sample_record());
  ASSERT_TRUE(parse_record(key, good).has_value());

  // Truncation at any prefix must reject, never throw.
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, good.size() / 2,
                          good.size() - 1})
    EXPECT_FALSE(parse_record(key, good.substr(0, len)).has_value()) << len;

  EXPECT_FALSE(parse_record(key, "not json at all").has_value());
  EXPECT_FALSE(parse_record(key, "{}").has_value());

  // Version-stamp mismatch: a record from a different engine version.
  std::string stale = good;
  const std::string version = kResultCacheVersion;
  const auto at = stale.find(version);
  ASSERT_NE(at, std::string::npos);
  stale.replace(at, version.size(), "rlb-cache-v0");
  EXPECT_FALSE(parse_record(key, stale).has_value());

  // Key mismatch (digest collision / copied file): embedded canonical
  // key differs from the probe's.
  CacheKey other("power_of_d");
  other.set("rho", 0.95);
  EXPECT_FALSE(parse_record(other, good).has_value());

  // A round count beyond INT_MAX.
  const std::string field = "\"report\":{\"rounds\":3,";
  std::string huge = good;
  const auto pos = huge.find(field);
  ASSERT_NE(pos, std::string::npos) << field;
  huge.replace(pos + field.size() - 2, 1, "2147483648");
  EXPECT_FALSE(parse_record(key, huge).has_value());
}

class ResultCacheDir : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test AND process: ctest -j runs each test in its own
    // process, so a shared name would race between concurrent tests.
    dir_ = ::testing::TempDir() + "rlb_result_cache_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ResultCacheDir, StoreThenLookupHitsAtTheSameTarget) {
  ResultCache cache(dir_);
  const CacheKey key = sample_key();
  cache.store(key, sample_record());
  EXPECT_EQ(cache.stored(), 1u);

  const auto hit = cache.lookup(key, 0.05);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->values.size(), 5u);
  EXPECT_EQ(cache.hits(), 1u);

  // A record answers only its own target: tighter, looser and fixed
  // budget (0) all miss, and none of them discards the intact entry.
  for (const double other : {0.01, 0.10, 0.0})
    EXPECT_FALSE(cache.lookup(key, other).has_value()) << other;
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.discarded(), 0u);

  // The recomputed cell overwrites the record at the new target.
  CellRecord tighter = sample_record();
  tighter.target_ci = 0.01;
  cache.store(key, tighter);
  EXPECT_TRUE(cache.lookup(key, 0.01).has_value());
  EXPECT_FALSE(cache.lookup(key, 0.05).has_value());
}

TEST_F(ResultCacheDir, CorruptedFileIsDiscardedAndOverwritable) {
  ResultCache cache(dir_);
  const CacheKey key = sample_key();
  cache.store(key, sample_record());

  // Clobber the one record file on disk.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream f(entry.path(), std::ios::trunc);
    f << "{\"version\":\"rlb-cache-v1\",\"key\":\"trunc";
    ++files;
  }
  ASSERT_EQ(files, 1u);

  EXPECT_FALSE(cache.lookup(key, 0.05).has_value());
  EXPECT_EQ(cache.discarded(), 1u);

  // The recompute-and-store path heals the entry.
  cache.store(key, sample_record());
  EXPECT_TRUE(cache.lookup(key, 0.05).has_value());
}

TEST_F(ResultCacheDir, RecordOfThePreviousEngineVersionIsRecomputed) {
  // rlb-cache-v1 records hold the event loop's numbers for exponential
  // cells, which now run the memoryless loop on another stream.
  {
    ResultCache writer(dir_);
    writer.store(sample_key(), sample_record());
  }
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::string text;
    {
      std::ifstream in(entry.path());
      std::getline(in, text);
    }
    const std::string version = kResultCacheVersion;
    const auto at = text.find(version);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, version.size(), "rlb-cache-v1");
    std::ofstream(entry.path(), std::ios::trunc) << text << "\n";
    ++files;
  }
  ASSERT_EQ(files, 1u);

  ResultCache cache(dir_);
  EXPECT_FALSE(cache.lookup(sample_key(), 0.05).has_value());
  EXPECT_EQ(cache.discarded(), 1u);
  cache.store(sample_key(), sample_record());
  EXPECT_TRUE(cache.lookup(sample_key(), 0.05).has_value());
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(ResultCacheDir, OpeningAndLookingUpCreateNothing) {
  // rlb_run opens the cache before it rejects unknown flags; a refused
  // command line must not leave the directory behind.
  ResultCache cache(dir_);
  EXPECT_FALSE(cache.lookup(sample_key(), 0.05).has_value());
  EXPECT_FALSE(std::filesystem::exists(dir_));
  cache.store(sample_key(), sample_record());
  EXPECT_TRUE(std::filesystem::is_directory(dir_));
  EXPECT_TRUE(cache.lookup(sample_key(), 0.05).has_value());
}

TEST_F(ResultCacheDir, SummaryLineReportsAllCounters) {
  ResultCache cache(dir_);
  cache.store(sample_key(), sample_record());
  (void)cache.lookup(sample_key(), 0.05);
  EXPECT_EQ(cache.summary(),
            "cache summary: hits=1 misses=0 discarded=0 stored=1");
}

}  // namespace
