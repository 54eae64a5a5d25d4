#include "engine/result_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "engine/json.h"
#include "util/require.h"

namespace rlb::engine {

namespace {

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void CacheKey::set(const std::string& name, const std::string& value) {
  for (auto& [existing, v] : params_) {
    if (existing == name) {
      v = value;
      return;
    }
  }
  params_.emplace_back(name, value);
}

void CacheKey::set(const std::string& name, const char* value) {
  set(name, std::string(value));
}

void CacheKey::set(const std::string& name, double value) {
  set(name, format_double(value));
}

void CacheKey::set(const std::string& name, std::uint64_t value) {
  set(name, std::to_string(value));
}

void CacheKey::set(const std::string& name, std::int64_t value) {
  set(name, std::to_string(value));
}

void CacheKey::set(const std::string& name, int value) {
  set(name, std::to_string(value));
}

void CacheKey::set(const std::string& name, bool value) {
  set(name, std::string(value ? "1" : "0"));
}

std::string CacheKey::canonical() const {
  auto sorted = params_;
  std::sort(sorted.begin(), sorted.end());
  std::string out = scenario_;
  for (const auto& [name, value] : sorted) {
    out += '|';
    out += name;
    out += '=';
    out += value;
  }
  return out;
}

namespace {

/// 64-bit FNV-1a; `basis` varies so two passes give 128 digest bits.
std::uint64_t fnv1a(const std::string& s, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string CacheKey::digest() const {
  const std::string key = canonical();
  const std::uint64_t lo = fnv1a(key, 14695981039346656037ull);
  // Chain the first hash into the second pass's basis so the two words
  // decorrelate even for single-byte keys.
  const std::uint64_t hi = fnv1a(key, lo ^ 0x9e3779b97f4a7c15ull);
  return hex16(hi) + hex16(lo);
}

namespace {

const json::Value& member_of(const json::Value& v, const char* key) {
  const json::Value* found = v.find(key);
  if (found == nullptr)
    throw std::invalid_argument(std::string("cache record is missing '") +
                                key + "'");
  return *found;
}

/// A count the run stored from an `int`; larger values are corrupt.
int int_of(const json::Value& v, const char* key) {
  const std::uint64_t x = json::uint64_of(member_of(v, key));
  if (x > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    throw std::invalid_argument(std::string("cache record: '") + key +
                                "' exceeds INT_MAX");
  return static_cast<int>(x);
}

}  // namespace

std::string encode_record(const CacheKey& key, const CellRecord& record) {
  json::Value v;
  v.kind = json::Value::Kind::Object;
  v.members.emplace_back("version", json::make_string(kResultCacheVersion));
  v.members.emplace_back("key", json::make_string(key.canonical()));
  v.members.emplace_back("target_ci", json::make_number(record.target_ci));
  json::Value values;
  values.kind = json::Value::Kind::Array;
  values.items.reserve(record.values.size());
  for (const double x : record.values)
    values.items.push_back(json::make_number(x));
  v.members.emplace_back("values", std::move(values));
  json::Value report;
  report.kind = json::Value::Kind::Object;
  report.members.emplace_back(
      "rounds",
      json::make_number(static_cast<std::int64_t>(record.report.rounds)));
  report.members.emplace_back("jobs_used",
                              json::make_number(record.report.jobs_used));
  report.members.emplace_back("half_width",
                              json::make_number(record.report.half_width));
  report.members.emplace_back("converged",
                              json::make_bool(record.report.converged));
  v.members.emplace_back("report", std::move(report));
  return json::encode(v);
}

std::optional<CellRecord> parse_record(const CacheKey& key,
                                       const std::string& text) {
  try {
    const json::Value v = json::parse(text);
    if (v.kind != json::Value::Kind::Object) return std::nullopt;
    const json::Value& version = member_of(v, "version");
    if (version.kind != json::Value::Kind::String ||
        version.text != kResultCacheVersion)
      return std::nullopt;
    const json::Value& stored_key = member_of(v, "key");
    if (stored_key.kind != json::Value::Kind::String ||
        stored_key.text != key.canonical())
      return std::nullopt;
    CellRecord record;
    record.target_ci = json::number_of(member_of(v, "target_ci"));
    const json::Value& values = member_of(v, "values");
    if (values.kind != json::Value::Kind::Array) return std::nullopt;
    record.values.reserve(values.items.size());
    for (const json::Value& x : values.items)
      record.values.push_back(json::number_of(x));
    const json::Value& report = member_of(v, "report");
    record.report.rounds = int_of(report, "rounds");
    record.report.jobs_used =
        json::uint64_of(member_of(report, "jobs_used"));
    record.report.half_width =
        json::number_of(member_of(report, "half_width"));
    const json::Value& converged = member_of(report, "converged");
    if (converged.kind != json::Value::Kind::Bool) return std::nullopt;
    record.report.converged = converged.boolean;
    return record;
  } catch (const std::exception&) {
    // Malformed, truncated, or schema-drifted records all land here: the
    // cache's contract is discard-and-recompute, never failure.
    return std::nullopt;
  }
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  RLB_REQUIRE(!dir_.empty(), "cache directory must be non-empty");
}

std::string ResultCache::path_of(const CacheKey& key) const {
  return dir_ + "/" + key.digest() + ".json";
}

std::optional<CellRecord> ResultCache::lookup(const CacheKey& key,
                                              double target_ci) {
  std::ifstream f(path_of(key));
  if (!f.good()) {
    ++misses_;
    return std::nullopt;
  }
  std::ostringstream text;
  text << f.rdbuf();
  std::optional<CellRecord> record = parse_record(key, text.str());
  if (!record) {
    ++discarded_;
    ++misses_;
    return std::nullopt;
  }
  if (record->target_ci != target_ci) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return record;
}

void ResultCache::store(const CacheKey& key, const CellRecord& record) {
  std::filesystem::create_directories(dir_);
  const std::string path = path_of(key);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    RLB_REQUIRE(f.good(), "cannot write cache record: " + tmp);
    f << encode_record(key, record) << "\n";
    RLB_REQUIRE(f.good(), "short write on cache record: " + tmp);
  }
  std::filesystem::rename(tmp, path);
  ++stored_;
}

std::string ResultCache::summary() const {
  std::ostringstream os;
  os << "cache summary: hits=" << hits_ << " misses=" << misses_
     << " discarded=" << discarded_ << " stored=" << stored_;
  return os.str();
}

}  // namespace rlb::engine
