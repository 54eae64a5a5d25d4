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

json::Value encode_moments(const sim::MomentsState& s) {
  json::Value v;
  v.kind = json::Value::Kind::Object;
  v.members.emplace_back("count", json::make_number(s.count));
  v.members.emplace_back("mean", json::make_number(s.mean));
  v.members.emplace_back("m2", json::make_number(s.m2));
  v.members.emplace_back("min", json::make_number(s.min));
  v.members.emplace_back("max", json::make_number(s.max));
  return v;
}

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

sim::MomentsState parse_moments(const json::Value& v) {
  sim::MomentsState s;
  s.count = json::uint64_of(member_of(v, "count"));
  s.mean = json::number_of(member_of(v, "mean"));
  s.m2 = json::number_of(member_of(v, "m2"));
  s.min = json::number_of(member_of(v, "min"));
  s.max = json::number_of(member_of(v, "max"));
  return s;
}

json::Value encode_round_state(const sim::ClusterRoundState& s) {
  json::Value v;
  v.kind = json::Value::Kind::Object;
  v.members.emplace_back(
      "rounds", json::make_number(static_cast<std::int64_t>(s.rounds)));
  v.members.emplace_back("jobs_used", json::make_number(s.jobs_used));
  v.members.emplace_back("batch", json::make_number(s.batch));
  v.members.emplace_back("sojourn", encode_moments(s.sojourn));
  v.members.emplace_back("wait", encode_moments(s.wait));
  json::Value ci;
  ci.kind = json::Value::Kind::Object;
  ci.members.emplace_back("batch_size",
                          json::make_number(s.sojourn_ci.batch_size));
  ci.members.emplace_back("in_batch",
                          json::make_number(s.sojourn_ci.in_batch));
  ci.members.emplace_back("batch_sum",
                          json::make_number(s.sojourn_ci.batch_sum));
  ci.members.emplace_back("batch_means",
                          encode_moments(s.sojourn_ci.batch_means));
  v.members.emplace_back("sojourn_ci", std::move(ci));
  json::Value q;
  q.kind = json::Value::Kind::Object;
  q.members.emplace_back("capacity",
                         json::make_number(s.sojourn_quantiles.capacity));
  q.members.emplace_back("seen", json::make_number(s.sojourn_quantiles.seen));
  q.members.emplace_back("rng_state",
                         json::make_number(s.sojourn_quantiles.rng_state));
  json::Value sample;
  sample.kind = json::Value::Kind::Array;
  sample.items.reserve(s.sojourn_quantiles.sample.size());
  for (const double x : s.sojourn_quantiles.sample)
    sample.items.push_back(json::make_number(x));
  q.members.emplace_back("sample", std::move(sample));
  v.members.emplace_back("quantiles", std::move(q));
  v.members.emplace_back("area_jobs", json::make_number(s.area_jobs));
  v.members.emplace_back("busy_area", json::make_number(s.busy_area));
  v.members.emplace_back("window", json::make_number(s.window));
  v.members.emplace_back("sim_time", json::make_number(s.sim_time));
  v.members.emplace_back("sla_violations",
                         json::make_number(s.sla_violations));
  v.members.emplace_back("sla_threshold",
                         json::make_number(s.sla_threshold));
  return v;
}

sim::ClusterRoundState parse_round_state(const json::Value& v) {
  sim::ClusterRoundState s;
  s.rounds = int_of(v, "rounds");
  s.jobs_used = json::uint64_of(member_of(v, "jobs_used"));
  s.batch = json::uint64_of(member_of(v, "batch"));
  s.sojourn = parse_moments(member_of(v, "sojourn"));
  s.wait = parse_moments(member_of(v, "wait"));
  const json::Value& ci = member_of(v, "sojourn_ci");
  s.sojourn_ci.batch_size = json::uint64_of(member_of(ci, "batch_size"));
  s.sojourn_ci.in_batch = json::uint64_of(member_of(ci, "in_batch"));
  s.sojourn_ci.batch_sum = json::number_of(member_of(ci, "batch_sum"));
  s.sojourn_ci.batch_means = parse_moments(member_of(ci, "batch_means"));
  const json::Value& q = member_of(v, "quantiles");
  s.sojourn_quantiles.capacity = json::uint64_of(member_of(q, "capacity"));
  s.sojourn_quantiles.seen = json::uint64_of(member_of(q, "seen"));
  s.sojourn_quantiles.rng_state = json::uint64_of(member_of(q, "rng_state"));
  const json::Value& sample = member_of(q, "sample");
  if (sample.kind != json::Value::Kind::Array)
    throw std::invalid_argument("cache record: 'sample' is not an array");
  s.sojourn_quantiles.sample.reserve(sample.items.size());
  for (const json::Value& x : sample.items)
    s.sojourn_quantiles.sample.push_back(json::number_of(x));
  s.area_jobs = json::number_of(member_of(v, "area_jobs"));
  s.busy_area = json::number_of(member_of(v, "busy_area"));
  s.window = json::number_of(member_of(v, "window"));
  s.sim_time = json::number_of(member_of(v, "sim_time"));
  s.sla_violations = json::uint64_of(member_of(v, "sla_violations"));
  s.sla_threshold = json::number_of(member_of(v, "sla_threshold"));
  // Reject a state no run writes: resuming from it would abort the run
  // instead of recomputing the cell.
  const sim::BatchMeansState& ci_state = s.sojourn_ci;
  const sim::ReservoirState& q_state = s.sojourn_quantiles;
  if (s.rounds < 1 || s.batch == 0 || s.batch != ci_state.batch_size ||
      ci_state.in_batch >= ci_state.batch_size || q_state.capacity == 0 ||
      q_state.sample.size() != std::min(q_state.seen, q_state.capacity))
    throw std::invalid_argument("cache record: inconsistent round state");
  return s;
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
  if (record.has_round_state)
    v.members.emplace_back("round_state",
                           encode_round_state(record.round_state));
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
    if (const json::Value* rs = v.find("round_state")) {
      record.round_state = parse_round_state(*rs);
      record.has_round_state = true;
    }
    return record;
  } catch (const std::exception&) {
    // Malformed, truncated, or schema-drifted records all land here: the
    // cache's contract is discard-and-recompute, never failure.
    return std::nullopt;
  }
}

ResultCache::ResultCache(std::string dir, CacheMode mode)
    : dir_(std::move(dir)), mode_(mode) {
  RLB_REQUIRE(!dir_.empty(), "cache directory must be non-empty");
  std::filesystem::create_directories(dir_);
}

std::string ResultCache::path_of(const CacheKey& key) const {
  return dir_ + "/" + key.digest() + ".json";
}

ResultCache::Lookup ResultCache::lookup(const CacheKey& key,
                                        double target_ci) {
  Lookup out;
  if (mode_ == CacheMode::kRefresh) {
    ++misses_;
    return out;
  }
  std::ifstream f(path_of(key));
  if (!f.good()) {
    ++misses_;
    return out;
  }
  std::ostringstream text;
  text << f.rdbuf();
  std::optional<CellRecord> record = parse_record(key, text.str());
  if (!record) {
    ++discarded_;
    ++misses_;
    return out;
  }
  if (record->target_ci == target_ci) {
    ++hits_;
    out.outcome = Lookup::Outcome::kHit;
    out.record = std::move(*record);
    return out;
  }
  // A looser-target adaptive record can seed a refinement; a tighter or
  // fixed-budget one cannot (resuming past the new stopping point would
  // not equal a cold run).
  if (target_ci > 0.0 && record->has_round_state &&
      record->target_ci > target_ci) {
    ++refined_;
    out.outcome = Lookup::Outcome::kRefine;
    out.record = std::move(*record);
    return out;
  }
  ++misses_;
  return out;
}

void ResultCache::store(const CacheKey& key, const CellRecord& record) {
  if (mode_ == CacheMode::kReadOnly) return;
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
     << " refined=" << refined_ << " discarded=" << discarded_
     << " stored=" << stored_;
  return os.str();
}

CacheMode parse_cache_mode(const std::string& text) {
  if (text == "readwrite") return CacheMode::kReadWrite;
  if (text == "readonly") return CacheMode::kReadOnly;
  if (text == "refresh") return CacheMode::kRefresh;
  throw std::invalid_argument(
      "--cache-mode must be 'readwrite', 'readonly', or 'refresh'");
}

std::string cache_cli_error(bool has_cache, bool has_cache_mode) {
  if (has_cache || !has_cache_mode) return {};
  return "--cache-mode requires --cache=DIR (it configures the result "
         "cache and does nothing without one)";
}

}  // namespace rlb::engine
