#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "engine/json.h"

namespace rlb::perf {

namespace json = engine::json;

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles of no values");
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  if (ld == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive") with n = 4, integer math
  // exactly as CPython writes it.
  const std::size_t n = 4;
  const std::size_t m = ld + 1;
  double q[3];
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t j = i * m / n;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * n);
    q[i - 1] = (values[j - 1] * (static_cast<double>(n) - delta) +
                values[j] * delta) /
               static_cast<double>(n);
  }
  return {q[0], q[1], q[2]};
}

double median(std::vector<double> values) {
  return quartiles(std::move(values)).q2;
}

void Digest::add(double x) {
  unsigned char bytes[sizeof(double)];
  std::memcpy(bytes, &x, sizeof(double));
  for (unsigned char b : bytes) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

namespace {

const json::Value& member(const json::Value& v, const std::string& key) {
  const json::Value* m = v.find(key);
  if (m == nullptr) throw std::invalid_argument("missing JSON key: " + key);
  return *m;
}

const std::string& string_of(const json::Value& v, const std::string& key) {
  const json::Value& m = member(v, key);
  if (m.kind != json::Value::Kind::String)
    throw std::invalid_argument("JSON key is not a string: " + key);
  return m.text;
}

bool bool_of(const json::Value& v, const std::string& key) {
  const json::Value& m = member(v, key);
  if (m.kind != json::Value::Kind::Bool)
    throw std::invalid_argument("JSON key is not a boolean: " + key);
  return m.boolean;
}

const std::vector<json::Value>& array_of(const json::Value& v,
                                         const std::string& key) {
  const json::Value& m = member(v, key);
  if (m.kind != json::Value::Kind::Array)
    throw std::invalid_argument("JSON key is not an array: " + key);
  return m.items;
}

MetricSpec metric_spec(const json::Value& v, bool with_bound) {
  MetricSpec s;
  s.name = string_of(v, "name");
  s.unit = string_of(v, "unit");
  const std::string& better = string_of(v, "better");
  if (better != "higher" && better != "lower")
    throw std::invalid_argument("metric " + s.name +
                                ": better must be higher or lower");
  s.higher_is_better = better == "higher";
  if (with_bound) s.bound = json::number_of(member(v, "bound"));
  return s;
}

json::Value object(std::vector<std::pair<std::string, json::Value>> members) {
  json::Value v;
  v.kind = json::Value::Kind::Object;
  v.members = std::move(members);
  return v;
}

json::Value metrics_object(const std::vector<Metric>& metrics) {
  std::vector<std::pair<std::string, json::Value>> members;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value))
      throw std::invalid_argument("metric " + m.name + " is not finite");
    members.emplace_back(
        m.name, object({{"value", json::make_number(m.value)},
                        {"unit", json::make_string(m.unit)}}));
  }
  return object(std::move(members));
}

/// Relative distance of x from base; the end-to-end metrics are never 0,
/// so the zero guard only keeps a malformed record from dividing by 0.
double relative(double x, double base) {
  if (base == 0.0)
    return x == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return x / std::fabs(base);
}

/// Share of the pairs (a[i], b[i]) in which b is strictly better.
double win_fraction(const std::vector<double>& a, const std::vector<double>& b,
                    bool higher_is_better) {
  const std::size_t pairs = std::min(a.size(), b.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i)
    if (higher_is_better ? b[i] > a[i] : b[i] < a[i]) ++wins;
  return static_cast<double>(wins) / static_cast<double>(pairs);
}

}  // namespace

BenchSpec parse_spec(const std::string& json_text) {
  const json::Value root = json::parse(json_text);
  BenchSpec spec;
  for (const json::Value& w : array_of(root, "workloads"))
    spec.workloads.push_back(string_of(w, "name"));
  for (const json::Value& m : array_of(root, "end_to_end"))
    spec.end_to_end.push_back(metric_spec(m, true));
  for (const json::Value& m : array_of(root, "per_layer"))
    spec.per_layer.push_back(metric_spec(m, false));
  return spec;
}

const Metric* RunRecord::find(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::string to_json(const RunRecord& r) {
  return json::encode(
             object({{"workload", json::make_string(r.workload)},
                     {"seed", json::make_number(r.seed)},
                     {"traced", json::make_bool(r.traced)},
                     {"digest", json::make_string(r.digest)},
                     {"correct", json::make_bool(r.correct)},
                     {"attempted", json::make_number(r.attempted)},
                     {"failed", json::make_number(r.failed)},
                     {"metrics", metrics_object(r.metrics)}})) +
         "\n";
}

RunRecord run_record_from_json(const std::string& json_text) {
  const json::Value root = json::parse(json_text);
  RunRecord r;
  r.workload = string_of(root, "workload");
  r.seed = json::uint64_of(member(root, "seed"));
  r.traced = bool_of(root, "traced");
  r.digest = string_of(root, "digest");
  r.correct = bool_of(root, "correct");
  r.attempted = json::uint64_of(member(root, "attempted"));
  r.failed = json::uint64_of(member(root, "failed"));
  for (const auto& [name, m] : member(root, "metrics").members)
    r.metrics.push_back(
        {name, json::number_of(member(m, "value")), string_of(m, "unit")});
  return r;
}

std::string result_line(const RunRecord& r,
                        const std::vector<MetricSpec>& names) {
  std::vector<Metric> chosen;
  for (const MetricSpec& s : names) {
    const Metric* m = r.find(s.name);
    if (m == nullptr)
      throw std::invalid_argument("run produced no metric named " + s.name);
    chosen.push_back(*m);
  }
  return json::encode(object({{"correct", json::make_bool(r.correct)},
                              {"attempted", json::make_number(r.attempted)},
                              {"failed", json::make_number(r.failed)},
                              {"metrics", metrics_object(chosen)}}));
}

std::string verdict(const std::vector<double>& a, const std::vector<double>& b,
                    bool higher_is_better, double bound) {
  const Quartiles qa = quartiles(a);
  const Quartiles qb = quartiles(b);
  const auto beats = [&](double x, double y) {
    return higher_is_better ? x > y : x < y;
  };
  const double worst_b = higher_is_better
                             ? *std::min_element(b.begin(), b.end())
                             : *std::max_element(b.begin(), b.end());
  const double best_a = higher_is_better
                            ? *std::max_element(a.begin(), a.end())
                            : *std::min_element(a.begin(), a.end());
  const bool b_dominates = beats(worst_b, best_a);
  if (relative(qa.q3 - qa.q1, qa.q2) > bound ||
      relative(qb.q3 - qb.q1, qb.q2) > bound)
    return b_dominates ? "better" : "unresolved";
  const double change = relative(qb.q2 - qa.q2, qa.q2);
  const double worsening = higher_is_better ? -change : change;
  if (worsening > bound) return "worse";
  if (worsening < 0.0 && win_fraction(a, b, higher_is_better) >= 0.9 &&
      std::fabs(qb.q2 - qa.q2) > qa.q3 - qa.q1)
    return "better";
  return "same";
}

std::vector<CompareRow> compare_runs(const std::vector<RunRecord>& a,
                                     const std::vector<RunRecord>& b,
                                     const BenchSpec& spec) {
  const auto values = [](const std::vector<RunRecord>& set,
                         const std::string& workload,
                         const std::string& metric) {
    std::vector<double> out;
    for (const RunRecord& r : set)
      if (!r.traced && r.workload == workload)
        if (const Metric* m = r.find(metric)) out.push_back(m->value);
    return out;
  };
  std::vector<CompareRow> rows;
  for (const std::string& w : spec.workloads) {
    for (const MetricSpec& s : spec.end_to_end) {
      const std::vector<double> va = values(a, w, s.name);
      const std::vector<double> vb = values(b, w, s.name);
      if (va.empty() || vb.empty()) continue;
      CompareRow row;
      row.workload = w;
      row.metric = s.name;
      row.a = quartiles(va);
      row.b = quartiles(vb);
      row.runs_a = va.size();
      row.runs_b = vb.size();
      row.rel_diff = relative(row.b.q2 - row.a.q2, row.a.q2);
      row.bound = s.bound;
      row.win_frac = win_fraction(va, vb, s.higher_is_better);
      row.verdict = verdict(va, vb, s.higher_is_better, s.bound);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::vector<std::string> digest_mismatches(const std::vector<RunRecord>& a,
                                           const std::vector<RunRecord>& b,
                                           std::size_t& shared) {
  struct Seen {
    std::set<std::string> digests;
    bool in_a = false, in_b = false;
  };
  std::map<std::pair<std::string, std::uint64_t>, Seen> seen;
  for (const RunRecord& r : a) {
    Seen& s = seen[{r.workload, r.seed}];
    s.digests.insert(r.digest);
    s.in_a = true;
  }
  for (const RunRecord& r : b) {
    Seen& s = seen[{r.workload, r.seed}];
    s.digests.insert(r.digest);
    s.in_b = true;
  }
  shared = 0;
  std::vector<std::string> out;
  for (const auto& [key, s] : seen) {
    if (s.in_a && s.in_b) ++shared;
    if (s.digests.size() < 2) continue;
    std::string line = key.first + " seed " + std::to_string(key.second) + ":";
    for (const std::string& d : s.digests) line += " " + d;
    out.push_back(std::move(line));
  }
  return out;
}

std::vector<RunRecord> load_run_set(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, RunRecord>> found;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    const std::string suffix = ".json";
    if (!e.is_regular_file() || name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0 ||
        name.find(".trace.") != std::string::npos)
      continue;
    std::ifstream in(e.path());
    std::stringstream text;
    text << in.rdbuf();
    found.emplace_back(name, run_record_from_json(text.str()));
  }
  std::sort(found.begin(), found.end(), [](const auto& x, const auto& y) {
    return std::tie(x.second.workload, x.second.seed, x.first) <
           std::tie(y.second.workload, y.second.seed, y.first);
  });
  std::vector<RunRecord> out;
  for (auto& f : found) out.push_back(std::move(f.second));
  return out;
}

}  // namespace rlb::perf
