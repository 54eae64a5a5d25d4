#include "sim/trace.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/require.h"

namespace rlb::sim {

namespace {

[[noreturn]] void bad_line(int line, const std::string& what,
                           const std::string& text) {
  std::ostringstream os;
  os << "trace line " << line << ": " << what << " — \"" << text << "\"";
  throw std::invalid_argument(os.str());
}

/// Strip a trailing comment and surrounding whitespace; commas count as
/// field separators so CSV rows parse like whitespace-separated ones.
std::string clean_line(const std::string& raw) {
  std::string s = raw.substr(0, raw.find('#'));
  for (char& c : s)
    if (c == ',' || c == '\t' || c == '\r') c = ' ';
  const auto first = s.find_first_not_of(' ');
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(' ');
  return s.substr(first, last - first + 1);
}

/// Parse one finite double; rejects partial parses ("1.5x") and NaN/inf.
bool parse_finite(const std::string& token, double& out) {
  std::size_t used = 0;
  try {
    out = std::stod(token, &used);
  } catch (const std::exception&) {
    return false;
  }
  return used == token.size() && std::isfinite(out);
}

}  // namespace

std::uint64_t Trace::total_jobs() const {
  std::uint64_t total = 0;
  for (const TraceEntry& e : entries) total += e.batch;
  return total;
}

double Trace::mean_rate() const {
  validate();
  return static_cast<double>(total_jobs()) / horizon;
}

void Trace::validate() const {
  RLB_REQUIRE(!entries.empty(), "trace holds no arrivals");
  double prev = 0.0;
  for (const TraceEntry& e : entries) {
    RLB_REQUIRE(std::isfinite(e.time) && e.time >= 0.0,
                "trace timestamps must be finite and non-negative");
    RLB_REQUIRE(e.time >= prev, "trace timestamps must be non-decreasing");
    RLB_REQUIRE(e.batch >= 1, "trace batch sizes must be >= 1");
    prev = e.time;
  }
  RLB_REQUIRE(std::isfinite(horizon) && horizon > 0.0,
              "trace horizon must be finite and positive");
  RLB_REQUIRE(horizon >= entries.back().time,
              "trace horizon must cover the last timestamp");
}

Trace parse_trace(std::istream& in) {
  Trace trace;
  double horizon = -1.0;  // unset; defaults to the last timestamp
  std::string raw;
  int line_no = 0;
  double prev_time = 0.0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string line = clean_line(raw);
    if (line.empty()) continue;

    if (line.rfind("horizon", 0) == 0) {
      const auto eq = line.find('=');
      if (eq == std::string::npos)
        bad_line(line_no, "horizon directive needs horizon=<value>", raw);
      double value = 0.0;
      if (!parse_finite(clean_line(line.substr(eq + 1)), value) ||
          value <= 0.0)
        bad_line(line_no, "horizon must be a finite positive number", raw);
      horizon = value;
      continue;
    }

    std::istringstream fields(line);
    std::string time_tok, batch_tok, extra_tok;
    fields >> time_tok >> batch_tok >> extra_tok;
    if (!extra_tok.empty())
      bad_line(line_no, "trailing field (expected <time> [<batch>])", raw);

    double time = 0.0;
    if (!parse_finite(time_tok, time))
      bad_line(line_no, "timestamp is not a finite number", raw);
    if (time < 0.0) bad_line(line_no, "timestamp is negative", raw);
    if (time < prev_time)
      bad_line(line_no, "timestamps must be non-decreasing", raw);
    prev_time = time;

    std::uint32_t batch = 1;
    if (!batch_tok.empty()) {
      double b = 0.0;
      if (!parse_finite(batch_tok, b) || b != std::floor(b) || b < 1.0 ||
          b > static_cast<double>(std::numeric_limits<std::uint32_t>::max()))
        bad_line(line_no, "batch must be an integer >= 1", raw);
      batch = static_cast<std::uint32_t>(b);
    }
    trace.entries.push_back(TraceEntry{time, batch});
  }
  RLB_REQUIRE(!trace.entries.empty(), "trace holds no arrivals");
  trace.horizon = horizon > 0.0 ? horizon : trace.entries.back().time;
  trace.validate();
  return trace;
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path);
  RLB_REQUIRE(in.good(), "cannot open trace file: " + path);
  try {
    return parse_trace(in);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void write_trace(std::ostream& out, const Trace& trace) {
  trace.validate();
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  if (trace.horizon != trace.entries.back().time)
    out << "horizon=" << trace.horizon << '\n';
  for (const TraceEntry& e : trace.entries)
    out << e.time << ' ' << e.batch << '\n';
}

}  // namespace rlb::sim
