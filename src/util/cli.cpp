#include "util/cli.h"

#include <cmath>
#include <stdexcept>

#include "util/require.h"

namespace rlb::util {

Cli::Cli(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    RLB_REQUIRE(a.rfind("--", 0) == 0, "flags must start with --: " + a);
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      values_[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      values_[a.substr(2)] = args[i + 1];
      ++i;
    } else {
      values_[a.substr(2)] = "true";
    }
  }
}

void Cli::mark_queried(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(queried_mutex_);
  queried_[name] = true;
}

bool Cli::has(const std::string& name) const {
  mark_queried(name);
  return values_.count(name) > 0;
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  mark_queried(name);
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

double Cli::get_double(const std::string& name, double def) const {
  const std::string s = get(name, "");
  if (s.empty()) return def;
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != s.size() || !std::isfinite(value))
    reject(name, s, "a finite number");
  return value;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  const std::string s = get(name, "");
  if (s.empty()) return def;
  if (s == "true" || s == "1" || s == "yes") return true;
  if (s == "false" || s == "0" || s == "no") return false;
  reject(name, s, "true, false, 1, 0, yes or no");
}

void Cli::reject(const std::string& name, const std::string& value,
                 const std::string& expected) {
  throw std::invalid_argument("--" + name + " expects " + expected +
                              ", got '" + value + "'");
}

void Cli::finish() const {
  const std::lock_guard<std::mutex> lock(queried_mutex_);
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!queried_.count(name))
      throw std::invalid_argument("unknown flag: --" + name);
  }
}

}  // namespace rlb::util
