// Tiny command-line flag parser shared by the bench/example binaries.
//
// Supports --name=value, --name value, and boolean --name forms. Unknown
// flags are an error so typos in experiment scripts fail loudly, and so
// are values that do not parse in full: every typed getter throws
// std::invalid_argument naming the flag rather than run with a value
// other than the one asked for.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

namespace rlb::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def) const;
  /// A finite number; NaN, inf and trailing characters are rejected.
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  /// A base-10 integer that fits T, so an unsigned T (counts, seeds)
  /// rejects negatives; "1e6", "12.9" and "20000abc" are rejected too.
  /// `def` does not deduce T: spell it, as in get_int<int>("n", 10).
  template <typename T = std::int64_t>
  [[nodiscard]] T get_int(const std::string& name,
                          std::common_type_t<T> def) const;
  /// true/1/yes or false/0/no; a bare --name reads as true.
  [[nodiscard]] bool get_bool(const std::string& name, bool def = false) const;

  /// Names seen on the command line that were never queried; used by
  /// finish() to reject typos.
  void finish() const;

 private:
  void mark_queried(const std::string& name) const;
  [[noreturn]] static void reject(const std::string& name,
                                  const std::string& value,
                                  const std::string& expected);

  std::map<std::string, std::string> values_;
  // The queried-flag bookkeeping mutates under const getters; the mutex
  // keeps reads safe from scenario sweep cells running on worker threads.
  mutable std::mutex queried_mutex_;
  mutable std::map<std::string, bool> queried_;
};

template <typename T>
T Cli::get_int(const std::string& name, std::common_type_t<T> def) const {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  const std::string s = get(name, "");
  if (s.empty()) return def;
  T value{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end)
    reject(name, s,
           "an integer in [" +
               std::to_string(std::numeric_limits<T>::min()) + ", " +
               std::to_string(std::numeric_limits<T>::max()) + "]");
  return value;
}

}  // namespace rlb::util
