// Minimal JSON reader/writer shared by the engine's file-handling tools
// (baseline regression checking, the result cache) and the benchmark's
// run records (perf/). Recursive descent over objects, arrays, strings
// with escapes, numbers, and true/false/null — sufficient for the
// documents to_json, the result cache and perf/ emit. The engine is not
// in the business of general JSON; anything outside this subset throws
// std::invalid_argument.
//
// The writer (encode) emits each Number's verbatim source token, so
// parse -> encode -> parse is lossless: the result cache depends on this
// for its bit-identity contract (a cache hit must reproduce a cold run's
// bytes exactly), which is why the round-trip is property-tested in
// tests/test_json.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rlb::engine::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  /// String kind's content; for Number, the verbatim source token (so
  /// callers can report or re-emit the exact text).
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parse a complete JSON document (no trailing content allowed); throws
/// std::invalid_argument on malformed input.
Value parse(const std::string& text);

/// Serialize a Value tree back to compact (whitespace-free) JSON.
/// Numbers are emitted as their verbatim `text` token — encode(parse(s))
/// preserves every number byte-for-byte — and strings are escaped the
/// same way the sink writer escapes them (named escapes for the common
/// control characters, \u00XX for the rest).
std::string encode(const Value& v);

/// `s` quoted and escaped as a JSON string literal (the writer used by
/// both encode() and the sink's to_json, so the two emit one spelling).
std::string quote(const std::string& s);

// Builders for programmatic documents (the result cache): each returns a
// self-contained Value of the matching kind.
Value make_string(std::string s);
Value make_bool(bool b);
/// Finite doubles render with %.17g (guaranteed exact round-trip through
/// a correctly-rounded strtod); non-finite values render as the strings
/// "inf" / "-inf" / "nan", which number_of() maps back.
Value make_number(double x);
/// Exact for the full uint64 range (the %.17g double path would lose
/// precision past 2^53 — job counters can credibly exceed that).
Value make_number(std::uint64_t x);
Value make_number(std::int64_t x);

/// Read back a make_number(double) value: a Number's parsed double, or
/// the non-finite spellings "inf" / "-inf" / "nan" as string values.
/// Throws std::invalid_argument for any other kind.
double number_of(const Value& v);
/// Read back a make_number(uint64) value exactly (re-parses the verbatim
/// token). Throws std::invalid_argument unless the value is a Number
/// holding an unsigned integer token.
std::uint64_t uint64_of(const Value& v);

}  // namespace rlb::engine::json
