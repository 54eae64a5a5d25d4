// Property tests for the engine's JSON reader/writer (engine/json.h).
// The result cache's bit-identity contract rests on two invariants
// checked here over randomized inputs: encode(parse(s)) == s for
// anything encode() emits (numbers re-emit their verbatim token), and
// parse(encode(tree)) reproduces the tree for any tree the builders can
// construct — including string escapes, control bytes, deep nesting,
// subnormal/huge doubles, and uint64 counters beyond 2^53.
#include "engine/json.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using rlb::engine::json::encode;
using rlb::engine::json::make_bool;
using rlb::engine::json::make_number;
using rlb::engine::json::make_string;
using rlb::engine::json::number_of;
using rlb::engine::json::parse;
using rlb::engine::json::uint64_of;
using rlb::engine::json::Value;

/// splitmix64: the repo's standard deterministic test stream.
std::uint64_t next_random(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double random_double(std::uint64_t& state) {
  switch (next_random(state) % 8) {
    case 0:  // uniform in (0, 1)
      return static_cast<double>(next_random(state) >> 11) * 0x1.0p-53;
    case 1:  // large magnitude
      return 1e300 * (static_cast<double>(next_random(state) >> 11) *
                          0x1.0p-53 -
                      0.5);
    case 2:  // subnormal neighbourhood
      return 5e-324 * static_cast<double>(next_random(state) % 1000);
    case 3:  // negative moderate
      return -static_cast<double>(next_random(state) % 1'000'000) / 7.0;
    case 4:  // exact small integer
      return static_cast<double>(next_random(state) % 100);
    case 5:  // reinterpret random bits, rerolling non-finite patterns
    {
      for (;;) {
        const std::uint64_t bits = next_random(state);
        double x;
        std::memcpy(&x, &bits, sizeof x);
        if (std::isfinite(x)) return x;
      }
    }
    case 6:
      return std::numeric_limits<double>::max();
    default:
      return std::numeric_limits<double>::denorm_min();
  }
}

std::string random_string(std::uint64_t& state) {
  const std::size_t len = next_random(state) % 24;
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    switch (next_random(state) % 6) {
      case 0:  // printable ASCII
        out.push_back(static_cast<char>(' ' + next_random(state) % 95));
        break;
      case 1:  // named escapes
        out.push_back("\"\\\n\t\r\b\f"[next_random(state) % 7]);
        break;
      case 2:  // raw control byte (\u00XX path)
        out.push_back(static_cast<char>(next_random(state) % 0x20));
        break;
      case 3:  // high/latin-1 byte
        out.push_back(static_cast<char>(0x80 + next_random(state) % 0x80));
        break;
      default:
        out.push_back(static_cast<char>('a' + next_random(state) % 26));
    }
  }
  return out;
}

/// A random Value tree the builders could have produced. `depth` bounds
/// recursion; leaves dominate so trees stay small but varied.
Value random_tree(std::uint64_t& state, int depth) {
  const std::uint64_t pick = next_random(state) % (depth > 0 ? 8 : 5);
  switch (pick) {
    case 0:
      return Value{};  // null
    case 1:
      return make_bool((next_random(state) & 1) != 0);
    case 2:
      return make_string(random_string(state));
    case 3:
      return make_number(random_double(state));
    case 4:
      // uint64 counters, biased to the >2^53 range the double path loses
      return make_number(
          static_cast<std::uint64_t>(next_random(state) | (1ull << 60)));
    case 5: {
      Value arr;
      arr.kind = Value::Kind::Array;
      const std::size_t n = next_random(state) % 4;
      for (std::size_t i = 0; i < n; ++i)
        arr.items.push_back(random_tree(state, depth - 1));
      return arr;
    }
    default: {
      Value obj;
      obj.kind = Value::Kind::Object;
      const std::size_t n = next_random(state) % 4;
      for (std::size_t i = 0; i < n; ++i)
        obj.members.emplace_back("k" + std::to_string(i) +
                                     random_string(state),
                                 random_tree(state, depth - 1));
      return obj;
    }
  }
}

void expect_same_tree(const Value& a, const Value& b) {
  ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
  switch (a.kind) {
    case Value::Kind::Null:
      break;
    case Value::Kind::Bool:
      EXPECT_EQ(a.boolean, b.boolean);
      break;
    case Value::Kind::Number:
      EXPECT_EQ(a.text, b.text);  // verbatim token survives
      if (std::isnan(a.number))
        EXPECT_TRUE(std::isnan(b.number));
      else
        EXPECT_EQ(a.number, b.number);  // bitwise-equal double
      break;
    case Value::Kind::String:
      EXPECT_EQ(a.text, b.text);
      break;
    case Value::Kind::Array:
      ASSERT_EQ(a.items.size(), b.items.size());
      for (std::size_t i = 0; i < a.items.size(); ++i)
        expect_same_tree(a.items[i], b.items[i]);
      break;
    case Value::Kind::Object:
      ASSERT_EQ(a.members.size(), b.members.size());
      for (std::size_t i = 0; i < a.members.size(); ++i) {
        EXPECT_EQ(a.members[i].first, b.members[i].first);
        expect_same_tree(a.members[i].second, b.members[i].second);
      }
      break;
  }
}

TEST(JsonRoundTrip, RandomTreesSurviveEncodeParseEncode) {
  std::uint64_t state = 0x1234'5678'9abc'def0ull;
  for (int trial = 0; trial < 500; ++trial) {
    const Value tree = random_tree(state, 4);
    const std::string text = encode(tree);
    Value reparsed;
    ASSERT_NO_THROW(reparsed = parse(text)) << "trial " << trial << ": "
                                            << text;
    {
      SCOPED_TRACE("trial " + std::to_string(trial) + ": " + text);
      expect_same_tree(tree, reparsed);
    }
    // The fixpoint property the result cache leans on: once through the
    // writer, the bytes are stable forever.
    EXPECT_EQ(encode(reparsed), text) << "trial " << trial;
  }
}

TEST(JsonRoundTrip, RandomDoublesRoundTripBitExactly) {
  std::uint64_t state = 0xfeed'face'cafe'beefull;
  for (int trial = 0; trial < 2000; ++trial) {
    const double x = random_double(state);
    const Value v = parse(encode(make_number(x)));
    EXPECT_EQ(number_of(v), x) << "trial " << trial << " x=" << x;
  }
}

TEST(JsonRoundTrip, NonFiniteDoublesUseTheStringSpellings) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(encode(make_number(inf)), "\"inf\"");
  EXPECT_EQ(encode(make_number(-inf)), "\"-inf\"");
  EXPECT_EQ(encode(make_number(std::numeric_limits<double>::quiet_NaN())),
            "\"nan\"");
  EXPECT_EQ(number_of(parse("\"inf\"")), inf);
  EXPECT_EQ(number_of(parse("\"-inf\"")), -inf);
  EXPECT_TRUE(std::isnan(number_of(parse("\"nan\""))));
}

TEST(JsonRoundTrip, Uint64CountersBeyondDoublePrecisionAreExact) {
  std::uint64_t state = 42;
  for (int trial = 0; trial < 500; ++trial) {
    const std::uint64_t x = next_random(state);
    const Value v = parse(encode(make_number(x)));
    EXPECT_EQ(uint64_of(v), x) << "trial " << trial;
  }
  // The canonical lossy-double witness: 2^53 + 1.
  const std::uint64_t odd = (1ull << 53) + 1;
  EXPECT_EQ(uint64_of(parse(encode(make_number(odd)))), odd);
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(uint64_of(parse(encode(make_number(top)))), top);
}

TEST(JsonNumbers, SubnormalAndExtremeTokensParse) {
  // glibc strtod flags subnormals ERANGE; the parser must accept them
  // (underflow is a faithful parse) while rejecting true overflow.
  EXPECT_EQ(parse("5e-324").number,
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse("4.9406564584124654e-324").number,
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse("1e-400").number, 0.0);  // underflow to zero: fine
  EXPECT_EQ(parse("1.7976931348623157e+308").number,
            std::numeric_limits<double>::max());
  EXPECT_THROW(parse("1e400"), std::invalid_argument);   // overflow
  EXPECT_THROW(parse("-1e400"), std::invalid_argument);
}

TEST(JsonNumbers, MalformedTokensAreRejected) {
  for (const char* bad : {"1e-", "1.2.3", "--1", "+1", ".", "1e", "-",
                          "01x", "0x10", "nan", "inf"})
    EXPECT_THROW(parse(bad), std::invalid_argument) << bad;
}

TEST(JsonNumbers, Uint64OfRejectsNonIntegerTokens) {
  EXPECT_THROW(uint64_of(parse("1.5")), std::invalid_argument);
  EXPECT_THROW(uint64_of(parse("-3")), std::invalid_argument);
  EXPECT_THROW(uint64_of(parse("1e3")), std::invalid_argument);
  EXPECT_THROW(uint64_of(parse("\"7\"")), std::invalid_argument);
  EXPECT_THROW(uint64_of(parse("18446744073709551616")),  // 2^64
               std::invalid_argument);
  EXPECT_EQ(uint64_of(parse("18446744073709551615")),     // 2^64 - 1
            std::numeric_limits<std::uint64_t>::max());
}

TEST(JsonNumbers, NumberOfRejectsNonNumericStrings) {
  EXPECT_THROW(number_of(parse("\"infinity\"")), std::invalid_argument);
  EXPECT_THROW(number_of(parse("true")), std::invalid_argument);
  EXPECT_THROW(number_of(parse("[1]")), std::invalid_argument);
}

TEST(JsonStrings, EscapeTortureRoundTrips) {
  const std::string torture =
      std::string("quote\" back\\slash nl\n tab\t cr\r bs\b ff\f nul") +
      '\0' + " bell\x07 high\xff end";
  const Value v = parse(encode(make_string(torture)));
  ASSERT_EQ(v.kind, Value::Kind::String);
  EXPECT_EQ(v.text, torture);
}

TEST(JsonDocuments, MalformedDocumentsThrowNotCrash) {
  for (const char* bad :
       {"", "{", "}", "[", "]", "{\"a\":}", "{\"a\" 1}", "[1,]", "[1 2]",
        "{\"a\":1,}", "\"unterminated", "\"bad\\escape\"", "tru", "nul",
        "[1]]", "{} extra", "\"\\u00\"", "\"\\u0100\""})
    EXPECT_THROW(parse(bad), std::invalid_argument) << bad;
}

TEST(JsonDocuments, FindReturnsMembersInDocumentOrder) {
  const Value v = parse("{\"a\":1,\"b\":[true,null],\"a\":2}");
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_EQ(v.find("b")->items.size(), 2u);
  EXPECT_EQ(v.find("a")->text, "1");  // first wins for duplicate keys
  EXPECT_EQ(v.find("missing"), nullptr);
}

}  // namespace
