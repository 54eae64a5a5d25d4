#include "engine/baseline.h"

#include "engine/json.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/require.h"

namespace rlb::engine {

namespace {

/// True when `s` parses as a finite double, mirroring the sink's
/// is_json_number notion of a numeric cell.
bool cell_as_number(const std::string& s, double& out) {
  if (s.empty()) return false;
  std::size_t consumed = 0;
  try {
    out = std::stod(s, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  return consumed == s.size() && std::isfinite(out);
}

void add_structure_mismatch(BaselineReport& report, const std::string& table,
                            const std::string& expected,
                            const std::string& actual) {
  report.ok = false;
  report.mismatches.push_back(BaselineMismatch{
      table, "", std::numeric_limits<std::size_t>::max(), expected, actual});
}

/// Split on commas, dropping empty parts; parts are returned verbatim.
std::vector<std::string> comma_parts(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    std::string part =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!part.empty()) parts.push_back(std::move(part));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

}  // namespace

double ToleranceSpec::for_column(const std::string& column) const {
  const auto it = by_column.find(column);
  return it == by_column.end() ? default_value : it->second;
}

ToleranceSpec ToleranceSpec::parse(const std::string& spec,
                                   double fallback) {
  ToleranceSpec out;
  out.default_value = fallback;
  for (const std::string& part : comma_parts(spec)) {
    const std::size_t eq = part.find('=');
    const std::string value_text =
        eq == std::string::npos ? part : part.substr(eq + 1);
    double value = 0.0;
    RLB_REQUIRE(cell_as_number(value_text, value) && value >= 0.0,
                "bad tolerance '" + part + "'");
    if (eq == std::string::npos)
      out.default_value = value;
    else
      out.by_column[part.substr(0, eq)] = value;
  }
  return out;
}

std::string BaselineReport::describe() const {
  std::ostringstream os;
  if (ok) {
    os << "baseline match: " << cells_compared << " cells within tolerance";
    return os.str();
  }
  os << "baseline DRIFT: " << mismatches.size() << " mismatch(es) over "
     << cells_compared << " compared cells";
  const std::size_t shown = std::min<std::size_t>(mismatches.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    const BaselineMismatch& m = mismatches[i];
    os << "\n  [" << m.table << "]";
    if (m.row != std::numeric_limits<std::size_t>::max())
      os << " row " << m.row << ", column '" << m.column << "'";
    os << ": baseline " << m.expected << ", got " << m.actual;
  }
  if (shown < mismatches.size())
    os << "\n  ... and " << (mismatches.size() - shown) << " more";
  return os.str();
}

BaselineReport compare_to_baseline(const ScenarioOutput& out,
                                   const std::string& baseline_json,
                                   const BaselineOptions& opts) {
  const json::Value root = json::parse(baseline_json);
  RLB_REQUIRE(root.kind == json::Value::Kind::Object,
              "baseline JSON: root must be an object");
  const auto* tables = root.find("tables");
  RLB_REQUIRE(tables != nullptr &&
                  tables->kind == json::Value::Kind::Array,
              "baseline JSON: missing 'tables' array");

  BaselineReport report;
  if (tables->items.size() != out.tables.size()) {
    add_structure_mismatch(report, "<document>",
                           std::to_string(tables->items.size()) + " tables",
                           std::to_string(out.tables.size()) + " tables");
    return report;
  }

  for (std::size_t t = 0; t < out.tables.size(); ++t) {
    const NamedTable& actual = out.tables[t];
    const json::Value& ref = tables->items[t];
    RLB_REQUIRE(ref.kind == json::Value::Kind::Object,
                "baseline JSON: table entry must be an object");
    const auto* name = ref.find("name");
    const auto* header = ref.find("header");
    const auto* rows = ref.find("rows");
    RLB_REQUIRE(name && name->kind == json::Value::Kind::String &&
                    header &&
                    header->kind == json::Value::Kind::Array &&
                    rows && rows->kind == json::Value::Kind::Array,
                "baseline JSON: table needs name/header/rows");

    if (name->text != actual.name) {
      add_structure_mismatch(report, actual.name, "table '" + name->text + "'",
                             "table '" + actual.name + "'");
      continue;
    }
    const auto& actual_header = actual.table.header();
    bool header_matches = header->items.size() == actual_header.size();
    for (std::size_t c = 0; header_matches && c < actual_header.size(); ++c)
      header_matches = header->items[c].kind ==
                           json::Value::Kind::String &&
                       header->items[c].text == actual_header[c];
    if (!header_matches) {
      add_structure_mismatch(report, actual.name, "a different header",
                             "header drift");
      continue;
    }
    const auto& actual_rows = actual.table.data();
    if (rows->items.size() != actual_rows.size()) {
      add_structure_mismatch(
          report, actual.name,
          std::to_string(rows->items.size()) + " rows",
          std::to_string(actual_rows.size()) + " rows");
      continue;
    }

    for (std::size_t r = 0; r < actual_rows.size(); ++r) {
      const json::Value& ref_row = rows->items[r];
      RLB_REQUIRE(ref_row.kind == json::Value::Kind::Array &&
                      ref_row.items.size() == actual_rows[r].size(),
                  "baseline JSON: row arity drift in '" + actual.name + "'");
      for (std::size_t c = 0; c < actual_rows[r].size(); ++c) {
        const std::string& column = actual_header[c];
        const json::Value& ref_cell = ref_row.items[c];
        const std::string& actual_cell = actual_rows[r][c];
        ++report.cells_compared;

        double actual_num = 0.0;
        const bool actual_is_num = cell_as_number(actual_cell, actual_num);
        if (ref_cell.kind == json::Value::Kind::Number &&
            actual_is_num) {
          const double diff = std::abs(actual_num - ref_cell.number);
          const double bound = opts.atol.for_column(column) +
                               opts.rtol.for_column(column) *
                                   std::abs(ref_cell.number);
          if (diff <= bound) continue;
          report.ok = false;
          report.mismatches.push_back(BaselineMismatch{
              actual.name, column, r, ref_cell.text, actual_cell});
        } else {
          const std::string& ref_text = ref_cell.text;
          const bool same =
              ref_cell.kind == json::Value::Kind::String
                  ? ref_cell.text == actual_cell
                  : ref_cell.kind == json::Value::Kind::Number &&
                        ref_cell.text == actual_cell;
          if (same) continue;
          report.ok = false;
          report.mismatches.push_back(BaselineMismatch{
              actual.name, column, r, "'" + ref_text + "'",
              "'" + actual_cell + "'"});
        }
      }
    }
  }
  return report;
}

std::string read_text_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  RLB_REQUIRE(f.good(), "cannot open file: " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

}  // namespace rlb::engine
