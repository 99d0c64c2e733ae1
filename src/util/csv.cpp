#include "util/csv.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "util/format.hpp"

namespace linesearch {
namespace {

/// Split one CSV line into fields, honoring RFC 4180 quoting (the inverse
/// of CsvWriter::escape; embedded newlines are not supported because no
/// writer in this library produces them inside numeric/series rows).
std::vector<std::string> split_csv_line(const std::string& line,
                                        const int line_number) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (quoted) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += ch;
      }
    } else if (ch == '"' && field.empty()) {
      quoted = true;
    } else if (ch == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += ch;
    }
  }
  expects(!quoted, [line_number] {
    return "csv: unterminated quote at line " + std::to_string(line_number);
  });
  fields.push_back(std::move(field));
  return fields;
}

}  // namespace

std::string encode_real_field(const Real value, const int digits) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  return sig(value, digits);
}

Real parse_real_field(const std::string_view field) {
  expects(!field.empty(), "csv: empty numeric field");
  // Legacy NaN marker of the human-facing tables (util/format renders
  // NaN as "-"); accept it so old table-derived CSVs stay readable.
  if (field == "-") return kNaN;
  // strtold reads a terminated copy; a field as short as every number
  // the writers emit stays on the stack.
  char small[64];
  std::string large;
  const char* begin = small;
  if (field.size() < sizeof small) {
    std::memcpy(small, field.data(), field.size());
    small[field.size()] = '\0';
  } else {
    large.assign(field);
    begin = large.c_str();
  }
  char* end = nullptr;
  const Real value = std::strtold(begin, &end);
  // strtold itself accepts "inf"/"infinity"/"nan" (any case, signed), so
  // the only job left is rejecting partial parses like "1.5x".
  expects(end != nullptr && *end == '\0', [field] {
    return "csv: malformed number '" + std::string(field) + "'";
  });
  return value;
}

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (const char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) *out_ << ',';
    *out_ << escape(fields[i]);
  }
  *out_ << '\n';
}

void write_series_csv(std::ostream& out, const std::vector<Series>& series) {
  CsvWriter csv(out);
  csv.write_row({"series", "x", "y"});
  for (const auto& s : series) {
    expects(s.x.size() == s.y.size(), "series x/y length mismatch");
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      csv.write_row({s.name, encode_real_field(s.x[i], 12),
                     encode_real_field(s.y[i], 12)});
    }
  }
}

std::vector<Series> read_series_csv(std::istream& in) {
  std::string line;
  expects(static_cast<bool>(std::getline(in, line)),
          "csv: empty series input");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  expects(line == "series,x,y", [&line] {
    return "csv: expected header 'series,x,y', got '" + line + "'";
  });

  std::vector<Series> series;
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_line(line, line_number);
    expects(fields.size() == 3, [line_number] {
      return "csv: expected 3 fields at line " + std::to_string(line_number);
    });

    Series* current = nullptr;
    for (Series& s : series) {
      if (s.name == fields[0]) {
        current = &s;
        break;
      }
    }
    if (current == nullptr) {
      series.push_back({fields[0], {}, {}});
      current = &series.back();
    }
    current->x.push_back(parse_real_field(fields[1]));
    current->y.push_back(parse_real_field(fields[2]));
  }
  return series;
}

}  // namespace linesearch
