// util/csv.hpp — minimal CSV emission and parsing.
//
// Bench binaries print a machine-readable CSV block after each
// human-readable table so figure series can be piped straight into a
// plotting tool.  Quoting follows RFC 4180 (quote iff the field contains
// a comma, quote, or newline).
//
// Numeric fields round-trip LOSSLESSLY, including the non-finite values
// that became representable once undetected half-lines started reporting
// cr = inf: `encode_real_field` spells them "inf" / "-inf" / "nan" and
// `parse_real_field` reads those (plus the legacy "-" NaN marker of the
// human-facing tables) back.  Every text serialization of a Real in the
// library goes through this one codec (series CSV here, fleet CSV in
// sim/serialize, JSON in util/jsonio).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/real.hpp"

namespace linesearch {

/// Encode one Real as a CSV/JSON-safe text field: finite values with
/// `digits` significant digits (21 = max_digits10 of 80-bit long double,
/// the exact-round-trip default), non-finite as "inf"/"-inf"/"nan".
[[nodiscard]] std::string encode_real_field(Real value, int digits = 21);

/// Parse a field written by encode_real_field (or any strtold-legal
/// number).  Accepts "inf"/"-inf"/"infinity"/"nan" case-insensitively and
/// the legacy "-" NaN marker; throws PreconditionError on anything else
/// that is not a full number.  Like strtold, it skips leading whitespace,
/// and it stops at an embedded NUL byte.
[[nodiscard]] Real parse_real_field(std::string_view field);

/// Streaming CSV writer bound to an ostream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Write a row of raw string fields (quoted as needed).
  void write_row(const std::vector<std::string>& fields);

  /// Escape one field per RFC 4180.
  [[nodiscard]] static std::string escape(const std::string& field);

 private:
  std::ostream* out_;
};

/// One named series of (x, y) points — the unit of "figure" output.
struct Series {
  std::string name;
  std::vector<Real> x;
  std::vector<Real> y;
};

/// Emit series as long-format CSV: header `series,x,y` then one row per
/// point, 12 significant digits (non-finite values per encode_real_field).
void write_series_csv(std::ostream& out, const std::vector<Series>& series);

/// Parse the output of write_series_csv back into series (grouped by
/// name, first-appearance order).  Non-finite y values (cr = inf rows)
/// round-trip exactly.  Throws PreconditionError on malformed input.
[[nodiscard]] std::vector<Series> read_series_csv(std::istream& in);

}  // namespace linesearch
