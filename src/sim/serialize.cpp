#include "sim/serialize.hpp"

#include <cmath>
#include <cstdlib>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/csv.hpp"
#include "util/error.hpp"

namespace linesearch {
namespace {

constexpr const char* kHeader = "robot,time,position";

// Shared lossless codec (util/csv): 21 significant digits for finite
// values, literal "inf"/"-inf"/"nan" for non-finite ones — so any field
// this module writes parses back bit-exactly.  Waypoints are finite by
// construction (an infinite time would make every speed check vacuously
// pass), so externally-authored files carrying non-finite markers are
// rejected here with the row context rather than slipping through
// Trajectory validation.
std::string row_context(const int line_number) {
  return "line " + std::to_string(line_number);
}

Real parse_real(const std::string& field, const int line_number) {
  Real value = 0;
  try {
    value = parse_real_field(field);
  } catch (const PreconditionError& error) {
    throw PreconditionError(std::string(error.what()) + " in " +
                            row_context(line_number));
  }
  expects(std::isfinite(value), [&field, line_number] {
    return "waypoint fields must be finite, got '" + field + "' in " +
           row_context(line_number);
  });
  return value;
}

}  // namespace

void write_trajectory_csv(std::ostream& out, const Trajectory& trajectory,
                          const RobotId robot) {
  for (const Waypoint& w : trajectory.waypoints()) {
    out << robot << ',' << encode_real_field(w.time) << ','
        << encode_real_field(w.position) << '\n';
  }
}

void write_fleet_csv(std::ostream& out, const Fleet& fleet) {
  out << kHeader << '\n';
  for (RobotId id = 0; id < fleet.size(); ++id) {
    write_trajectory_csv(out, fleet.robot(id), id);
  }
}

Fleet read_fleet_csv(std::istream& in) {
  std::string line;
  expects(static_cast<bool>(std::getline(in, line)),
          "serialize: empty input");
  // Tolerate trailing \r from Windows-authored files.
  if (!line.empty() && line.back() == '\r') line.pop_back();
  expects(line == kHeader, [&line] {
    return "serialize: expected header '" + std::string(kHeader) +
           "', got '" + line + "'";
  });

  std::map<unsigned long, std::vector<Waypoint>> by_robot;
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    std::istringstream fields(line);
    std::string robot_field, time_field, position_field, extra;
    expects(std::getline(fields, robot_field, ',') &&
                std::getline(fields, time_field, ',') &&
                std::getline(fields, position_field, ','),
            [line_number] {
              return "serialize: expected 3 fields at " +
                     row_context(line_number);
            });
    expects(!std::getline(fields, extra, ','), [line_number] {
      return "serialize: too many fields at " + row_context(line_number);
    });

    char* end = nullptr;
    const unsigned long robot = std::strtoul(robot_field.c_str(), &end, 10);
    expects(end != nullptr && *end == '\0' && !robot_field.empty(),
            [line_number] {
              return "serialize: malformed robot id at " +
                     row_context(line_number);
            });
    by_robot[robot].push_back({parse_real(time_field, line_number),
                               parse_real(position_field, line_number)});
  }
  expects(!by_robot.empty(), "serialize: no waypoints");

  // Robot ids must form 0..n-1 (std::map iterates in key order).
  std::vector<Trajectory> robots;
  unsigned long expected = 0;
  for (auto& [id, waypoints] : by_robot) {
    expects(id == expected, "serialize: robot ids must be contiguous from 0");
    ++expected;
    robots.emplace_back(std::move(waypoints));  // ctor re-validates speed
  }
  return Fleet(std::move(robots));
}

std::string fleet_to_csv(const Fleet& fleet) {
  std::ostringstream out;
  write_fleet_csv(out, fleet);
  return out.str();
}

Fleet fleet_from_csv(const std::string& text) {
  std::istringstream in(text);
  return read_fleet_csv(in);
}

}  // namespace linesearch
