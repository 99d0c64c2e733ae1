#include "sim/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "sim/visit_sweep.hpp"
#include "util/error.hpp"

namespace linesearch {
namespace {

// Speed validation allows a hair of slack for accumulated rounding in the
// turning-point recurrences; anything above this is a construction bug.
constexpr Real kSpeedSlack = 1 + 1e-9L;

/// ScheduleSource::visit_cursor's reference stream: serves each capped
/// visit_times prefix, then re-queries at eight times the cap.
class RequeryCursor final : public VisitCursor {
 public:
  RequeryCursor(const ScheduleSource& schedule, const Real x)
      : schedule_(schedule), x_(x) {}

  bool next(Real* t) override {
    if (index_ == times_.size()) {
      // A short answer means the list is complete.
      if (times_.size() < cap_) return false;
      cap_ = (cap_ == 0) ? 16 : cap_ * 8;
      times_ = schedule_.visit_times(x_, cap_);
      if (index_ == times_.size()) return false;
    }
    *t = times_[index_++];
    return true;
  }

 private:
  const ScheduleSource& schedule_;
  Real x_;
  std::size_t cap_ = 0;
  std::size_t index_ = 0;
  std::vector<Real> times_;
};

}  // namespace

std::unique_ptr<VisitCursor> ScheduleSource::visit_cursor(const Real x) const {
  return std::make_unique<RequeryCursor>(*this, x);
}

void ScheduleSource::first_visit_times_into(const Real* xs,
                                            const std::size_t count,
                                            Real* out) const {
  // Reference fallback: one scalar query per probe.  Backends override
  // with a frontier sweep; this loop defines what they must reproduce.
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<Real> times = visit_times(xs[i], 1);
    out[i] = times.empty() ? kInfinity : times.front();
  }
}

DenseSchedule::DenseSchedule(std::vector<Waypoint> waypoints)
    : waypoints_(std::move(waypoints)) {
  expects(!waypoints_.empty(), "trajectory needs at least one waypoint");
  max_abs_ = std::fabs(waypoints_.front().position);
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    const Waypoint& a = waypoints_[i - 1];
    const Waypoint& b = waypoints_[i];
    expects(b.time > a.time,
            "trajectory waypoints must have strictly increasing time");
    const Real speed = std::fabs(b.position - a.position) / (b.time - a.time);
    expects(speed <= kMaxSpeed * kSpeedSlack,
            "trajectory segment exceeds maximum speed");
    max_speed_ = std::max(max_speed_, speed);
    max_abs_ = std::max(max_abs_, std::fabs(b.position));
  }
  // Turning waypoints, cached once: a turn is a reversal of the direction
  // of motion, with any pauses in between ignored — we track the last
  // nonzero direction and record a turn at the waypoint where motion
  // resumes the opposite way.
  int last_direction = 0;
  for (std::size_t s = 0; s + 1 < waypoints_.size(); ++s) {
    const int direction =
        sign_of(waypoints_[s + 1].position - waypoints_[s].position);
    if (direction == 0) continue;  // pause
    if (last_direction != 0 && direction == -last_direction) {
      turns_.push_back(waypoints_[s]);
    }
    last_direction = direction;
  }
}

Real DenseSchedule::position_at(const Real t) const {
  expects(t >= start_time() && t <= end_time(),
          "position_at: time outside trajectory span");
  // Binary search for the segment containing t.
  const auto it = std::upper_bound(
      waypoints_.begin(), waypoints_.end(), t,
      [](const Real value, const Waypoint& w) { return value < w.time; });
  if (it == waypoints_.begin()) return waypoints_.front().position;
  if (it == waypoints_.end()) return waypoints_.back().position;
  const Waypoint& a = *(it - 1);
  const Waypoint& b = *it;
  const Real fraction = (t - a.time) / (b.time - a.time);
  return a.position + fraction * (b.position - a.position);
}

std::vector<Real> DenseSchedule::visit_times(
    const Real x, const std::size_t max_count) const {
  std::vector<Real> times;
  if (max_count == 0) return times;

  if (waypoints_.size() == 1) {
    if (waypoints_.front().position == x) times.push_back(start_time());
    return times;
  }

  for (std::size_t i = 0; i + 1 < waypoints_.size(); ++i) {
    const Waypoint& a = waypoints_[i];
    const Waypoint& b = waypoints_[i + 1];
    const Real lo = std::min(a.position, b.position);
    const Real hi = std::max(a.position, b.position);
    if (x < lo || x > hi) continue;

    // Continuous occupancy: if this segment STARTS at x, the previous
    // segment ended at x and already reported the visit (segments share
    // endpoints) — a turning point touch or a stationary dwell is one
    // visit, and leaving a dwell is not a new one.
    if (i > 0 && x == a.position) continue;

    Real t;
    if (a.position == b.position) {
      t = a.time;  // stationary segment sitting on x
    } else {
      const Real fraction = (x - a.position) / (b.position - a.position);
      t = a.time + fraction * (b.time - a.time);
    }
    // Safety net for near-endpoint rounding.
    if (!times.empty() && approx_equal(times.back(), t)) continue;
    times.push_back(t);
    if (times.size() == max_count) break;
  }
  return times;
}

void DenseSchedule::first_visit_times_into(const Real* xs,
                                           const std::size_t count,
                                           Real* out) const {
  detail::FrontierSweep sweep(xs, count, out, waypoints_.front());
  for (std::size_t i = 0; i + 1 < waypoints_.size() && !sweep.done(); ++i) {
    sweep.feed(waypoints_[i], waypoints_[i + 1]);
  }
}

std::vector<Waypoint> DenseSchedule::waypoint_prefix(
    const std::size_t k) const {
  const std::size_t count = std::min(k, waypoints_.size());
  return {waypoints_.begin(),
          waypoints_.begin() + static_cast<std::ptrdiff_t>(count)};
}

std::vector<Real> DenseSchedule::turning_magnitudes_in(const int side,
                                                       const Real lo,
                                                       const Real hi) const {
  expects(side == 1 || side == -1,
          "turning_magnitudes_in: side must be +-1");
  std::vector<Real> magnitudes;
  for (const Waypoint& w : turns_) {
    if (sign_of(w.position) != side) continue;
    const Real magnitude = std::fabs(w.position);
    if (magnitude >= lo && magnitude <= hi) magnitudes.push_back(magnitude);
  }
  std::sort(magnitudes.begin(), magnitudes.end());
  return magnitudes;
}

std::vector<Real> DenseSchedule::waypoint_positions_within(
    const Real max_magnitude) const {
  std::vector<Real> positions;
  for (const Waypoint& w : waypoints_) {
    if (std::fabs(w.position) <= max_magnitude) {
      positions.push_back(w.position);
    }
  }
  return positions;
}

std::size_t DenseSchedule::footprint_bytes() const {
  return sizeof(DenseSchedule) +
         waypoints_.capacity() * sizeof(Waypoint) +
         turns_.capacity() * sizeof(Waypoint);
}

}  // namespace linesearch
