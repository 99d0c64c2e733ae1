// sim/trajectory.hpp — exact piecewise-linear robot trajectories.
//
// A trajectory is the space/time curve of one robot on the line (Fig. 1 of
// the paper): a sequence of waypoints (t_i, x_i) with non-decreasing time
// and speed |dx/dt| <= 1 on every segment.  All queries (position, visit
// times) are closed-form per segment — there is no time-stepping anywhere
// in the library, so measured competitive ratios carry no discretization
// error.
//
// Since the backend refactor a Trajectory is a cheap VIEW over a
// ScheduleSource (sim/schedule.hpp): either a materialized waypoint vector
// (DenseSchedule, the classic path) or a closed-form generator
// (sim/analytic.hpp) whose horizon may be unbounded.  Vector-returning
// whole-schedule queries (waypoints(), turning_waypoints(), uncapped
// visit_times) require a bounded schedule; the windowed queries
// (turning_magnitudes_in, waypoint_positions_within, waypoint_prefix)
// work on every backend.
//
// Visit semantics: robot visits point x at time t iff its position at t is
// exactly x.  A segment that *touches* x at a shared endpoint yields one
// visit, not two; a stationary segment sitting on x yields a visit at the
// segment start.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/schedule.hpp"
#include "util/real.hpp"

namespace linesearch {

/// Immutable piecewise-linear trajectory: a shared view over a validated
/// schedule backend.  Copies are cheap (they share the backend).
class Trajectory {
 public:
  /// Maximum speed a robot may use; the paper's robots all have speed 1.
  static constexpr Real kMaxSpeed = ScheduleSource::kMaxSpeed;

  /// Build a dense trajectory from waypoints.  Requires: >= 1 waypoint,
  /// strictly increasing time between distinct waypoints, and segment
  /// speed <= kMaxSpeed (with a small relative tolerance).  Throws
  /// PreconditionError otherwise.
  explicit Trajectory(std::vector<Waypoint> waypoints);

  /// Wrap an existing backend (dense or analytic).
  explicit Trajectory(std::shared_ptr<const ScheduleSource> source);

  /// A robot that never moves: sits at `position` from t=0 to `until`.
  [[nodiscard]] static Trajectory stationary(Real position, Real until);

  /// The backend generating this trajectory.
  [[nodiscard]] const ScheduleSource& source() const noexcept {
    return *source_;
  }
  [[nodiscard]] const std::shared_ptr<const ScheduleSource>& source_ptr()
      const noexcept {
    return source_;
  }

  /// True when the schedule extends forever (end_time() == kInfinity).
  [[nodiscard]] bool unbounded() const { return source_->unbounded(); }

  /// All waypoints, in time order.  Requires a bounded schedule.
  [[nodiscard]] const std::vector<Waypoint>& waypoints() const {
    return source_->waypoints();
  }

  /// The first min(k, available) waypoints, materialized; safe on
  /// unbounded backends for finite k.
  [[nodiscard]] std::vector<Waypoint> waypoint_prefix(std::size_t k) const {
    return source_->waypoint_prefix(k);
  }

  /// Number of linear segments (waypoints - 1; zero for a single point);
  /// kUnboundedCount for an unbounded schedule.
  [[nodiscard]] std::size_t segment_count() const {
    const std::size_t count = source_->waypoint_count();
    return count == kUnboundedCount ? kUnboundedCount : count - 1;
  }

  [[nodiscard]] Real start_time() const { return source_->start_time(); }
  [[nodiscard]] Real end_time() const { return source_->end_time(); }
  [[nodiscard]] Real start_position() const {
    return source_->start_position();
  }
  /// Final position; requires a bounded schedule.
  [[nodiscard]] Real end_position() const { return source_->end_position(); }

  /// Position at time t; requires start_time() <= t <= end_time().
  [[nodiscard]] Real position_at(Real t) const {
    return source_->position_at(t);
  }

  /// Time of the first visit to x, or nullopt if the trajectory never
  /// reaches x.
  [[nodiscard]] std::optional<Real> first_visit_time(Real x) const;

  /// All visit times to x in increasing order (touching turning points
  /// deduplicated), capped at `max_count` entries.  An unbounded schedule
  /// requires a finite cap.
  [[nodiscard]] std::vector<Real> visit_times(
      Real x, std::size_t max_count = SIZE_MAX) const {
    return source_->visit_times(x, max_count);
  }

  /// Lazy stream of the visits to x: the sequence visit_times(x) would
  /// return, one visit per call, on bounded and unbounded schedules
  /// alike.  The cursor must not outlive this trajectory's backend.
  [[nodiscard]] std::unique_ptr<VisitCursor> visit_cursor(Real x) const {
    return source_->visit_cursor(x);
  }

  /// Time of the k-th visit (0-based) to x, or nullopt.
  [[nodiscard]] std::optional<Real> kth_visit_time(Real x,
                                                   std::size_t k) const;

  /// Batched first visits into a caller-owned buffer: out[i] is
  /// bit-identical to first_visit_time(xs[i]) (kInfinity when never
  /// visited).  `xs` must be sorted ascending; backends answer the whole
  /// batch with one segment sweep (see ScheduleSource).
  void first_visit_times_into(const Real* xs, std::size_t count,
                              Real* out) const {
    source_->first_visit_times_into(xs, count, out);
  }

  /// Largest |position| ever reached (kInfinity when unbounded).
  [[nodiscard]] Real max_abs_position() const {
    return source_->max_abs_position();
  }

  /// Largest per-segment speed (<= kMaxSpeed by construction).
  [[nodiscard]] Real max_speed() const { return source_->max_speed(); }

  /// Waypoints at which the robot changes direction strictly inside the
  /// trajectory (sign of velocity flips, or motion resumes after a stop).
  /// These are the "turning points" of the paper's zig-zag strategies.
  /// Cached per backend; requires a bounded schedule.
  [[nodiscard]] const std::vector<Waypoint>& turning_waypoints() const {
    return source_->turning_waypoints();
  }

  /// Magnitudes of this robot's turning points on one side with
  /// lo <= magnitude <= hi, sorted increasing; exact on every backend.
  [[nodiscard]] std::vector<Real> turning_magnitudes_in(int side, Real lo,
                                                        Real hi) const {
    return source_->turning_magnitudes_in(side, lo, hi);
  }

  /// Signed positions of every waypoint with |position| <= max_magnitude,
  /// in schedule order; exact on every backend.
  [[nodiscard]] std::vector<Real> waypoint_positions_within(
      Real max_magnitude) const {
    return source_->waypoint_positions_within(max_magnitude);
  }

  /// Human-readable one-line summary ("5 segments, t in [0, 12.5], ...").
  [[nodiscard]] std::string describe() const;

 private:
  std::shared_ptr<const ScheduleSource> source_;
};

/// Fluent builder for trajectories.  All movement legs run at speed
/// exactly 1 unless move_to_at/slow legs are requested.
class TrajectoryBuilder {
 public:
  /// Start the curve at (t, x); must be called exactly once, first.
  TrajectoryBuilder& start_at(Real t, Real x);

  /// Unit-speed leg to position x (duration |x - current|).
  TrajectoryBuilder& move_to(Real x);

  /// Leg to position x arriving exactly at time t (speed <= 1 enforced
  /// at build time).  Models Definition 4's sub-unit-speed start legs.
  TrajectoryBuilder& move_to_at(Real x, Real t);

  /// Stay in place until time t (t >= current time).
  TrajectoryBuilder& wait_until(Real t);

  /// Current time / position of the under-construction curve.
  [[nodiscard]] Real current_time() const;
  [[nodiscard]] Real current_position() const;

  /// Finalize; throws if start_at was never called or a leg is invalid.
  [[nodiscard]] Trajectory build() &&;

 private:
  bool started_ = false;
  std::vector<Waypoint> waypoints_;
};

}  // namespace linesearch
