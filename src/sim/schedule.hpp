// sim/schedule.hpp — trajectory backends (schedule sources).
//
// A ScheduleSource is the storage/generation strategy behind a Trajectory:
// it answers the same exact per-segment queries (position, visit times)
// but may either hold a materialized waypoint vector (DenseSchedule) or
// generate the waypoints on demand from closed-form parameters
// (AnalyticZigzag / AnalyticRay in sim/analytic.hpp).  Analytic backends
// may have an UNBOUNDED horizon: end_time() == kInfinity and
// waypoint_count() == kUnboundedCount.  Queries that would enumerate an
// unbounded schedule in full (waypoints(), turning_waypoints(), uncapped
// visit_times) throw PreconditionError; windowed queries
// (turning_magnitudes_in, waypoint_positions_within, waypoint_prefix) are
// the unbounded-safe replacements and are exact on both backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/real.hpp"

namespace linesearch {

/// One point of a robot's space/time curve.
struct Waypoint {
  Real time = 0;
  Real position = 0;

  friend bool operator==(const Waypoint&, const Waypoint&) = default;
};

/// waypoint_count() of a schedule with an unbounded horizon.
inline constexpr std::size_t kUnboundedCount = SIZE_MAX;

/// A stream over one schedule's visits to a fixed point x, one visit per
/// call: exactly the sequence visit_times(x, SIZE_MAX) would hold
/// (skip-start and approx-equal dedup included), bit for bit, without
/// materializing it.  Safe on unbounded schedules.  A cursor refers to
/// the schedule it was made from and must not outlive it.
class VisitCursor {
 public:
  virtual ~VisitCursor() = default;

  /// Store the next visit time in *t and return true; return false once
  /// the visits are exhausted, and on every call after that.
  virtual bool next(Real* t) = 0;
};

/// Abstract trajectory backend.  Implementations are immutable after
/// construction; all queries are const and thread-safe.
class ScheduleSource {
 public:
  /// Maximum speed a robot may use; the paper's robots all have speed 1.
  static constexpr Real kMaxSpeed = 1;

  virtual ~ScheduleSource() = default;

  /// Short identifier ("dense", "analytic-zigzag", "analytic-ray").
  [[nodiscard]] virtual std::string backend_name() const = 0;

  /// True when the schedule extends forever (end_time() == kInfinity).
  [[nodiscard]] virtual bool unbounded() const = 0;

  /// Number of waypoints; kUnboundedCount when unbounded.
  [[nodiscard]] virtual std::size_t waypoint_count() const = 0;

  [[nodiscard]] virtual Real start_time() const = 0;
  [[nodiscard]] virtual Real end_time() const = 0;
  [[nodiscard]] virtual Real start_position() const = 0;

  /// Final position; requires a bounded schedule.
  [[nodiscard]] virtual Real end_position() const = 0;

  /// Largest |position| ever reached (kInfinity when unbounded).
  [[nodiscard]] virtual Real max_abs_position() const = 0;

  /// Largest per-segment speed (<= kMaxSpeed by construction).
  [[nodiscard]] virtual Real max_speed() const = 0;

  /// Position at time t; requires start_time() <= t <= end_time().
  [[nodiscard]] virtual Real position_at(Real t) const = 0;

  /// All visit times to x in increasing order (touching turning points
  /// deduplicated), capped at `max_count` entries.  An unbounded schedule
  /// requires a finite cap (max_count < kUnboundedCount).
  [[nodiscard]] virtual std::vector<Real> visit_times(
      Real x, std::size_t max_count) const = 0;

  /// Lazy stream of the visits to x (see VisitCursor).  The base
  /// implementation re-queries visit_times with a growing cap and serves
  /// the new suffix, which is exact on every backend because a capped
  /// query is a prefix of the uncapped one; backends that can step their
  /// segments directly override it.
  [[nodiscard]] virtual std::unique_ptr<VisitCursor> visit_cursor(
      Real x) const;

  /// Batched first visits: out[i] = first visit time to xs[i], or
  /// kInfinity when xs[i] is never reached.  `xs` must be sorted
  /// ascending (duplicates allowed); every entry is bit-identical to
  /// visit_times(xs[i], 1).  The base implementation loops the scalar
  /// query; backends override with a single frontier sweep over their
  /// segments (O(segments + count) instead of O(segments * count)), which
  /// is what makes the SoA probe kernels in eval/kernels pay off.
  virtual void first_visit_times_into(const Real* xs, std::size_t count,
                                      Real* out) const;

  /// The full materialized waypoint list; requires a bounded schedule.
  [[nodiscard]] virtual const std::vector<Waypoint>& waypoints() const = 0;

  /// The first min(k, waypoint_count()) waypoints, materialized.  Safe on
  /// unbounded backends for finite k.
  [[nodiscard]] virtual std::vector<Waypoint> waypoint_prefix(
      std::size_t k) const = 0;

  /// Waypoints at which the direction of motion reverses (pauses skipped;
  /// the first and last waypoints never register).  Cached at
  /// construction; requires a bounded schedule.
  [[nodiscard]] virtual const std::vector<Waypoint>& turning_waypoints()
      const = 0;

  /// Magnitudes of the turning waypoints on one side (sign_of(position)
  /// == side) with lo <= magnitude <= hi, sorted increasing.  Exact on
  /// unbounded backends: the window makes the enumeration finite.
  [[nodiscard]] virtual std::vector<Real> turning_magnitudes_in(
      int side, Real lo, Real hi) const = 0;

  /// Signed positions of every waypoint with |position| <= max_magnitude,
  /// in schedule order (duplicates preserved).  Unbounded-safe.
  [[nodiscard]] virtual std::vector<Real> waypoint_positions_within(
      Real max_magnitude) const = 0;

  /// Approximate resident size of the backend in bytes (state + caches);
  /// used by the perf bench to compare dense vs analytic footprints.
  [[nodiscard]] virtual std::size_t footprint_bytes() const = 0;
};

/// The classic backend: a validated, materialized waypoint vector.
/// Construction enforces >= 1 waypoint, strictly increasing time and
/// segment speed <= kMaxSpeed (with a hair of relative slack), exactly as
/// the pre-backend Trajectory did.  Turning waypoints are computed once
/// here and served as a const reference.
class DenseSchedule final : public ScheduleSource {
 public:
  explicit DenseSchedule(std::vector<Waypoint> waypoints);

  [[nodiscard]] std::string backend_name() const override { return "dense"; }
  [[nodiscard]] bool unbounded() const override { return false; }
  [[nodiscard]] std::size_t waypoint_count() const override {
    return waypoints_.size();
  }
  [[nodiscard]] Real start_time() const override {
    return waypoints_.front().time;
  }
  [[nodiscard]] Real end_time() const override {
    return waypoints_.back().time;
  }
  [[nodiscard]] Real start_position() const override {
    return waypoints_.front().position;
  }
  [[nodiscard]] Real end_position() const override {
    return waypoints_.back().position;
  }
  [[nodiscard]] Real max_abs_position() const override { return max_abs_; }
  [[nodiscard]] Real max_speed() const override { return max_speed_; }
  [[nodiscard]] Real position_at(Real t) const override;
  [[nodiscard]] std::vector<Real> visit_times(
      Real x, std::size_t max_count) const override;
  void first_visit_times_into(const Real* xs, std::size_t count,
                              Real* out) const override;
  [[nodiscard]] const std::vector<Waypoint>& waypoints() const override {
    return waypoints_;
  }
  [[nodiscard]] std::vector<Waypoint> waypoint_prefix(
      std::size_t k) const override;
  [[nodiscard]] const std::vector<Waypoint>& turning_waypoints()
      const override {
    return turns_;
  }
  [[nodiscard]] std::vector<Real> turning_magnitudes_in(
      int side, Real lo, Real hi) const override;
  [[nodiscard]] std::vector<Real> waypoint_positions_within(
      Real max_magnitude) const override;
  [[nodiscard]] std::size_t footprint_bytes() const override;

 private:
  std::vector<Waypoint> waypoints_;
  std::vector<Waypoint> turns_;
  Real max_abs_ = 0;
  Real max_speed_ = 0;
};

}  // namespace linesearch
