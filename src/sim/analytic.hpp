// sim/analytic.hpp — closed-form trajectory backends.
//
// The paper's schedules are geometric zig-zag ladders (Lemma 2 /
// Definitions 2-4): after a short start prefix, the robot's turning
// points follow the exact recurrence
//     x_{k+1} = -(x_k * kappa),   t_{k+1} = t_k + |x_{k+1} - x_k|,
// which is precisely how the dense builders materialize them
// (extend_zigzag's `turn = -turn * kappa` and the cow-path's
// `turn *= -2`; IEEE negation commutes with multiplication, so the forms
// are bit-identical).  AnalyticZigzag stores only the prefix, the ladder
// seed and kappa — O(1) state — and regenerates any waypoint on demand,
// so the horizon is UNBOUNDED: coverage extent becomes a query-time
// window instead of a build-time commitment, and the under-built-fleet
// failure class (NumericError from cr_eval on a too-small extent)
// disappears.  With a positive `barrier` D the ladder instead stops
// before overshooting [-D, D] and finishes with the two barrier sweeps of
// the bounded variant — a finite schedule, still generated from closed
// form.
//
// AnalyticRay is the degenerate one-direction case used by the two-group
// split: a unit-speed ray from the origin with no turning points.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/schedule.hpp"
#include "util/real.hpp"

namespace linesearch {

/// Parameters of an analytic zig-zag schedule.
struct AnalyticZigzagSpec {
  /// Waypoints up to AND INCLUDING the ladder seed (the robot's first
  /// turning point): e.g. {(0,0), (beta*|s|, s)} for a Definition-4 start
  /// leg, or a single on-cone waypoint for cone-anchored zig-zags.
  /// Requires >= 1 waypoint, strictly increasing times, speeds <= 1, and
  /// a non-zero final (seed) position.
  std::vector<Waypoint> head;

  /// Per-robot expansion factor kappa = (beta+1)/(beta-1) > 1.
  Real kappa = 0;

  /// 0 for an unbounded horizon; a bound D > |seed| makes the schedule
  /// finite: the ladder stops when the next turn would leave [-D, D],
  /// then the robot sweeps barrier-to-barrier and stops (the bounded
  /// variant of A(n,f)).
  Real barrier = 0;
};

/// Closed-form zig-zag backend.  All queries regenerate waypoints from
/// the recurrence; nothing beyond the head is stored for unbounded
/// schedules, so the footprint is O(|head|) regardless of how far any
/// query reaches.
class AnalyticZigzag final : public ScheduleSource {
 public:
  explicit AnalyticZigzag(AnalyticZigzagSpec spec);

  [[nodiscard]] std::string backend_name() const override {
    return "analytic-zigzag";
  }
  [[nodiscard]] bool unbounded() const override { return barrier_ == 0; }
  [[nodiscard]] std::size_t waypoint_count() const override { return count_; }
  [[nodiscard]] Real start_time() const override {
    return head_.front().time;
  }
  [[nodiscard]] Real end_time() const override;
  [[nodiscard]] Real start_position() const override {
    return head_.front().position;
  }
  [[nodiscard]] Real end_position() const override;
  [[nodiscard]] Real max_abs_position() const override;
  [[nodiscard]] Real max_speed() const override;
  [[nodiscard]] Real position_at(Real t) const override;
  [[nodiscard]] std::vector<Real> visit_times(
      Real x, std::size_t max_count) const override;
  /// One ladder walk stepped on demand: each visit costs O(1) legs once
  /// the ladder has passed x, and no re-query walks the ladder again
  /// from the start.  Creating a cursor counts one
  /// sim.analytic.visit_queries walk.
  [[nodiscard]] std::unique_ptr<VisitCursor> visit_cursor(
      Real x) const override;
  void first_visit_times_into(const Real* xs, std::size_t count,
                              Real* out) const override;
  [[nodiscard]] const std::vector<Waypoint>& waypoints() const override;
  [[nodiscard]] std::vector<Waypoint> waypoint_prefix(
      std::size_t k) const override;
  [[nodiscard]] const std::vector<Waypoint>& turning_waypoints()
      const override;
  [[nodiscard]] std::vector<Real> turning_magnitudes_in(
      int side, Real lo, Real hi) const override;
  [[nodiscard]] std::vector<Real> waypoint_positions_within(
      Real max_magnitude) const override;
  [[nodiscard]] std::size_t footprint_bytes() const override;

  /// The ladder parameters: the head waypoints up to and including the
  /// seed, kappa and the barrier determine the whole schedule, so a
  /// caller can walk it on the stack (eval/expectation's closed form).
  [[nodiscard]] const std::vector<Waypoint>& head() const noexcept {
    return head_;
  }
  [[nodiscard]] Real kappa() const noexcept { return kappa_; }
  [[nodiscard]] Real barrier() const noexcept { return barrier_; }
  [[nodiscard]] const Waypoint& seed() const noexcept {
    return head_.back();
  }

 private:
  class Walker;
  class Cursor;

  /// Materialized only in barrier mode (the schedule is finite there);
  /// unbounded schedules carry just the null pointer, keeping their
  /// resident state at O(|head|).
  struct BoundedCache {
    std::vector<Waypoint> waypoints;
    std::vector<Waypoint> turns;
    Real max_abs = 0;
  };

  std::vector<Waypoint> head_;
  Real kappa_ = 0;
  Real barrier_ = 0;
  std::vector<Waypoint> head_turns_;  ///< direction reversals inside head
  bool seed_is_turn_ = false;
  Real head_max_speed_ = 0;
  std::unique_ptr<const BoundedCache> bounded_;
  std::size_t count_ = kUnboundedCount;
};

/// Unit-speed ray from the origin toward +infinity (direction = +1) or
/// -infinity (direction = -1), leaving at t = 0.  The two-group split's
/// analytic backend.
class AnalyticRay final : public ScheduleSource {
 public:
  explicit AnalyticRay(int direction);

  [[nodiscard]] std::string backend_name() const override {
    return "analytic-ray";
  }
  [[nodiscard]] bool unbounded() const override { return true; }
  [[nodiscard]] std::size_t waypoint_count() const override {
    return kUnboundedCount;
  }
  [[nodiscard]] Real start_time() const override { return 0; }
  [[nodiscard]] Real end_time() const override { return kInfinity; }
  [[nodiscard]] Real start_position() const override { return 0; }
  [[nodiscard]] Real end_position() const override;
  [[nodiscard]] Real max_abs_position() const override { return kInfinity; }
  [[nodiscard]] Real max_speed() const override { return 1; }
  [[nodiscard]] Real position_at(Real t) const override;
  [[nodiscard]] std::vector<Real> visit_times(
      Real x, std::size_t max_count) const override;
  void first_visit_times_into(const Real* xs, std::size_t count,
                              Real* out) const override;
  [[nodiscard]] const std::vector<Waypoint>& waypoints() const override;
  [[nodiscard]] std::vector<Waypoint> waypoint_prefix(
      std::size_t k) const override;
  [[nodiscard]] const std::vector<Waypoint>& turning_waypoints()
      const override;
  [[nodiscard]] std::vector<Real> turning_magnitudes_in(
      int side, Real lo, Real hi) const override;
  [[nodiscard]] std::vector<Real> waypoint_positions_within(
      Real max_magnitude) const override;
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return sizeof(AnalyticRay);
  }

  [[nodiscard]] int direction() const noexcept { return direction_; }

 private:
  int direction_ = 1;
};

}  // namespace linesearch
