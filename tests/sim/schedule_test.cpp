// Tests for sim/schedule.hpp + sim/analytic.hpp — the trajectory backend
// layer: DenseSchedule (materialized waypoints) vs AnalyticZigzag /
// AnalyticRay (closed-form, unbounded horizon).
#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm.hpp"
#include "sim/analytic.hpp"
#include "sim/faults.hpp"
#include "sim/fleet.hpp"
#include "sim/trajectory.hpp"
#include "sim/zigzag.hpp"
#include "util/error.hpp"
#include "obs/metrics.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace {

using verify::value_identical;

AnalyticZigzagSpec origin_doubling_spec() {
  // The classic cow-path: (0,0) -> (1,1), then x_{k+1} = -2 x_k.
  AnalyticZigzagSpec spec;
  spec.head = {{0, 0}, {1, 1}};
  spec.kappa = 2;
  return spec;
}

TEST(DenseSchedule, CachesTurningWaypointsAsConstRef) {
  const Trajectory robot =
      make_origin_zigzag({.beta = 3, .first_turn = 1, .min_coverage = 32});
  const std::vector<Waypoint>& first = robot.turning_waypoints();
  const std::vector<Waypoint>& second = robot.turning_waypoints();
  // Satellite: the turn list is computed once at construction and the
  // accessor returns the SAME cached vector, not a fresh copy.
  EXPECT_EQ(&first, &second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.front().position, 1.0L);
}

TEST(AnalyticZigzag, IsUnboundedWithInfiniteHorizon) {
  const AnalyticZigzag schedule(origin_doubling_spec());
  EXPECT_TRUE(schedule.unbounded());
  EXPECT_EQ(schedule.waypoint_count(), kUnboundedCount);
  EXPECT_TRUE(std::isinf(schedule.end_time()));
  EXPECT_TRUE(std::isinf(schedule.max_abs_position()));
}

TEST(AnalyticZigzag, UncappedQueriesThrowOnUnbounded) {
  const AnalyticZigzag schedule(origin_doubling_spec());
  EXPECT_THROW((void)schedule.waypoints(), PreconditionError);
  EXPECT_THROW((void)schedule.turning_waypoints(), PreconditionError);
  EXPECT_THROW((void)schedule.visit_times(1, kUnboundedCount),
               PreconditionError);
}

TEST(AnalyticZigzag, PrefixMatchesDenseCowPathBitForBit) {
  const AnalyticZigzag analytic(origin_doubling_spec());
  // Dense reference: same curve, built with TrajectoryBuilder.
  TrajectoryBuilder builder;
  builder.start_at(0, 0);
  Real turn = 1;
  for (int i = 0; i < 20; ++i) {
    builder.move_to(turn);
    turn *= -2;
  }
  const Trajectory dense = std::move(builder).build();
  const std::vector<Waypoint> prefix = analytic.waypoint_prefix(21);
  ASSERT_EQ(prefix.size(), 21u);
  const std::vector<Waypoint>& reference = dense.waypoints();
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_TRUE(value_identical(prefix[i].time, reference[i].time)) << i;
    EXPECT_TRUE(value_identical(prefix[i].position, reference[i].position))
        << i;
  }
}

TEST(AnalyticZigzag, PositionAtAgreesWithDenseSemantics) {
  const AnalyticZigzag analytic(origin_doubling_spec());
  TrajectoryBuilder builder;
  builder.start_at(0, 0);
  Real turn = 1;
  for (int i = 0; i < 12; ++i) {
    builder.move_to(turn);
    turn *= -2;
  }
  const Trajectory dense = std::move(builder).build();
  for (const Real t : {0.0L, 0.25L, 1.0L, 2.5L, 3.0L, 7.0L, 100.0L,
                       1000.0L}) {
    if (t > dense.end_time()) break;
    EXPECT_TRUE(value_identical(analytic.position_at(t),
                                dense.position_at(t)))
        << "t=" << static_cast<double>(t);
  }
  // Outside the span the query is rejected, exactly like the dense
  // backend.
  EXPECT_THROW((void)analytic.position_at(-1), PreconditionError);
}

TEST(AnalyticZigzag, VisitTimesStreamOnDemand) {
  const AnalyticZigzag analytic(origin_doubling_spec());
  // x = +1 is visited on every positive leg; times must be increasing and
  // available far past any fixed horizon.
  const std::vector<Real> visits = analytic.visit_times(1, 8);
  ASSERT_EQ(visits.size(), 8u);
  for (std::size_t i = 1; i < visits.size(); ++i) {
    EXPECT_GT(visits[i], visits[i - 1]);
  }
  EXPECT_EQ(visits.front(), 1.0L);  // (0,0) -> (1,1) arrives at t = 1
}

TEST(AnalyticZigzag, WindowedTurnQueriesAreFinite) {
  const AnalyticZigzag analytic(origin_doubling_spec());
  // Positive turns: 1, 4, 16, ... (every other ladder rung).
  const std::vector<Real> turns = analytic.turning_magnitudes_in(+1, 1, 20);
  ASSERT_EQ(turns.size(), 3u);
  EXPECT_EQ(turns[0], 1.0L);
  EXPECT_EQ(turns[1], 4.0L);
  EXPECT_EQ(turns[2], 16.0L);
  const std::vector<Real> negative =
      analytic.turning_magnitudes_in(-1, 1, 20);
  ASSERT_EQ(negative.size(), 2u);
  EXPECT_EQ(negative[0], 2.0L);
  EXPECT_EQ(negative[1], 8.0L);
}

TEST(AnalyticZigzag, BarrierModeMaterializesFiniteSchedule) {
  AnalyticZigzagSpec spec = origin_doubling_spec();
  spec.barrier = 10;
  const AnalyticZigzag bounded(spec);
  EXPECT_FALSE(bounded.unbounded());
  EXPECT_LT(bounded.waypoint_count(), kUnboundedCount);
  // Ladder 1, -2, 4, -8; next (+16) would overshoot 10, so the robot
  // sweeps to +10 and back to -10 and stops.
  const std::vector<Waypoint>& waypoints = bounded.waypoints();
  EXPECT_EQ(waypoints.back().position, -10.0L);
  EXPECT_EQ(waypoints[waypoints.size() - 2].position, 10.0L);
  EXPECT_FALSE(std::isinf(bounded.end_time()));
  EXPECT_EQ(bounded.max_abs_position(), 10.0L);
}

TEST(AnalyticZigzag, FootprintIsIndependentOfQueryReach) {
  const AnalyticZigzag analytic(origin_doubling_spec());
  const std::size_t before = analytic.footprint_bytes();
  (void)analytic.turning_magnitudes_in(+1, 1, 1e18L);
  (void)analytic.visit_times(1, 32);
  EXPECT_EQ(analytic.footprint_bytes(), before);
  // A dense build covering the same reach would hold ~60 waypoints of
  // ladder; the analytic state is just the two-waypoint head + scalars.
  EXPECT_LT(before, 512u);
}

TEST(AnalyticRay, ClosedFormVisitAndPosition) {
  const AnalyticRay right(+1);
  EXPECT_EQ(right.position_at(3), 3.0L);
  const std::vector<Real> visit = right.visit_times(5, 4);
  ASSERT_EQ(visit.size(), 1u);  // a ray visits each point exactly once
  EXPECT_EQ(visit.front(), 5.0L);
  EXPECT_TRUE(right.visit_times(-5, 4).empty());  // wrong side: never
  const AnalyticRay left(-1);
  EXPECT_EQ(left.position_at(3), -3.0L);
  EXPECT_TRUE(left.turning_magnitudes_in(+1, 0, 100).empty());
  EXPECT_TRUE(left.turning_magnitudes_in(-1, 0, 100).empty());
}

TEST(Trajectory, WrapsBackendsPolymorphically) {
  const Trajectory dense =
      make_origin_zigzag({.beta = 3, .first_turn = 1, .min_coverage = 16});
  EXPECT_FALSE(dense.unbounded());
  EXPECT_EQ(dense.source().backend_name(), "dense");

  const Trajectory analytic =
      make_analytic_origin_zigzag({.beta = 3, .first_turn = 1});
  EXPECT_TRUE(analytic.unbounded());
  EXPECT_EQ(analytic.source().backend_name(), "analytic-zigzag");
  EXPECT_EQ(analytic.segment_count(), kUnboundedCount);

  // Copies share the immutable backend instead of re-validating it.
  const Trajectory copy = analytic;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.source_ptr().get(), analytic.source_ptr().get());
}

TEST(AnalyticZigzag, RejectsInvalidSpecs) {
  EXPECT_THROW(AnalyticZigzag({.head = {}, .kappa = 2}), PreconditionError);
  EXPECT_THROW(AnalyticZigzag({.head = {{0, 0}}, .kappa = 2}),
               PreconditionError);  // zero seed position
  EXPECT_THROW(AnalyticZigzag({.head = {{0, 0}, {1, 1}}, .kappa = 1}),
               PreconditionError);  // kappa must exceed 1
  EXPECT_THROW(
      AnalyticZigzag({.head = {{0, 0}, {1, 1}}, .kappa = 2, .barrier = 0.5L}),
      PreconditionError);  // barrier inside the seed magnitude
  EXPECT_THROW(AnalyticRay(0), PreconditionError);
}

// ---------------------------------------------------------------------------
// Visit cursors: the lazy stream must be visit_times, one visit at a time
// ---------------------------------------------------------------------------

/// Drains up to 256 visits from schedule.visit_cursor(x) and checks the
/// cursor contract: for every k <= 256 the first k streamed values equal
/// visit_times(x, k) bit for bit, and an exhausted cursor stays
/// exhausted.  Returns the streamed prefix.
std::vector<Real> expect_cursor_matches_visit_times(
    const ScheduleSource& schedule, const Real x, const std::string& context) {
  constexpr std::size_t kPrefix = 256;
  const std::unique_ptr<VisitCursor> cursor = schedule.visit_cursor(x);
  std::vector<Real> streamed;
  Real t = 0;
  bool exhausted = false;
  while (streamed.size() < kPrefix) {
    if (!cursor->next(&t)) {
      exhausted = true;
      break;
    }
    streamed.push_back(t);
  }
  if (exhausted) {
    EXPECT_FALSE(cursor->next(&t)) << context;
    EXPECT_FALSE(cursor->next(&t)) << context;
  }
  for (std::size_t k = 0; k <= kPrefix; ++k) {
    const std::vector<Real> capped = schedule.visit_times(x, k);
    EXPECT_EQ(capped.size(), std::min(k, streamed.size()))
        << context << " k=" << k;
    for (std::size_t i = 0; i < std::min(capped.size(), streamed.size());
         ++i) {
      EXPECT_TRUE(value_identical(capped[i], streamed[i]))
          << context << " k=" << k << " visit " << i;
    }
  }
  return streamed;
}

TEST(VisitCursor, DenseStreamMatchesVisitTimes) {
  // Start on 0, turn on 2 after a dwell there, turn on -1, pass 0 again.
  const DenseSchedule schedule({{0, 0},
                                {2, 2},
                                {3, 2},
                                {6, -1},
                                {9, 2},
                                {10, 3}});
  EXPECT_EQ(expect_cursor_matches_visit_times(schedule, 0, "start").size(),
            3u);
  EXPECT_EQ(expect_cursor_matches_visit_times(schedule, 2, "dwell").size(),
            2u);
  EXPECT_EQ(expect_cursor_matches_visit_times(schedule, -1, "turn").size(),
            1u);
  EXPECT_EQ(expect_cursor_matches_visit_times(schedule, 1.5L, "pass").size(),
            3u);
  EXPECT_TRUE(expect_cursor_matches_visit_times(schedule, 7, "never").empty());
  const DenseSchedule single({{1, 4}});
  EXPECT_EQ(expect_cursor_matches_visit_times(single, 4, "point").size(), 1u);
  EXPECT_TRUE(expect_cursor_matches_visit_times(single, 3, "off").empty());
}

TEST(VisitCursor, DenseStreamSpansSeveralRequeries) {
  // More visits than the base cursor's first caps (16, then 128), so the
  // stream crosses two re-queries.
  const Trajectory robot =
      make_origin_zigzag({.beta = 3, .first_turn = 1, .min_coverage = 1e60L});
  EXPECT_GT(
      expect_cursor_matches_visit_times(robot.source(), 0.75L, "zigzag")
          .size(),
      128u);
}

TEST(VisitCursor, AnalyticZigzagStreamMatchesVisitTimes) {
  const AnalyticZigzag doubling(origin_doubling_spec());
  for (const Real x : {0.0L, 1.0L, -2.0L, 4.0L, 0.5L, -3.0L, 1e6L}) {
    EXPECT_EQ(expect_cursor_matches_visit_times(
                  doubling, x, "unbounded x=" + std::to_string(
                                   static_cast<double>(x)))
                  .size(),
              256u);
  }
  // A dwell on x = 1 inside the head, then the ladder from the seed 2.
  const AnalyticZigzag dwell(
      {.head = {{0, 0}, {1, 1}, {3, 1}, {4, 2}}, .kappa = 2});
  EXPECT_EQ(expect_cursor_matches_visit_times(dwell, 1, "dwell").size(),
            256u);
  // Barrier mode: finite schedule, and nothing past the barrier.
  const AnalyticZigzag barrier(
      {.head = {{0, 0}, {1, 1}}, .kappa = 2, .barrier = 100});
  for (const Real x : {0.0L, 1.0L, 64.0L, -100.0L, 100.0L, 7.5L}) {
    const std::vector<Real> streamed = expect_cursor_matches_visit_times(
        barrier, x, "barrier x=" + std::to_string(static_cast<double>(x)));
    EXPECT_FALSE(streamed.empty());
    EXPECT_LT(streamed.size(), 256u);
  }
  EXPECT_TRUE(
      expect_cursor_matches_visit_times(barrier, 101, "beyond").empty());
}

TEST(VisitCursor, AnalyticZigzagCursorCountsOneWalk) {
  const AnalyticZigzag doubling(origin_doubling_spec());
  obs::Registry::instance().reset();
  const std::unique_ptr<VisitCursor> cursor = doubling.visit_cursor(3);
  Real t = 0;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(cursor->next(&t));
  if constexpr (obs::kEnabled) {
    std::uint64_t walks = 0;
    for (const obs::MetricSnapshot& snap :
         obs::Registry::instance().snapshot()) {
      if (snap.name == "sim.analytic.visit_queries") walks = snap.value;
    }
    EXPECT_EQ(walks, 1u);
  }
}

TEST(VisitCursor, AnalyticRayStreamMatchesVisitTimes) {
  const AnalyticRay right(1);
  EXPECT_EQ(expect_cursor_matches_visit_times(right, 0, "start").size(), 1u);
  EXPECT_EQ(expect_cursor_matches_visit_times(right, 5, "ahead").size(), 1u);
  EXPECT_TRUE(expect_cursor_matches_visit_times(right, -5, "behind").empty());
}

TEST(VisitCursor, CrashTruncatedStreamMatchesVisitTimes) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  const Fleet crashed = truncate_at_crashes(fleet, {40, 0, kInfinity});
  for (std::size_t robot = 0; robot < crashed.size(); ++robot) {
    const ScheduleSource& schedule =
        crashed.robot(static_cast<RobotId>(robot)).source();
    for (const Real x : {0.0L, 1.0L, -2.5L, 3.0L, 1e9L}) {
      const std::vector<Real> streamed = expect_cursor_matches_visit_times(
          schedule, x,
          "robot " + std::to_string(robot) +
              " x=" + std::to_string(static_cast<double>(x)));
      if (robot == 0) {
        EXPECT_LT(streamed.size(), 256u);
      }
    }
  }
  // The robot that crashed at t = 0 sits on the origin and nowhere else.
  EXPECT_EQ(expect_cursor_matches_visit_times(crashed.robot(1).source(), 0,
                                              "crashed at start")
                .size(),
            1u);
  EXPECT_TRUE(expect_cursor_matches_visit_times(crashed.robot(1).source(), 1,
                                                "crashed never")
                  .empty());
}

}  // namespace
}  // namespace linesearch
