// SoA kernel layer (eval/kernels, sim/visit_sweep, eval/interval_lines
// columns): bit-identity against the scalar reference paths, the probe
// dedup/window regressions, and the pinned order-statistic tie-breaks.
#include "eval/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "core/baselines.hpp"
#include "eval/cr_eval.hpp"
#include "eval/interval_lines.hpp"
#include "obs/metrics.hpp"
#include "sim/analytic.hpp"
#include "sim/faults.hpp"
#include "sim/fleet.hpp"
#include "sim/trajectory.hpp"
#include "util/error.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace {

using verify::value_identical;

/// Sorted signed probe grid spanning both sides of the start position,
/// including 0 (every proportional robot's start) and far-out positions.
std::vector<Real> probe_grid(const Real hi) {
  std::vector<Real> xs;
  for (Real m = hi; m >= Real{0.25L}; m /= 2) xs.push_back(-m);
  xs.push_back(0);
  for (Real m = Real{0.25L}; m <= hi; m *= 2) xs.push_back(m);
  for (Real m = 1; m <= hi; m *= 3) xs.push_back(m * Real{1.00000000025L});
  std::sort(xs.begin(), xs.end());
  return xs;
}

void expect_batched_matches_scalar(const Fleet& fleet, const Real hi) {
  const std::vector<Real> xs = probe_grid(hi);
  std::vector<Real> batched(xs.size());
  for (RobotId id = 0; id < fleet.size(); ++id) {
    fleet.robot(id).first_visit_times_into(xs.data(), xs.size(),
                                           batched.data());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const std::optional<Real> scalar =
          fleet.robot(id).first_visit_time(xs[i]);
      const Real expected = scalar ? *scalar : kInfinity;
      EXPECT_TRUE(value_identical(batched[i], expected))
          << "robot " << id << " x=" << static_cast<double>(xs[i]);
    }
  }
}

TEST(VisitSweep, BatchedFirstVisitsMatchScalarOnDenseBackend) {
  expect_batched_matches_scalar(ProportionalAlgorithm(5, 2).build_fleet(64),
                                32);
}

TEST(VisitSweep, BatchedFirstVisitsMatchScalarOnAnalyticZigzag) {
  expect_batched_matches_scalar(
      ProportionalAlgorithm(5, 2).build_unbounded_fleet(), 32);
}

TEST(VisitSweep, BatchedFirstVisitsMatchScalarOnAnalyticRay) {
  std::vector<Trajectory> robots;
  robots.emplace_back(std::make_shared<AnalyticRay>(+1));
  robots.emplace_back(std::make_shared<AnalyticRay>(-1));
  expect_batched_matches_scalar(Fleet(std::move(robots)), 32);
}

TEST(VisitSweep, BatchedFirstVisitsMatchScalarOnNonConeFleet) {
  expect_batched_matches_scalar(
      ClassicCowPath(3, 1, /*mirrored=*/true).build_fleet(64), 32);
}

TEST(VisitSweep, UnreachedPositionsAreInfiniteOnBothPaths) {
  // Extent 4 leaves |x| > 4 unvisited: batched and scalar must agree on
  // exactly which probes are never visited.
  expect_batched_matches_scalar(ProportionalAlgorithm(3, 1).build_fleet(4),
                                32);
}

/// The emission pass of detail::probe_magnitudes, re-derived, with the
/// ORIGINAL quadratic first-occurrence dedup (std::find per candidate).
/// The production sorted-permutation dedup must keep the identical
/// probes in the identical order.
std::vector<Real> naive_probe_magnitudes(const Fleet& fleet, const int side,
                                         const CrEvalOptions& options) {
  std::vector<Real> turns = fleet.turning_positions_in(
      side, options.window_lo * (1 - tol::kRelative), options.window_hi);
  turns.push_back(options.window_lo);
  turns.push_back(options.window_hi);
  std::sort(turns.begin(), turns.end());
  turns.erase(std::unique(turns.begin(), turns.end(),
                          [](const Real a, const Real b) {
                            return approx_equal(a, b);
                          }),
              turns.end());
  std::vector<Real> probes;
  const auto push_unique = [&](const Real magnitude) {
    if (magnitude < options.window_lo || magnitude > options.window_hi) {
      return;
    }
    if (std::find(probes.begin(), probes.end(), magnitude) == probes.end()) {
      probes.push_back(magnitude);
    }
  };
  for (std::size_t i = 0; i < turns.size(); ++i) {
    push_unique(turns[i] * (1 + tol::kLimitProbe));
    push_unique(turns[i]);
    if (i + 1 < turns.size() && options.interior_samples > 0) {
      const int k = options.interior_samples;
      for (int s = 1; s <= k; ++s) {
        push_unique(turns[i] + (turns[i + 1] - turns[i]) *
                                   static_cast<Real>(s) /
                                   static_cast<Real>(k + 1));
      }
    }
  }
  return probes;
}

TEST(ProbeBatch, DedupMatchesQuadraticReferenceOnLargeTurnGrid) {
  // A(9, 4) out to 4096 puts hundreds of turning points (plus their
  // right-limits and interior samples) in the window — large enough that
  // an order-scrambling or duplicate-leaking dedup cannot hide.
  const Fleet fleet = ProportionalAlgorithm(9, 4).build_fleet(4096);
  CrEvalOptions options;
  options.window_hi = 1024;
  for (const int side : {+1, -1}) {
    const std::vector<Real> fast =
        detail::probe_magnitudes(fleet, side, options);
    const std::vector<Real> reference =
        naive_probe_magnitudes(fleet, side, options);
    ASSERT_GT(fast.size(), 50u);
    ASSERT_EQ(fast.size(), reference.size()) << "side " << side;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_TRUE(value_identical(fast[i], reference[i]))
          << "side " << side << " probe " << i;
    }
    // And no exact duplicate survives.
    std::vector<Real> sorted = fast;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
  }
}

TEST(ProbeBatch, SlackBandTurnNeverEmitsProbesBelowWindowLo) {
  // A turning point engineered just inside the window_lo * (1 -
  // kRelative) slack band: its right-limit lands inside the window (and
  // must be probed), but the turn itself and any interior sample toward
  // it sit strictly below window_lo and must be clamped out.
  const Real slack_turn = 1 - tol::kRelative / 4;
  TrajectoryBuilder builder;
  builder.start_at(0, 0);
  builder.move_to(slack_turn);
  builder.move_to(-40);
  builder.move_to(40);
  std::vector<Trajectory> robots;
  robots.push_back(std::move(builder).build());
  const Fleet fleet(std::move(robots));

  CrEvalOptions options;
  options.window_lo = 1;
  options.window_hi = 16;
  const std::vector<Real> probes =
      detail::probe_magnitudes(fleet, +1, options);
  ASSERT_FALSE(probes.empty());
  for (const Real magnitude : probes) {
    EXPECT_GE(magnitude, options.window_lo);
    EXPECT_LE(magnitude, options.window_hi);
  }
  // The slack band exists so this right-limit is probed.
  const Real limit = slack_turn * (1 + tol::kLimitProbe);
  ASSERT_GT(limit, options.window_lo);
  EXPECT_NE(std::find(probes.begin(), probes.end(), limit), probes.end());
}

TEST(ProbeBatch, ConcatenatesSidesInEmissionOrder) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  CrEvalOptions options;
  options.window_hi = 16;
  const kernels::ProbeBatch batch =
      kernels::build_probe_batch(fleet, options);
  const std::vector<Real> positive =
      detail::probe_magnitudes(fleet, +1, options);
  const std::vector<Real> negative =
      detail::probe_magnitudes(fleet, -1, options);
  ASSERT_EQ(batch.size(), positive.size() + negative.size());
  ASSERT_EQ(batch.positive_count, positive.size());
  for (std::size_t i = 0; i < positive.size(); ++i) {
    EXPECT_TRUE(value_identical(batch.magnitudes[i], positive[i]));
    EXPECT_EQ(batch.sides[i], 1);
  }
  for (std::size_t i = 0; i < negative.size(); ++i) {
    EXPECT_TRUE(
        value_identical(batch.magnitudes[batch.positive_count + i],
                        negative[i]));
    EXPECT_EQ(batch.sides[batch.positive_count + i], -1);
  }
}

TEST(VisitColumns, DetectionMatchesFleetQueriesProbeByProbe) {
  for (const bool analytic : {false, true}) {
    const ProportionalAlgorithm algo(5, 2);
    const Fleet fleet =
        analytic ? algo.build_unbounded_fleet() : algo.build_fleet(64);
    CrEvalOptions options;
    options.window_hi = 16;
    const kernels::ProbeBatch batch =
        kernels::build_probe_batch(fleet, options);
    kernels::VisitColumns columns;
    for (const int f : {0, 2, 4}) {
      kernels::fill_visit_columns(fleet, f, batch, columns);
      ASSERT_EQ(columns.detection.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Real x =
            static_cast<Real>(batch.sides[i]) * batch.magnitudes[i];
        EXPECT_TRUE(value_identical(columns.detection[i],
                                    fleet.detection_time(x, f)))
            << (analytic ? "analytic" : "dense") << " f=" << f
            << " probe " << i;
      }
    }
  }
}

TEST(VisitColumns, FaultBudgetBeyondFleetSizeIsAllUndetected) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  const kernels::ProbeBatch batch = kernels::build_probe_batch(fleet, {});
  kernels::VisitColumns columns;
  kernels::fill_visit_columns(fleet, 3, batch, columns);
  for (const Real time : columns.detection) {
    EXPECT_TRUE(std::isinf(time));
  }
}

/// All 41 (n, f) pairs with 1 <= f < n < 2f + 2 and n <= 12 — the
/// paper's whole regime at test scale.
std::vector<std::pair<int, int>> regime_pairs() {
  std::vector<std::pair<int, int>> pairs;
  for (int f = 1; f <= 11; ++f) {
    for (int n = f + 1; n < 2 * f + 2 && n <= 12; ++n) {
      pairs.push_back({n, f});
    }
  }
  return pairs;
}

/// measure_cr_kernel vs the scalar reference scan over direct Fleet
/// queries: every result field bitwise, or the identical throw text.
void expect_kernel_matches_scalar(const Fleet& fleet, const int f,
                                  const CrEvalOptions& options) {
  std::string kernel_error;
  std::string scalar_error;
  CrEvalResult kernel;
  CrEvalResult scalar;
  try {
    kernel = kernels::measure_cr_kernel(fleet, f, options);
  } catch (const NumericError& error) {
    kernel_error = error.what();
  }
  try {
    scalar = detail::measure_cr_with(
        fleet, f, options,
        [&fleet, f](const Real x) { return fleet.detection_time(x, f); });
  } catch (const NumericError& error) {
    scalar_error = error.what();
  }
  ASSERT_EQ(kernel_error, scalar_error) << "f=" << f;
  EXPECT_TRUE(value_identical(kernel.cr, scalar.cr)) << "f=" << f;
  EXPECT_TRUE(value_identical(kernel.argmax, scalar.argmax)) << "f=" << f;
  EXPECT_TRUE(value_identical(kernel.cr_positive, scalar.cr_positive))
      << "f=" << f;
  EXPECT_TRUE(value_identical(kernel.cr_negative, scalar.cr_negative))
      << "f=" << f;
  EXPECT_EQ(kernel.probes, scalar.probes) << "f=" << f;
  EXPECT_EQ(kernel.undetected_probes, scalar.undetected_probes)
      << "f=" << f;
}

TEST(MeasureCrKernel, BitIdenticalToScalarAcrossAllRegimePairs) {
  const std::vector<std::pair<int, int>> pairs = regime_pairs();
  ASSERT_EQ(pairs.size(), 41u);
  CrEvalOptions options;
  options.window_hi = 16;
  for (const auto& pair : pairs) {
    const int n = pair.first;
    const int f = pair.second;
    SCOPED_TRACE(testing::Message() << "n=" << n);
    expect_kernel_matches_scalar(ProportionalAlgorithm(n, f).build_fleet(64),
                                 f, options);
  }
}

TEST(MeasureCrKernel, BitIdenticalToScalarOnAnalyticBackend) {
  CrEvalOptions options;
  options.window_hi = 64;
  for (const auto& pair :
       std::vector<std::pair<int, int>>{{3, 1}, {7, 4}, {12, 11}}) {
    const int n = pair.first;
    const int f = pair.second;
    SCOPED_TRACE(testing::Message() << "n=" << n);
    expect_kernel_matches_scalar(
        ProportionalAlgorithm(n, f).build_unbounded_fleet(), f, options);
  }
}

TEST(MeasureCrKernel, MeasureCrDelegatesToTheKernelPath) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  CrEvalOptions options;
  options.window_hi = 16;
  const CrEvalResult via_facade = measure_cr(fleet, 2, options);
  const CrEvalResult via_kernel =
      kernels::measure_cr_kernel(fleet, 2, options);
  EXPECT_TRUE(value_identical(via_facade.cr, via_kernel.cr));
  EXPECT_TRUE(value_identical(via_facade.argmax, via_kernel.argmax));
  EXPECT_EQ(via_facade.probes, via_kernel.probes);
}

TEST(MeasureCrKernel, UndetectedProbeThrowsLikeTheScalarScan) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(4);
  CrEvalOptions options;
  options.window_hi = 4096;  // far beyond the fleet's reach
  EXPECT_THROW((void)kernels::measure_cr_kernel(fleet, 1, options),
               NumericError);
  options.require_finite = false;
  const CrEvalResult relaxed = kernels::measure_cr_kernel(fleet, 1, options);
  EXPECT_GT(relaxed.undetected_probes, 0);
}

/// One robot from the origin that turns at `turn`, then sweeps
/// +-extent.
Fleet single_turn_fleet(const Real turn, const Real extent) {
  TrajectoryBuilder builder;
  builder.start_at(0, 0);
  builder.move_to(turn);
  builder.move_to(-extent);
  builder.move_to(extent);
  std::vector<Trajectory> robots;
  robots.push_back(std::move(builder).build());
  return Fleet(std::move(robots));
}

TEST(MeasureCrKernel, SampleEqualToARightLimitTakesTheBuiltPath) {
  // Turns at 1 (window_lo) and 1 + 2*delta, where 1 + delta is the
  // right-limit probe of 1: with k = 1 the piece's only sample lands on
  // that right-limit bit for bit, so it cannot be a counted run — the
  // kernel must build it and drop it as a repeat, like the scalar dedup.
  const Real limit = 1 * (1 + tol::kLimitProbe);
  const Real delta = limit - 1;
  const Real turn = 1 + 2 * delta;
  ASSERT_FALSE(approx_equal(1, turn));
  const Fleet fleet = single_turn_fleet(turn, 64);
  CrEvalOptions options;
  options.window_hi = 16;
  options.interior_samples = 1;
  const std::vector<Real> turns = fleet.turning_positions_in(+1, 0, 16);
  ASSERT_EQ(turns.size(), 1u);
  ASSERT_TRUE(value_identical(turns[0], turn));
  ASSERT_TRUE(value_identical(1 + (turn - 1) * 1 / 2, limit));
  expect_kernel_matches_scalar(fleet, 0, options);

  // A piece so narrow that its first samples sit BELOW the right-limit
  // of its own lower turn: also built, and emitted in the scalar order.
  const Fleet narrow = single_turn_fleet(1 + 3 * delta, 64);
  options.interior_samples = 4;
  expect_kernel_matches_scalar(narrow, 0, options);
}

TEST(MeasureCrKernel, FleetStartingOffTheOriginMatchesScalar) {
  // Starts at +5, -3 and +0.5: pieces below a robot's start on its side
  // fall outside the prune bound's premise and must be evaluated.
  std::vector<Trajectory> robots;
  for (const auto& [start, first] :
       std::vector<std::pair<Real, Real>>{{5, 40}, {-3, 2}, {0.5L, -6}}) {
    TrajectoryBuilder builder;
    builder.start_at(0, start);
    Real turn = first;
    for (int leg = 0; leg < 8; ++leg) {
      builder.move_to(turn);
      turn *= -2;
    }
    robots.push_back(std::move(builder).build());
  }
  const Fleet fleet(std::move(robots));
  for (const int samples : {4, 16, 64}) {
    for (const int f : {0, 1, 2}) {
      CrEvalOptions options;
      options.window_hi = 64;
      options.interior_samples = samples;
      options.require_finite = false;
      expect_kernel_matches_scalar(fleet, f, options);
    }
  }

  // The start premise is load-bearing.  Robot 0 starts at 5 and runs
  // outward, so T(5) = 0; robot 1 reaches 1 at t = 1, then slows to
  // half speed and turns at 5.  On the piece (1, 5) K = 2 - 1/x rises
  // above every anchor before it, although the speed bound anchored at
  // T(5) = 0 is negative: only lo >= every start keeps it evaluated.
  TrajectoryBuilder outward;
  outward.start_at(0, 5);
  outward.move_to(64);
  outward.move_to(-64);
  TrajectoryBuilder slowing;
  slowing.start_at(0, 0);
  slowing.move_to(1);
  slowing.move_to_at(5, 9);
  slowing.move_to(-64);
  std::vector<Trajectory> pair;
  pair.push_back(std::move(outward).build());
  pair.push_back(std::move(slowing).build());
  const Fleet outrun(std::move(pair));
  CrEvalOptions options;
  options.window_hi = 16;
  expect_kernel_matches_scalar(outrun, 0, options);
  EXPECT_GT(kernels::measure_cr_kernel(outrun, 0, options).cr_positive,
            Real{1.5L});
}

TEST(MeasureCrKernel, InteriorPeakOfANonZigzagFleetIsNeverPruned) {
  // The safety-net case: one robot crawls at speed 1/4 from 1 to 2,
  // then runs at speed 1 with no turn, so K peaks at 7/4 on the
  // interior sample x = 4 of the piece (1, 16) — above every anchor.
  // The speed bound sees that peak coming and keeps the piece.  A
  // second robot sweeps the negative side at K = 1.
  TrajectoryBuilder crawler;
  crawler.start_at(0, 0);
  crawler.move_to(1);
  crawler.move_to_at(2, 5);
  crawler.move_to(64);
  TrajectoryBuilder leftward;
  leftward.start_at(0, 0);
  leftward.move_to(-64);
  std::vector<Trajectory> robots;
  robots.push_back(std::move(crawler).build());
  robots.push_back(std::move(leftward).build());
  const Fleet fleet(std::move(robots));
  CrEvalOptions options;
  options.window_hi = 16;
  expect_kernel_matches_scalar(fleet, 0, options);
  const CrEvalResult result = kernels::measure_cr_kernel(fleet, 0, options);
  EXPECT_TRUE(value_identical(result.cr_positive, Real{7} / 4));
  EXPECT_TRUE(value_identical(result.argmax, Real{4}));
}

TEST(MeasureCrKernel, CrashTruncatedFleetWithUndetectedProbes) {
  const Fleet clean = ProportionalAlgorithm(5, 2).build_fleet(64);
  const Fleet crashed =
      truncate_at_crashes(clean, {kInfinity, 9, kInfinity, 20, 3});
  CrEvalOptions options;
  options.window_hi = 32;
  options.interior_samples = 16;
  for (const bool require_finite : {false, true}) {
    options.require_finite = require_finite;
    for (const int f : {0, 1, 2}) {
      expect_kernel_matches_scalar(crashed, f, options);
    }
  }
  options.require_finite = false;
  EXPECT_GT(kernels::measure_cr_kernel(crashed, 2, options).undetected_probes,
            0);
  options.require_finite = true;
  EXPECT_THROW((void)kernels::measure_cr_kernel(crashed, 2, options),
               NumericError);
}

TEST(MeasureCrKernel, ConstantRatioTiesKeepTheFirstProbe) {
  // Two unit-speed rays: T(x) = |x| on both sides, so K == 1 at every
  // probe.  Every sample ties the supremum; none may refine it, and the
  // positive side's first probe (window_lo's right-limit) stays the
  // argmax.
  std::vector<Trajectory> robots;
  robots.emplace_back(std::make_shared<AnalyticRay>(+1));
  robots.emplace_back(std::make_shared<AnalyticRay>(-1));
  const Fleet fleet(std::move(robots));
  CrEvalOptions options;
  options.window_hi = 1024;
  options.interior_samples = 16;
  expect_kernel_matches_scalar(fleet, 0, options);
  const CrEvalResult result = kernels::measure_cr_kernel(fleet, 0, options);
  EXPECT_TRUE(value_identical(result.cr, Real{1}));
  EXPECT_TRUE(value_identical(result.argmax,
                              options.window_lo * (1 + tol::kLimitProbe)));
}

TEST(MeasureCrKernel, PrunesMostInteriorSamplesOfAWideScan) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "eval.cr.probes_evaluated needs LINESEARCH_OBS=ON";
  }
  const Fleet fleet = ProportionalAlgorithm(12, 11).build_unbounded_fleet();
  CrEvalOptions options;
  options.window_hi = 65536;
  options.interior_samples = 64;
  obs::Registry::instance().reset();
  const CrEvalResult result = kernels::measure_cr_kernel(fleet, 11, options);
  std::uint64_t evaluated = 0;
  for (const obs::MetricSnapshot& snap :
       obs::Registry::instance().snapshot()) {
    if (snap.name == "eval.cr.probes_evaluated") evaluated = snap.value;
  }
  ASSERT_EQ(result.probes, 12673);
  EXPECT_GT(evaluated, 0u);
  EXPECT_LE(evaluated * 20, static_cast<std::uint64_t>(result.probes));
  expect_kernel_matches_scalar(fleet, 11, options);
}

TEST(OrderStatisticLine, TieBreakIsLowestIndexAmongAttainers) {
  // Four lines, three of which share the bit-identical value at x = 3
  // (indices 1, 2, 3); index 0 is strictly cheaper.  For k = 1 the
  // statistic is the shared value and the PINNED winner is index 1.
  std::vector<detail::VisitLine> lines(4);
  lines[0] = {true, 2, 1, Real{0.5L}};
  lines[1] = {true, 2, 5, 1};
  lines[2] = {true, 2, 5, 1};
  lines[3] = {true, 2, 5, 1};
  EXPECT_EQ(detail::order_statistic_line(lines, 3, 1), 1u);
  EXPECT_EQ(detail::order_statistic_line(lines, 3, 2), 1u);
  EXPECT_EQ(detail::order_statistic_line(lines, 3, 3), 1u);
  EXPECT_EQ(detail::order_statistic_line(lines, 3, 0), 0u);

  // The SoA columns must pin the same winner.
  detail::LineColumns columns;
  for (const detail::VisitLine& line : lines) {
    columns.finite.push_back(line.finite ? 1 : 0);
    columns.anchor.push_back(line.anchor);
    columns.value.push_back(line.value);
    columns.slope.push_back(line.slope);
  }
  EXPECT_EQ(detail::order_statistic_line(columns, 3, 1), 1u);
  EXPECT_EQ(detail::order_statistic_line(columns, 3, 2), 1u);
  EXPECT_EQ(detail::order_statistic_line(columns, 3, 3), 1u);
  EXPECT_EQ(detail::order_statistic_line(columns, 3, 0), 0u);
}

TEST(LineCrossings, SortedAscendingWithExactDuplicatesRemoved) {
  // Two distinct line PAIRS crossing at the bit-identical abscissa x = 2
  // (a symmetric-fleet situation), plus one pair crossing at x = 3.
  std::vector<detail::VisitLine> lines(4);
  lines[0] = {true, 0, 0, 1};           // t = x
  lines[1] = {true, 0, 4, -1};          // t = 4 - x      (meets 0 at x=2)
  lines[2] = {true, 0, -2, 2};          // t = 2x - 2     (meets 1 at x=2)
  lines[3] = {true, 0, 9, -2};          // t = 9 - 2x     (meets 0 at x=3)
  const std::vector<Real> crossings = detail::line_crossings(lines, 0, 10);
  ASSERT_FALSE(crossings.empty());
  EXPECT_TRUE(std::is_sorted(crossings.begin(), crossings.end()));
  EXPECT_EQ(std::adjacent_find(crossings.begin(), crossings.end()),
            crossings.end());
  EXPECT_NE(std::find(crossings.begin(), crossings.end(), Real{2}),
            crossings.end());
  EXPECT_NE(std::find(crossings.begin(), crossings.end(), Real{3}),
            crossings.end());

  // SoA path reports the identical list.
  detail::LineColumns columns;
  for (const detail::VisitLine& line : lines) {
    columns.finite.push_back(line.finite ? 1 : 0);
    columns.anchor.push_back(line.anchor);
    columns.value.push_back(line.value);
    columns.slope.push_back(line.slope);
  }
  std::vector<Real> soa;
  detail::line_crossings_into(columns, 0, 10, soa);
  ASSERT_EQ(soa.size(), crossings.size());
  for (std::size_t i = 0; i < soa.size(); ++i) {
    EXPECT_TRUE(value_identical(soa[i], crossings[i]));
  }
}

TEST(LineColumns, EvaluationMatchesVisitLineAt) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  const std::vector<Real> criticals =
      detail::critical_magnitudes(fleet, +1, 1, 16);
  ASSERT_GE(criticals.size(), 2u);
  detail::LineColumns columns;
  for (std::size_t i = 0; i + 1 < criticals.size(); ++i) {
    const Real a = criticals[i];
    const Real b = criticals[i + 1];
    const std::vector<detail::VisitLine> lines =
        detail::visit_lines(fleet, +1, a, b);
    detail::fill_line_columns(fleet, +1, a, b, columns);
    ASSERT_EQ(columns.size(), lines.size());
    const Real x = a + (b - a) / 3;
    detail::evaluate_lines(columns, x);
    for (std::size_t r = 0; r < lines.size(); ++r) {
      EXPECT_TRUE(value_identical(columns.at[r], lines[r].at(x)))
          << "interval " << i << " robot " << r;
      EXPECT_EQ(columns.finite[r] != 0, lines[r].finite);
    }
    for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
      EXPECT_TRUE(value_identical(
          detail::order_statistic_at(columns, x, k),
          detail::order_statistic_at(lines, x, k)));
      EXPECT_EQ(detail::order_statistic_line(columns, x, k),
                detail::order_statistic_line(lines, x, k));
    }
  }
}

TEST(Kernels, SimdCompiledReflectsTheBuildFlag) {
#if defined(LINESEARCH_SIMD_ENABLED) && LINESEARCH_SIMD_ENABLED
  EXPECT_TRUE(kernels::simd_compiled());
#else
  EXPECT_FALSE(kernels::simd_compiled());
#endif
}

}  // namespace
}  // namespace linesearch
