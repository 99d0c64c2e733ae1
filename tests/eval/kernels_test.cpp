// SoA kernel layer (eval/kernels, sim/visit_sweep, eval/interval_lines
// columns): bit-identity against the scalar reference paths, the probe
// dedup/window regressions, and the pinned order-statistic tie-breaks.
#include "eval/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
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

/// A scan's result, or the text of the NumericError it threw.
struct ScanOutcome {
  CrEvalResult result;
  std::string error;
};

template <typename Scan>
ScanOutcome run_scan(const Scan& scan) {
  ScanOutcome outcome;
  try {
    outcome.result = scan();
  } catch (const NumericError& error) {
    outcome.error = error.what();
  }
  return outcome;
}

ScanOutcome scalar_scan(const Fleet& fleet, const int f,
                        const CrEvalOptions& options) {
  return run_scan([&] {
    return detail::measure_cr_with(
        fleet, f, options,
        [&fleet, f](const Real x) { return fleet.detection_time(x, f); });
  });
}

/// Every result field bitwise, or the identical throw text.
void expect_same_outcome(const ScanOutcome& got, const ScanOutcome& want,
                         const std::string& what) {
  ASSERT_EQ(got.error, want.error) << what;
  EXPECT_TRUE(value_identical(got.result.cr, want.result.cr)) << what;
  EXPECT_TRUE(value_identical(got.result.argmax, want.result.argmax))
      << what;
  EXPECT_TRUE(value_identical(got.result.cr_positive, want.result.cr_positive))
      << what;
  EXPECT_TRUE(value_identical(got.result.cr_negative, want.result.cr_negative))
      << what;
  EXPECT_EQ(got.result.probes, want.result.probes) << what;
  EXPECT_EQ(got.result.undetected_probes, want.result.undetected_probes)
      << what;
}

/// measure_cr_kernel vs the scalar reference scan over direct Fleet
/// queries: every result field bitwise, or the identical throw text.
void expect_kernel_matches_scalar(const Fleet& fleet, const int f,
                                  const CrEvalOptions& options) {
  expect_same_outcome(
      run_scan([&] { return kernels::measure_cr_kernel(fleet, f, options); }),
      scalar_scan(fleet, f, options), "f=" + std::to_string(f));
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

/// The kernel through `profile` vs the profile-free kernel and vs the
/// scalar reference scan: every field bitwise, or the same throw text.
void expect_profile_matches(const Fleet& fleet, const int f,
                            const CrEvalOptions& options,
                            const kernels::AnchorProfile& profile) {
  const std::string what =
      "f=" + std::to_string(f) +
      " window=[" + std::to_string(static_cast<double>(options.window_lo)) +
      ", " + std::to_string(static_cast<double>(options.window_hi)) +
      "] k=" + std::to_string(options.interior_samples) +
      " require_finite=" + std::to_string(options.require_finite);
  const ScanOutcome profiled = run_scan(
      [&] { return kernels::measure_cr_kernel(fleet, f, options, &profile); });
  expect_same_outcome(
      profiled,
      run_scan([&] { return kernels::measure_cr_kernel(fleet, f, options); }),
      what + " (vs profile-free kernel)");
  expect_same_outcome(profiled, scalar_scan(fleet, f, options),
                      what + " (vs scalar)");
}

/// The cached turn magnitudes of one profile side.
std::vector<Real> magnitudes(const kernels::AnchorProfile::Side& held) {
  std::vector<Real> out;
  for (const kernels::AnchorProfile::Turn& turn : held.turns) {
    out.push_back(turn.magnitude);
  }
  return out;
}

Real right_limit(const Real turn) { return turn * (1 + tol::kLimitProbe); }

TEST(AnchorProfile, HoldsEveryTurnUpToItsExtentWithItsDetectionTimes) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_unbounded_fleet();
  const kernels::AnchorProfile small =
      kernels::AnchorProfile(2).grown(fleet, 16);
  const kernels::AnchorProfile profile = small.grown(fleet, 256);
  EXPECT_EQ(profile.budget(), 2);
  EXPECT_TRUE(value_identical(profile.extent(), Real{256}));
  EXPECT_TRUE(profile.reaches(256));
  EXPECT_FALSE(profile.reaches(257));
  const kernels::AnchorProfile direct =
      kernels::AnchorProfile(2).grown(fleet, 256);
  for (const int side : {+1, -1}) {
    SCOPED_TRACE(testing::Message() << "side=" << side);
    const kernels::AnchorProfile::Side& held = profile.side(side);
    const std::vector<Real> turns = fleet.turning_positions_in(side, 0, 256);
    ASSERT_EQ(held.turns.size(), turns.size());
    ASSERT_EQ(direct.side(side).turns.size(), turns.size());
    EXPECT_FALSE(held.capped);
    EXPECT_TRUE(value_identical(held.extent, Real{256}));
    for (std::size_t i = 0; i < turns.size(); ++i) {
      const kernels::AnchorProfile::Turn& turn = held.turns[i];
      const Real limit = turns[i] * (1 + tol::kLimitProbe);
      EXPECT_TRUE(value_identical(turn.magnitude, turns[i]));
      EXPECT_TRUE(value_identical(turn.time,
                                  fleet.detection_time(side * turns[i], 2)));
      EXPECT_TRUE(value_identical(turn.limit_time,
                                  fleet.detection_time(side * limit, 2)));
      // Growing from 16 to 256 holds exactly what one build at 256 does.
      EXPECT_TRUE(value_identical(turn.time, direct.side(side).turns[i].time));
      EXPECT_TRUE(value_identical(turn.limit_time,
                                  direct.side(side).turns[i].limit_time));
    }
  }
  // Growing to a smaller extent changes nothing.
  EXPECT_EQ(profile.grown(fleet, 64).side(+1).turns.size(),
            profile.side(+1).turns.size());
}

/// The profile of (fleet, budget) grown until both sides hit the cap.
kernels::AnchorProfile capped_profile(const Fleet& fleet, const int budget) {
  kernels::AnchorProfile profile(budget);
  Real extent = 256;
  while (!(profile.side(+1).capped && profile.side(-1).capped)) {
    extent *= Real{0x1p64L};
    profile = profile.grown(fleet, extent);
  }
  return profile;
}

TEST(AnchorProfile, CapStopsASideBelowItsFirstMissingTurn) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  const kernels::AnchorProfile profile = capped_profile(fleet, 1);
  for (const int side : {+1, -1}) {
    SCOPED_TRACE(testing::Message() << "side=" << side);
    const kernels::AnchorProfile::Side& held = profile.side(side);
    ASSERT_FALSE(held.turns.empty());
    EXPECT_LE(held.turns.size(), kernels::AnchorProfile::kMaxTurnsPerSide);
    EXPECT_GT(held.turns.size(),
              kernels::AnchorProfile::kMaxTurnsPerSide - fleet.size());
    EXPECT_TRUE(value_identical(held.extent, held.turns.back().magnitude));
    EXPECT_LT(held.extent, profile.extent());
    const std::vector<Real> turns =
        fleet.turning_positions_in(side, 0, held.extent);
    ASSERT_EQ(turns.size(), held.turns.size());
    for (std::size_t i = 0; i < turns.size(); ++i) {
      ASSERT_TRUE(value_identical(turns[i], held.turns[i].magnitude));
    }
  }
  // A capped profile reaches every magnitude and never grows again.
  EXPECT_TRUE(profile.reaches(kInfinity));
  const kernels::AnchorProfile again =
      profile.grown(fleet, profile.extent() * 4);
  EXPECT_EQ(again.side(+1).turns.size(), profile.side(+1).turns.size());
  EXPECT_EQ(again.side(-1).turns.size(), profile.side(-1).turns.size());
}

TEST(MeasureCrKernel, ProfileScanIsBitIdenticalAcrossAllRegimePairs) {
  // The service's shape: A(n, f) on the analytic backend at budgets f
  // (the paper's model) and 2f (the Byzantine quorum), through a
  // profile grown 2^5 -> 2^8, for windows inside the profile, with
  // window_lo != 1, past its extent, and with window ends bit-equal to
  // a cached turn and to a cached right-limit.
  const std::vector<std::pair<int, int>> pairs = regime_pairs();
  ASSERT_EQ(pairs.size(), 41u);
  for (const auto& [n, f] : pairs) {
    const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
    for (const int budget : {f, 2 * f}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " budget=" << budget);
      const kernels::AnchorProfile profile =
          kernels::AnchorProfile(budget).grown(fleet, 32).grown(fleet, 256);
      const std::vector<Real> turns = magnitudes(profile.side(+1));
      const std::size_t low = static_cast<std::size_t>(
          std::upper_bound(turns.begin(), turns.end(), Real{2}) -
          turns.begin());
      const std::size_t high = turns.size() - 2;
      ASSERT_LT(low + 2, high);
      std::vector<std::pair<Real, Real>> windows{
          {1, 128}, {3.25L, 200}, {2, 2048},
          {turns[low], right_limit(turns[high])},
          {right_limit(turns[low]), turns[high]}};
      for (const auto& [lo, hi] : windows) {
        for (const int k : {0, 4, 16, 64}) {
          for (const bool require_finite : {true, false}) {
            CrEvalOptions options;
            options.window_lo = lo;
            options.window_hi = hi;
            options.interior_samples = k;
            options.require_finite = require_finite;
            expect_profile_matches(fleet, budget, options, profile);
          }
        }
      }
    }
  }
}

TEST(MeasureCrKernel, ProfileScanPastTheCapIsBitIdentical) {
  for (const auto& [n, f] :
       std::vector<std::pair<int, int>>{{3, 1}, {5, 2}, {12, 11}}) {
    const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
    for (const int budget : {f, 2 * f}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " budget=" << budget);
      const kernels::AnchorProfile profile = capped_profile(fleet, budget);
      const Real low = std::min(profile.side(+1).extent,
                                profile.side(-1).extent);
      const Real high = std::max(profile.side(+1).extent,
                                 profile.side(-1).extent);
      for (const auto& [lo, hi] : std::vector<std::pair<Real, Real>>{
               {low / 64, high * 64}, {high * 2, high * 512}}) {
        for (const int k : {0, 16}) {
          for (const bool require_finite : {true, false}) {
            CrEvalOptions options;
            options.window_lo = lo;
            options.window_hi = hi;
            options.interior_samples = k;
            options.require_finite = require_finite;
            expect_profile_matches(fleet, budget, options, profile);
          }
        }
      }
    }
  }
}

/// Every turn of both profiles, bitwise.
void expect_same_profile(const kernels::AnchorProfile& got,
                         const kernels::AnchorProfile& want) {
  EXPECT_TRUE(value_identical(got.extent(), want.extent()));
  for (const int side : {+1, -1}) {
    const auto& a = got.side(side);
    const auto& b = want.side(side);
    ASSERT_EQ(a.turns.size(), b.turns.size()) << "side " << side;
    EXPECT_TRUE(value_identical(a.extent, b.extent)) << "side " << side;
    EXPECT_EQ(a.capped, b.capped) << "side " << side;
    for (std::size_t i = 0; i < a.turns.size(); ++i) {
      EXPECT_TRUE(value_identical(a.turns[i].magnitude, b.turns[i].magnitude));
      EXPECT_TRUE(value_identical(a.turns[i].time, b.turns[i].time));
      EXPECT_TRUE(
          value_identical(a.turns[i].limit_time, b.turns[i].limit_time));
    }
  }
}

TEST(MeasureCrKernel, WindowEndsFilledWithAGrowthAreOneSweep) {
  // A growing miss: grown() with the window ends as extra probes must
  // grow the profile bitwise like grown() alone, and the scan taking the
  // ends' times as known must equal the scan that fills them, bitwise,
  // from an empty profile, from a narrower one and past the cap.  On an
  // analytic fleet with no kept samples the pair sweeps each robot once,
  // not twice.
  for (const auto& [n, f] :
       std::vector<std::pair<int, int>>{{2, 1}, {5, 2}, {8, 5}, {12, 11}}) {
    const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
    for (const int budget : {f, 2 * f}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " budget=" << budget);
      const kernels::AnchorProfile empty(budget);
      const kernels::AnchorProfile narrow = empty.grown(fleet, 16);
      for (const kernels::AnchorProfile* base : {&empty, &narrow}) {
        for (const auto& [lo, hi, extent] :
             std::vector<std::tuple<Real, Real, Real>>{
                 {1, 100, 128}, {3.25L, 200, 256}, {1, 1e30L, 1e30L}}) {
          kernels::KnownProbes ends{
              .probes = kernels::window_end_probes(lo, hi), .times = {}};
          const kernels::AnchorProfile grown =
              base->grown(fleet, extent, ends.probes, ends.times);
          const kernels::AnchorProfile want = base->grown(fleet, extent);
          expect_same_profile(grown, want);
          ASSERT_EQ(ends.times.size(), ends.probes.size());
          for (std::size_t i = 0; i < ends.times.size(); ++i) {
            EXPECT_TRUE(value_identical(
                ends.times[i],
                fleet.detection_time(ends.probes.sides[i] *
                                         ends.probes.magnitudes[i],
                                     budget)));
          }
          for (const int k : {0, 4}) {
            CrEvalOptions options;
            options.window_lo = lo;
            options.window_hi = hi;
            options.interior_samples = k;
            options.require_finite = false;
            expect_same_outcome(
                run_scan([&] {
                  return kernels::measure_cr_kernel(fleet, budget, options,
                                                    &grown, &ends);
                }),
                run_scan([&] {
                  return kernels::measure_cr_kernel(fleet, budget, options,
                                                    &want);
                }),
                "k=" + std::to_string(k));
          }
        }
      }
    }
  }
  if constexpr (obs::kEnabled) {
    const Fleet fleet = ProportionalAlgorithm(5, 2).build_unbounded_fleet();
    CrEvalOptions options;
    options.window_hi = 100;
    options.interior_samples = 0;
    const auto sweeps = [](const auto& run) {
      obs::Registry::instance().reset();
      run();
      for (const obs::MetricSnapshot& snap :
           obs::Registry::instance().snapshot()) {
        if (snap.name == "sim.analytic.batched_sweeps") return snap.value;
      }
      return std::uint64_t{0};
    };
    const kernels::AnchorProfile empty(2);
    EXPECT_EQ(sweeps([&] {
                kernels::KnownProbes ends{
                    .probes = kernels::window_end_probes(1, 100),
                    .times = {}};
                const kernels::AnchorProfile profile =
                    empty.grown(fleet, 128, ends.probes, ends.times);
                (void)kernels::measure_cr_kernel(fleet, 2, options, &profile,
                                                 &ends);
              }),
              5u);
    EXPECT_EQ(sweeps([&] {
                const kernels::AnchorProfile profile = empty.grown(fleet, 128);
                (void)kernels::measure_cr_kernel(fleet, 2, options, &profile);
              }),
              10u);
  }
}

TEST(MeasureCrKernel, ProfileOnDenseAndCrashedFleetsIsBitIdentical) {
  // The profile is backend-agnostic: a dense build whose turns stop
  // short of the profile's extent, and a crash-truncated fleet with
  // undetected probes.
  const Fleet dense = ProportionalAlgorithm(5, 2).build_fleet(64);
  const Fleet crashed =
      truncate_at_crashes(dense, {kInfinity, 9, kInfinity, 20, 3});
  for (const Fleet* fleet : {&dense, &crashed}) {
    for (const int f : {0, 2}) {
      const kernels::AnchorProfile profile =
          kernels::AnchorProfile(f).grown(*fleet, 32);
      for (const Real hi : {Real{16}, Real{32}, Real{128}}) {
        CrEvalOptions options;
        options.window_hi = hi;
        options.interior_samples = 16;
        options.require_finite = false;
        expect_profile_matches(*fleet, f, options, profile);
      }
    }
  }
}

TEST(MeasureCrKernel, ProfileForAnotherBudgetIsRejected) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  const kernels::AnchorProfile profile =
      kernels::AnchorProfile(2).grown(fleet, 64);
  EXPECT_THROW((void)kernels::measure_cr_kernel(fleet, 1, {}, &profile),
               PreconditionError);
}

TEST(MeasureCrKernel, ProfileSkipsTheCachedAnchorsFill) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "eval.cr.probes_evaluated needs LINESEARCH_OBS=ON";
  }
  const Fleet fleet = ProportionalAlgorithm(12, 11).build_unbounded_fleet();
  const kernels::AnchorProfile profile =
      kernels::AnchorProfile(11).grown(fleet, 65536);
  CrEvalOptions options;
  options.window_lo = 300;
  options.window_hi = 60000;
  options.interior_samples = 0;
  const auto evaluated_by = [&](const kernels::AnchorProfile* with) {
    obs::Registry::instance().reset();
    (void)kernels::measure_cr_kernel(fleet, 11, options, with);
    for (const obs::MetricSnapshot& snap :
         obs::Registry::instance().snapshot()) {
      if (snap.name == "eval.cr.probes_evaluated") return snap.value;
    }
    return std::uint64_t{0};
  };
  // Without a profile every anchor is filled; with one only the window
  // ends and window_lo's right-limit, on each side.
  EXPECT_GT(evaluated_by(nullptr), 100u);
  EXPECT_EQ(evaluated_by(&profile), 6u);
  // Window ends bit-equal to a cached turn (window_lo) and to a cached
  // right-limit (window_hi) take cached times too.  A(12, 11) turns at
  // the same magnitudes on both sides, so no anchor is filled at all.
  const std::vector<Real> turns = magnitudes(profile.side(+1));
  const std::vector<Real> mirror = magnitudes(profile.side(-1));
  options.window_lo = turns[turns.size() / 4];
  options.window_hi = right_limit(turns[turns.size() - 2]);
  ASSERT_TRUE(
      std::binary_search(mirror.begin(), mirror.end(), options.window_lo));
  ASSERT_TRUE(std::binary_search(mirror.begin(), mirror.end(),
                                 turns[turns.size() - 2]));
  EXPECT_EQ(evaluated_by(&profile), 0u);
  expect_profile_matches(fleet, 11, options, profile);
}

TEST(AnchorProfileRace, FourThreadsGrowAndReadOneProfile) {
  // The service's snapshot swap: readers copy the shared pointer under
  // a lock, a reader whose window passes the extent grows a private
  // copy and publishes it if it is wider.  Every answer must match the
  // serial profile-free scan.
  const Fleet fleet = ProportionalAlgorithm(7, 3).build_unbounded_fleet();
  std::vector<CrEvalOptions> windows;
  for (int e = 2; e <= 14; ++e) {
    CrEvalOptions options;
    options.window_lo = static_cast<Real>(e % 3 + 1);
    options.window_hi = std::ldexp(Real{1.5L}, e);
    options.interior_samples = 4 * (e % 4);
    windows.push_back(options);
  }
  std::vector<CrEvalResult> serial;
  for (const CrEvalOptions& options : windows) {
    serial.push_back(kernels::measure_cr_kernel(fleet, 3, options));
  }
  std::mutex mutex;
  std::shared_ptr<const kernels::AnchorProfile> shared =
      std::make_shared<const kernels::AnchorProfile>(3);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        for (std::size_t w = 0; w < windows.size(); ++w) {
          const std::size_t i =
              (w * static_cast<std::size_t>(2 * t + 1) +
               static_cast<std::size_t>(round)) %
              windows.size();
          std::shared_ptr<const kernels::AnchorProfile> snapshot;
          {
            const std::lock_guard<std::mutex> lock(mutex);
            snapshot = shared;
          }
          if (!snapshot->reaches(windows[i].window_hi)) {
            snapshot = std::make_shared<const kernels::AnchorProfile>(
                snapshot->grown(fleet, windows[i].window_hi));
            const std::lock_guard<std::mutex> lock(mutex);
            if (snapshot->extent() > shared->extent()) shared = snapshot;
          }
          const CrEvalResult got = kernels::measure_cr_kernel(
              fleet, 3, windows[i], snapshot.get());
          const CrEvalResult& want = serial[i];
          if (!value_identical(got.cr, want.cr) ||
              !value_identical(got.argmax, want.argmax) ||
              !value_identical(got.cr_positive, want.cr_positive) ||
              !value_identical(got.cr_negative, want.cr_negative) ||
              got.probes != want.probes ||
              got.undetected_probes != want.undetected_probes) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(shared->reaches(windows.back().window_hi));
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
