// eval/expectation: the exact expected-CR engine under per-visit iid
// probe failures, its Monte-Carlo cross-check, the p-sweep grid, and the
// probabilistic query regime of the service layer.  The load-bearing
// contracts pinned here:
//
//   * p == 0 collapses BITWISE to the fault-free path — both per-target
//     (expected_detection_time vs Fleet::detection_time) and per-scan
//     (measure_expected_cr vs measure_cr, all 41 regime pairs);
//   * divergence is certified, not approximated: past the ladder
//     threshold kappa^(-1/n) the engine reports kInfinity and the codec
//     pins it as "inf" on every surface (CSV field, NDJSON wire);
//   * where the exact series converges, a seeded Monte-Carlo realization
//     of the same fault model agrees within CLT bounds — the
//     expectation_vs_montecarlo differential, run here over the full
//     regime grid at p in {0.1, 0.5, 0.9};
//   * the service answers probabilistic queries value-identically to the
//     direct path for every cache configuration and thread count.
#include "eval/expectation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/stats.hpp"
#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "eval/cr_eval.hpp"
#include "eval/montecarlo.hpp"
#include "eval/validation.hpp"
#include "obs/metrics.hpp"
#include "sim/analytic.hpp"
#include "sim/faults.hpp"
#include "sim/zigzag.hpp"
#include "svc/query.hpp"
#include "svc/server.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "verify/differential.hpp"
#include "verify/fuzz.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace {

using svc::CrQuery;
using svc::FaultRegime;
using svc::QueryResult;
using svc::QueryService;
using svc::QueryServiceOptions;
using verify::value_identical;

/// The scan window every test in this file measures over.
CrEvalOptions small_eval() {
  return CrEvalOptions{.window_lo = 1,
                       .window_hi = 16,
                       .interior_samples = 2,
                       .require_finite = false};
}

ExpectationOptions expectation_at(const Real p) {
  ExpectationOptions options;
  options.p = p;
  options.eval = small_eval();
  return options;
}

/// Field-by-field value identity of two scan results.
void expect_scan_identical(const CrEvalResult& a, const CrEvalResult& b,
                           const std::string& context) {
  EXPECT_TRUE(value_identical(a.cr, b.cr)) << context;
  EXPECT_TRUE(value_identical(a.argmax, b.argmax)) << context;
  EXPECT_TRUE(value_identical(a.cr_positive, b.cr_positive)) << context;
  EXPECT_TRUE(value_identical(a.cr_negative, b.cr_negative)) << context;
  EXPECT_EQ(a.probes, b.probes) << context;
  EXPECT_EQ(a.undetected_probes, b.undetected_probes) << context;
}

// ---------------------------------------------------------------------------
// Convergence threshold
// ---------------------------------------------------------------------------

TEST(ExpectationThreshold, MatchesTheClosedForm) {
  for (const auto& [n, f] : {std::pair{3, 1}, {5, 2}, {12, 8}}) {
    const Real kappa = optimal_expansion_factor(n, f);
    const Real expected = std::pow(kappa, Real{-1} / n);
    EXPECT_NEAR(static_cast<double>(expectation_convergence_threshold(n, f)),
                static_cast<double>(expected), 1e-15)
        << "n=" << n << " f=" << f;
  }
}

TEST(ExpectationThreshold, EveryRegimePairSitsInsideTheUnitInterval) {
  Real minimum = 1;
  for (const auto& [n, f] : proportional_regime_pairs(12)) {
    const Real threshold = expectation_convergence_threshold(n, f);
    EXPECT_GT(threshold, 0) << "n=" << n << " f=" << f;
    EXPECT_LT(threshold, 1) << "n=" << n << " f=" << f;
    minimum = std::min(minimum, threshold);
  }
  // (3, 1) has the most aggressive ladder (kappa = 4) relative to its
  // team size, so it bounds the grid from below: every p < 0.63 is
  // convergent for EVERY regime pair — the invariant-oracle p grid and
  // the sweep defaults rely on that.
  EXPECT_TRUE(value_identical(minimum,
                              expectation_convergence_threshold(3, 1)));
  EXPECT_GT(minimum, 0.62L);
  EXPECT_LT(minimum, 0.64L);
}

TEST(ExpectationThreshold, ConvergencePredicateBracketsTheThreshold) {
  const Real threshold = expectation_convergence_threshold(3, 1);
  EXPECT_TRUE(expectation_converges(3, 1, 0));
  EXPECT_TRUE(expectation_converges(3, 1, threshold * 0.999L));
  EXPECT_FALSE(expectation_converges(3, 1, threshold));
  EXPECT_FALSE(expectation_converges(3, 1, threshold * 1.001L));
}

TEST(ExpectationThreshold, RequiresTheProportionalRegime) {
  // n = 4, f = 1 violates n < 2f + 2.
  EXPECT_THROW((void)expectation_convergence_threshold(4, 1),
               PreconditionError);
  EXPECT_THROW((void)expectation_converges(4, 1, 0.1L), PreconditionError);
}

// ---------------------------------------------------------------------------
// expected_detection_time
// ---------------------------------------------------------------------------

TEST(ExpectedDetectionTime, PZeroCollapsesBitwiseToTheFaultFreeOracle) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  const ExpectationOptions options = expectation_at(0);
  for (const Real x : {1.0L, 1.5L, 7.25L, -3.0L, -16.0L}) {
    EXPECT_TRUE(value_identical(expected_detection_time(fleet, x, options),
                                fleet.detection_time(x, 0)))
        << "x=" << static_cast<double>(x);
  }
}

TEST(ExpectedDetectionTime, StrictlyDominatesTheFirstVisitForPositiveP) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_unbounded_fleet();
  const ExpectationOptions options = expectation_at(0.3L);
  for (const Real x : {1.0L, 2.5L, -8.0L}) {
    const Real first = fleet.detection_time(x, 0);
    const Real exact = expected_detection_time(fleet, x, options);
    EXPECT_TRUE(std::isfinite(static_cast<double>(exact)));
    EXPECT_GT(exact, first) << "x=" << static_cast<double>(x);
  }
}

TEST(ExpectedDetectionTime, MonotoneNondecreasingInP) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  Real previous = 0;
  for (const Real p : {0.0L, 0.1L, 0.2L, 0.3L, 0.4L, 0.5L}) {
    const Real exact =
        expected_detection_time(fleet, 3.5L, expectation_at(p));
    EXPECT_GE(exact, previous) << "p=" << static_cast<double>(p);
    previous = exact;
  }
}

TEST(ExpectedDetectionTime, POneNeverDetects) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  EXPECT_TRUE(value_identical(
      expected_detection_time(fleet, 2.0L, expectation_at(1)), kInfinity));
}

TEST(ExpectedDetectionTime, DivergesPastTheLadderThreshold) {
  // threshold(3, 1) ~ 0.63: p = 0.7 is past it, p = 0.6 below it.
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  EXPECT_TRUE(value_identical(
      expected_detection_time(fleet, 1.5L, expectation_at(0.7L)),
      kInfinity));
  const Real below =
      expected_detection_time(fleet, 1.5L, expectation_at(0.6L));
  EXPECT_TRUE(std::isfinite(static_cast<double>(below)));
  EXPECT_GT(below, fleet.detection_time(1.5L, 0));
}

TEST(ExpectedDetectionTime, FiniteVisitListLeavesNeverDetectMass) {
  // A bounded build passes each target finitely often, so p^K > 0 of the
  // probability never detects — E[T] must be kInfinity for ANY p > 0,
  // while p = 0 stays the plain first visit.
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  EXPECT_TRUE(value_identical(
      expected_detection_time(fleet, 2.0L, expectation_at(0.1L)),
      kInfinity));
  EXPECT_TRUE(value_identical(
      expected_detection_time(fleet, 2.0L, expectation_at(0)),
      fleet.detection_time(2.0L, 0)));
}

TEST(ExpectedDetectionTime, RepeatedCallsAreBitIdentical) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_unbounded_fleet();
  const ExpectationOptions options = expectation_at(0.45L);
  const Real first = expected_detection_time(fleet, 6.75L, options);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_TRUE(value_identical(
        expected_detection_time(fleet, 6.75L, options), first));
  }
}

TEST(ExpectedDetectionTime, MatchesAnIndependentSeriesSummation) {
  // Cross-check the engine against a from-scratch summation of
  // sum_k t_k (1-p) p^(k-1) over the merged per-robot visit lists.  At
  // p = 0.3 on A(2, 1) the terms decay by ~0.42 per visit, so 96 merged
  // visits leave a tail far below the comparison tolerance.
  const Fleet fleet = ProportionalAlgorithm(2, 1).build_unbounded_fleet();
  const Real p = 0.3L;
  const Real x = 1.5L;
  std::vector<Real> merged;
  for (std::size_t robot = 0; robot < fleet.size(); ++robot) {
    const std::vector<Real> visits = fleet.robot(robot).visit_times(x, 48);
    merged.insert(merged.end(), visits.begin(), visits.end());
  }
  std::sort(merged.begin(), merged.end());
  ASSERT_GE(merged.size(), 64u);
  Real manual = 0;
  Real weight = 1 - p;  // (1 - p) * p^(k-1), k starting at 1
  for (const Real t : merged) {
    manual += t * weight;
    weight *= p;
  }
  const Real exact = expected_detection_time(fleet, x, expectation_at(p));
  EXPECT_NEAR(static_cast<double>(exact / manual), 1.0, 1e-9);
}

TEST(ExpectedDetectionTime, ClosedFormAndLazyMergeMatchABruteForcePrefix) {
  // A(4, 2) at p = 0.7, at the scan's right-limit probe past 3*sqrt(3)
  // (window_hi 7.708, no interior samples), where the series needs
  // thousands of terms.  The closed form and the lazy merge must both
  // sit within rel_tol of a brute-force sum over a long materialized
  // prefix, cut at the earliest robot's last built visit so no visit is
  // missing.
  const Fleet fleet = ProportionalAlgorithm(4, 2).build_unbounded_fleet();
  const ExpectationOptions options = expectation_at(0.7L);
  const Real x = 3 * std::sqrt(Real{3}) * (1 + Real{1e-9L});
  const Real closed = expected_detection_time(fleet, x, options);
  bool converged = false;
  const Real lazy =
      detail::expected_detection_time_lazy(fleet, x, options, &converged);
  EXPECT_TRUE(converged);

  std::vector<Real> merged;
  Real horizon = kInfinity;
  for (std::size_t robot = 0; robot < fleet.size(); ++robot) {
    const std::vector<Real> visits = fleet.robot(robot).visit_times(x, 8000);
    ASSERT_EQ(visits.size(), 8000u);
    horizon = std::min(horizon, visits.back());
    merged.insert(merged.end(), visits.begin(), visits.end());
  }
  std::sort(merged.begin(), merged.end());
  Real brute = 0;
  Real term = 0;
  for (std::size_t k = 0; k < merged.size() && merged[k] <= horizon; ++k) {
    term = (k == 0) ? (1 - options.p) * merged[k]
                    : term * options.p * (merged[k] / merged[k - 1]);
    brute += term;
  }
  EXPECT_LE(std::fabs(closed - brute), options.rel_tol * brute);
  EXPECT_LE(std::fabs(lazy - brute), options.rel_tol * brute);
  EXPECT_LE(std::fabs(closed - lazy), options.rel_tol * lazy);
}

TEST(ExpectedDetectionTime, MaxVisitsCapsTheTermsConsumed) {
  // Near the threshold (A(2, 1) at p = 0.7) the lazy merge needs
  // thousands of terms.  A 64-term cap stops it there and extrapolates
  // the last window's geometric tail, which lands close to the exact
  // sum.
  const Fleet fleet = ProportionalAlgorithm(2, 1).build_unbounded_fleet();
  ExpectationOptions capped = expectation_at(0.7L);
  capped.max_visits = 64;
  obs::Registry::instance().reset();
  const Real short_sum =
      detail::expected_detection_time_lazy(fleet, 3.0L, capped);
  if constexpr (obs::kEnabled) {
    std::uint64_t terms = 0;
    for (const obs::MetricSnapshot& snap :
         obs::Registry::instance().snapshot()) {
      if (snap.name == "eval.expectation.visits") terms = snap.value;
    }
    EXPECT_EQ(terms, 64u);
  }
  const Real full = expected_detection_time(fleet, 3.0L, expectation_at(0.7L));
  ASSERT_TRUE(std::isfinite(static_cast<double>(full)));
  EXPECT_NEAR(static_cast<double>(short_sum / full), 1.0, 1e-2);
}

TEST(ExpectedDetectionTime, RaysLeaveNeverDetectMassOrNeverVisit) {
  // Unbounded robots whose visit lists are finite (a ray passes x once)
  // or empty (the other half-line): the merge runs out, so E[T] is
  // kInfinity either way.
  const Fleet rays({Trajectory(std::make_shared<AnalyticRay>(1)),
                    Trajectory(std::make_shared<AnalyticRay>(1))});
  EXPECT_TRUE(value_identical(
      expected_detection_time(rays, 2.0L, expectation_at(0.3L)), kInfinity));
  EXPECT_TRUE(value_identical(
      expected_detection_time(rays, -2.0L, expectation_at(0.3L)),
      kInfinity));
}

TEST(ExpectedDetectionTime, GuardsRejectBadInput) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  EXPECT_THROW(
      (void)expected_detection_time(fleet, 0, expectation_at(0.1L)),
      PreconditionError);
  EXPECT_THROW(
      (void)expected_detection_time(fleet, 1, expectation_at(-0.1L)),
      PreconditionError);
  EXPECT_THROW(
      (void)expected_detection_time(fleet, 1, expectation_at(1.5L)),
      PreconditionError);
  ExpectationOptions bad_tol = expectation_at(0.1L);
  bad_tol.rel_tol = 0;
  EXPECT_THROW((void)expected_detection_time(fleet, 1, bad_tol),
               PreconditionError);
  ExpectationOptions bad_cap = expectation_at(0.1L);
  bad_cap.max_visits = 8;
  EXPECT_THROW((void)expected_detection_time(fleet, 1, bad_cap),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// The closed form on ladder fleets
// ---------------------------------------------------------------------------

/// E[T(5.3)] of A(2, 1) derived by hand.  kappa = 2, beta = 3, and the
/// robots' seeds sit at 1 (t = 3) and 1/2 (t = 3/2), so every turn x_k
/// is at t = 3|x_k| and a leg from x_k crosses 5.3 at 4|x_k| -+ 5.3.
/// The merged visits are t_1 = 16 + 5.3 and, for m >= 1,
/// t_(2m) = 16 * 2^m - 5.3 and t_(2m+1) = 16 * 2^m + 5.3, so
///   E = (1-p) [21.3 + 16 (1+p)/p * 2p^2/(1 - 2p^2)
///                   - 5.3 (1-p)/p * p^2/(1 - p^2)].
/// At p = 0.7 that is 0.3 * 98079 / 51 = 9807.9 / 17.
Real hand_derived_a21_at_5_3(const Real p) {
  return (1 - p) * (Real{21.3L} +
                    16 * (1 + p) / p * (2 * p * p) / (1 - 2 * p * p) -
                    Real{5.3L} * (1 - p) / p * (p * p) / (1 - p * p));
}

TEST(ClosedForm, MatchesTheHandDerivedA21Value) {
  const Fleet fleet = ProportionalAlgorithm(2, 1).build_unbounded_fleet();
  const Real exact = expected_detection_time(fleet, 5.3L, expectation_at(0.7L));
  const Real by_hand = Real{9807.9L} / 17;
  EXPECT_LE(std::fabs(exact - by_hand), Real{1e-15L} * by_hand)
      << static_cast<double>(exact);
  EXPECT_LE(std::fabs(hand_derived_a21_at_5_3(0.7L) - by_hand),
            Real{1e-15L} * by_hand);
}

TEST(ClosedForm, NearTheThresholdMatchesTheHandDerivedValue) {
  // threshold(2, 1) = 1/sqrt(2).  Within 1e-5 of it the lazy merge runs
  // its ladder out of Real range before it settles; the closed form
  // still lands on the hand-derived value.
  const Fleet fleet = ProportionalAlgorithm(2, 1).build_unbounded_fleet();
  const Real threshold = expectation_convergence_threshold(2, 1);
  for (const Real gap : {Real{1e-5L}, Real{3e-6L}, Real{1e-4L}}) {
    const Real p = threshold - gap;
    const Real exact = expected_detection_time(fleet, 5.3L, expectation_at(p));
    const Real by_hand = hand_derived_a21_at_5_3(p);
    EXPECT_LE(std::fabs(exact - by_hand), Real{1e-12L} * by_hand)
        << "gap " << static_cast<double>(gap) << ": "
        << static_cast<double>(exact) << " vs "
        << static_cast<double>(by_hand);
  }
  bool converged = true;
  (void)detail::expected_detection_time_lazy(
      fleet, 5.3L, expectation_at(threshold - Real{1e-5L}), &converged);
  EXPECT_FALSE(converged);
}

TEST(ClosedForm, NoCodePathExtrapolatesOnALadderFleet) {
  // The smallest term cap the options allow must not change a single
  // bit on ladder fleets, even where the head takes more terms than the
  // cap: the closed form sums a few periods of head terms and adds the
  // exact tail, near the threshold as much as far from it.
  for (const auto& [n, f] :
       std::vector<std::pair<int, int>>{{2, 1}, {4, 2}, {5, 3}, {8, 7}}) {
    const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
    const Real threshold = expectation_convergence_threshold(n, f);
    for (const Real p : {threshold * Real{0.3L}, threshold - Real{1e-4L},
                         threshold - Real{1e-7L}}) {
      ExpectationOptions capped = expectation_at(p);
      capped.max_visits = 16;
      for (const Real x : {1.0L, -2.5L, 7.708L, -16.0L, 1000.0L}) {
        obs::Registry::instance().reset();
        const Real exact = expected_detection_time(fleet, x, capped);
        EXPECT_TRUE(std::isfinite(static_cast<double>(exact)));
        EXPECT_TRUE(value_identical(
            exact, expected_detection_time(fleet, x, expectation_at(p))))
            << "n=" << n << " f=" << f << " x=" << static_cast<double>(x);
        if constexpr (obs::kEnabled) {
          for (const obs::MetricSnapshot& snap :
               obs::Registry::instance().snapshot()) {
            if (snap.name == "eval.expectation.visits") {
              EXPECT_LE(snap.value, 8u * static_cast<unsigned>(n))
                  << "n=" << n << " f=" << f;
            }
          }
        }
      }
    }
  }
}

TEST(ClosedForm, DivergesExactlyAtTheFleetsOwnKappa) {
  // p^(2n) kappa^2 >= 1 decides, with the fleet's kappa: A(3, 1) at
  // beta = 3 has kappa = 2, so its threshold is 2^(-1/3) ~ 0.794, not
  // beta*'s 4^(-1/3) ~ 0.630; at beta = 1.25 kappa = 9 and the
  // threshold is 9^(-1/3) ~ 0.481.
  for (const Real beta : {Real{3}, Real{1.25L}}) {
    const Fleet fleet =
        ProportionalAlgorithm(3, 1, beta).build_unbounded_fleet();
    const Real kappa = expansion_factor(beta);
    const Real threshold = std::pow(kappa, Real{-1} / 3);
    EXPECT_TRUE(std::isfinite(static_cast<double>(expected_detection_time(
        fleet, 2.5L, expectation_at(threshold * (1 - Real{1e-9L}))))));
    EXPECT_TRUE(value_identical(
        expected_detection_time(fleet, 2.5L,
                                expectation_at(threshold * (1 + Real{1e-9L}))),
        kInfinity));
  }
}

TEST(ClosedForm, FleetsOffTheLadderTakeTheLazyMerge) {
  // Two zigzags with different kappas share no period: the closed form
  // does not apply and the answer is the lazy merge's, bit for bit.
  const Fleet mixed(
      {ProportionalAlgorithm(2, 1).build_unbounded_fleet().robot(0),
       ProportionalAlgorithm(2, 1, 3.5L).build_unbounded_fleet().robot(1)});
  for (const Real x : {1.5L, -3.0L, 9.0L}) {
    const ExpectationOptions options = expectation_at(0.4L);
    EXPECT_TRUE(value_identical(
        expected_detection_time(mixed, x, options),
        detail::expected_detection_time_lazy(mixed, x, options)));
  }
}

TEST(ClosedForm, WorkStaysBoundedAcrossTheScanGrid) {
  // Every probe of the A(n, f) scans with n <= 8, window [1, 16] and no
  // interior samples: the closed form sums at most 24 head terms per
  // evaluation on average at every p (the lazy merge's two-window floor
  // alone was 4n terms, at least 16).
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out (LINESEARCH_OBS=OFF)";
  }
  for (const Real p : {0.05L, 0.3L, 0.5L, 0.7L}) {
    obs::Registry::instance().reset();
    for (const auto& [n, f] : proportional_regime_pairs(8)) {
      const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
      ExpectationOptions options = expectation_at(p);
      options.eval.interior_samples = 0;
      (void)measure_expected_cr(fleet, options);
    }
    std::uint64_t visits = 0;
    std::uint64_t evaluations = 0;
    for (const obs::MetricSnapshot& snap :
         obs::Registry::instance().snapshot()) {
      if (snap.name == "eval.expectation.visits") visits = snap.value;
      if (snap.name == "eval.expectation.evaluations") {
        evaluations = snap.value;
      }
    }
    ASSERT_GT(evaluations, 0u);
    EXPECT_LE(visits, 24 * evaluations)
        << "p=" << static_cast<double>(p) << ": " << visits << " visits over "
        << evaluations << " evaluations";
  }
}

TEST(ClosedForm, NearThresholdScanCostsNoMoreThanAFarOne) {
  // measure_expected_cr of A(2, 1), window 16, no interior samples: the
  // scan at p = 0.7 (1e-2 below the threshold) sums no more head terms
  // than the scan at p = 0.05, where the lazy merge needed thousands
  // per probe at 0.7 against tens at 0.05.
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out (LINESEARCH_OBS=OFF)";
  }
  const Fleet fleet = ProportionalAlgorithm(2, 1).build_unbounded_fleet();
  std::uint64_t visits[2] = {0, 0};
  const Real ps[2] = {0.05L, 0.7L};
  for (int i = 0; i < 2; ++i) {
    obs::Registry::instance().reset();
    ExpectationOptions options = expectation_at(ps[i]);
    options.eval.interior_samples = 0;
    const CrEvalResult scan = measure_expected_cr(fleet, options);
    EXPECT_TRUE(std::isfinite(static_cast<double>(scan.cr)));
    for (const obs::MetricSnapshot& snap :
         obs::Registry::instance().snapshot()) {
      if (snap.name == "eval.expectation.visits") visits[i] = snap.value;
    }
  }
  EXPECT_GT(visits[0], 0u);
  EXPECT_LE(visits[1], visits[0]);
}

TEST(ClosedForm, FuzzInstancesRunTheNearThresholdVariant) {
  // Every probabilistic-faults instance of the corpus seeds also races
  // closed form vs lazy 1e-4 below its pair's threshold, under its own
  // name so a shrunk repro says which p failed; the variant draws
  // nothing, so the instances themselves are unchanged.
  int ran = 0;
  for (std::uint64_t seed = 1; seed <= 120 && ran < 3; ++seed) {
    const verify::FuzzInstance instance = verify::generate_instance(seed);
    if (instance.kind != verify::FleetKind::kProbabilisticFaults) continue;
    ++ran;
    const verify::FuzzOutcome outcome = verify::run_instance(instance);
    EXPECT_TRUE(outcome.ok()) << outcome.describe();
    int near = 0;
    for (const verify::DifferentialResult& result : outcome.differentials) {
      if (result.name == "expectation_near_threshold") ++near;
    }
    EXPECT_EQ(near, 1) << "seed " << seed;
  }
  EXPECT_EQ(ran, 3);
  const verify::DifferentialResult direct =
      verify::diff_expectation_near_threshold(4, 2, {1.5L, -7.708L, 16.0L});
  EXPECT_TRUE(direct.ok()) << direct.message;
  EXPECT_EQ(direct.name, "expectation_near_threshold");
}

// ---------------------------------------------------------------------------
// Monte-Carlo oracle
// ---------------------------------------------------------------------------

/// ProbabilisticFaults::detection_time as one full-cap fetch per robot:
/// the reference the growing-prefix fetch must reproduce exactly.
Real full_cap_detection_time(const Fleet& fleet, const Real target,
                             const ProbabilisticFaultConfig& config) {
  Real earliest = kInfinity;
  for (std::size_t robot = 0; robot < fleet.size(); ++robot) {
    const std::vector<Real> visits =
        fleet.robot(robot).visit_times(target, config.max_visits);
    for (std::size_t k = 0; k < visits.size(); ++k) {
      if (!std::isfinite(visits[k])) break;
      if (visits[k] >= earliest) break;
      if (!probabilistic_visit_fails(config.seed, robot, k, config.p)) {
        earliest = visits[k];
        break;
      }
    }
  }
  return earliest;
}

TEST(ProbabilisticMonteCarlo, PrefixFetchMatchesTheFullCapLoop) {
  // Deep-fault p (many failed visits per robot) and horizons that end
  // on, between and past the prefix caps 16 and 128, on unbounded and
  // bounded fleets.
  struct Case {
    int n;
    int f;
    bool bounded;
    Real p;
    std::size_t max_visits;
  };
  const std::vector<Case> cases = {
      {3, 1, false, 0.5L, 600},  {12, 8, false, 0.9L, 600},
      {2, 1, false, 0.95L, 16},  {4, 2, false, 0.97L, 20},
      {5, 3, false, 0.98L, 130}, {3, 1, true, 0.9L, 4096}};
  for (const Case& c : cases) {
    const ProportionalAlgorithm algo(c.n, c.f);
    const Fleet fleet =
        c.bounded ? algo.build_fleet(64) : algo.build_unbounded_fleet();
    for (const Real x : {1.5L, -4.0L, 11.0L}) {
      const std::string context =
          "n=" + std::to_string(c.n) + " f=" + std::to_string(c.f) +
          " p=" + std::to_string(static_cast<double>(c.p)) +
          " cap=" + std::to_string(c.max_visits) +
          " x=" + std::to_string(static_cast<double>(x));
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const ProbabilisticFaultConfig config{
            .p = c.p, .seed = seed * 0x9E3779B97F4A7C15ULL,
            .max_visits = c.max_visits};
        ProbabilisticFaults model(config);
        ASSERT_TRUE(value_identical(model.detection_time(fleet, x, 0),
                                    full_cap_detection_time(fleet, x, config)))
            << context << " seed=" << seed;
      }
      // The estimator built on it: identical mean, stddev, undetected.
      ProbabilisticMcOptions options;
      options.p = c.p;
      options.trials = 200;
      options.seed = 0xfeedULL + static_cast<std::uint64_t>(c.n);
      options.max_visits = c.max_visits;
      const ProbabilisticMcResult mc =
          mc_expected_detection_time(fleet, x, options);
      SplitMix64 seeds(options.seed);
      std::vector<Real> times;
      int undetected = 0;
      for (int trial = 0; trial < options.trials; ++trial) {
        const Real t = full_cap_detection_time(
            fleet, x,
            {.p = c.p, .seed = seeds.next(), .max_visits = c.max_visits});
        if (std::isinf(t)) {
          ++undetected;
        } else {
          times.push_back(t);
        }
      }
      EXPECT_EQ(mc.undetected, undetected) << context;
      if (times.empty()) {
        EXPECT_TRUE(std::isnan(static_cast<double>(mc.mean))) << context;
        continue;
      }
      const Summary reference = summarize(times);
      EXPECT_TRUE(value_identical(mc.mean, reference.mean)) << context;
      EXPECT_TRUE(value_identical(mc.stddev, reference.stddev)) << context;
    }
  }
}

// ---------------------------------------------------------------------------
// measure_expected_cr
// ---------------------------------------------------------------------------

TEST(MeasureExpectedCr, PZeroBitIdenticalToMeasureCrOnEveryRegimePair) {
  for (const auto& [n, f] : proportional_regime_pairs(12)) {
    const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
    const CrEvalResult expected =
        measure_expected_cr(fleet, expectation_at(0));
    const CrEvalResult fault_free = measure_cr(fleet, 0, small_eval());
    expect_scan_identical(expected, fault_free,
                          "n=" + std::to_string(n) +
                              " f=" + std::to_string(f));
  }
}

/// The grid leg of the closed-form-vs-MC comparison: one differential
/// run per regime pair at the given p.  The engine branches internally —
/// CLT-tight where the VARIANCE converges (p^(2n) kappa^4 <= 0.8),
/// divergence-certifying past the mean threshold, sanity-only in the
/// heavy-tailed band between — so a single green verdict per pair is the
/// whole contract.
void run_grid_differential(const Real p) {
  const std::vector<Real> targets = {1.5L, -4.0L, 11.0L};
  for (const auto& [n, f] : proportional_regime_pairs(12)) {
    const verify::DifferentialResult result =
        verify::diff_expectation_vs_montecarlo(n, f, p, targets,
                                               /*seed=*/0xe4ec7ed5eedULL,
                                               /*trials=*/300);
    EXPECT_TRUE(result.ok())
        << "n=" << n << " f=" << f << " p=" << static_cast<double>(p)
        << ": " << result.message;
  }
}

TEST(MeasureExpectedCr, AgreesWithMonteCarloAcrossTheGridAtP01) {
  run_grid_differential(0.1L);
}

TEST(MeasureExpectedCr, AgreesWithMonteCarloAcrossTheGridAtP05) {
  run_grid_differential(0.5L);
}

TEST(MeasureExpectedCr, AgreesWithMonteCarloAcrossTheGridAtP09) {
  // At p = 0.9 most pairs are past their ladder threshold — the
  // differential's divergence branch certifies kInfinity there, while
  // the deep-fault pairs (e.g. (12, 8), threshold 0.9125) stay
  // convergent and CLT-comparable.  Assert both populations occur.
  int convergent = 0;
  for (const auto& [n, f] : proportional_regime_pairs(12)) {
    if (expectation_converges(n, f, 0.9L)) ++convergent;
  }
  EXPECT_GT(convergent, 0);
  EXPECT_LT(convergent, 41);
  run_grid_differential(0.9L);
}

TEST(MeasureExpectedCr, DivergentScanPinsTheNonFiniteCodec) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  const CrEvalResult scan = measure_expected_cr(fleet, expectation_at(0.8L));
  EXPECT_TRUE(value_identical(scan.cr, kInfinity));
  EXPECT_EQ(scan.undetected_probes, scan.probes);
  EXPECT_EQ(encode_real_field(scan.cr, 12), "inf");
  EXPECT_EQ(encode_real_field(-scan.cr, 12), "-inf");
}

// ---------------------------------------------------------------------------
// expectation_sweep
// ---------------------------------------------------------------------------

TEST(ExpectationSweep, CoversTheGridAndFlagsDivergence) {
  ExpectationSweepOptions options;
  options.n_max = 3;  // pairs (2,1), (3,1), (3,2)
  options.p_count = 2;
  options.p_max = 0.8L;  // past every n<=3 threshold (max 2^(-1/3)=0.794)
  options.window_hi = 8;
  const std::vector<ExpectationSweepRow> rows = expectation_sweep(options);
  ASSERT_EQ(rows.size(), 6u);
  for (const ExpectationSweepRow& row : rows) {
    if (row.p == 0) {
      EXPECT_TRUE(row.converges) << "n=" << row.n << " f=" << row.f;
      EXPECT_TRUE(std::isfinite(static_cast<double>(row.expected_cr)));
      EXPECT_EQ(row.undetected_probes, 0);
    } else {
      EXPECT_FALSE(row.converges) << "n=" << row.n << " f=" << row.f;
      EXPECT_TRUE(value_identical(row.expected_cr, kInfinity));
    }
  }
}

TEST(ExpectationSweep, ReplaysBitIdentically) {
  ExpectationSweepOptions options;
  options.n_max = 4;
  options.p_count = 3;
  options.p_max = 0.4L;
  options.window_hi = 8;
  const std::vector<ExpectationSweepRow> first = expectation_sweep(options);
  const std::vector<ExpectationSweepRow> second = expectation_sweep(options);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].n, second[i].n);
    EXPECT_EQ(first[i].f, second[i].f);
    EXPECT_TRUE(value_identical(first[i].p, second[i].p));
    EXPECT_EQ(first[i].converges, second[i].converges);
    EXPECT_TRUE(value_identical(first[i].expected_cr,
                                second[i].expected_cr));
    EXPECT_TRUE(value_identical(first[i].argmax, second[i].argmax));
    EXPECT_EQ(first[i].undetected_probes, second[i].undetected_probes);
  }
}

// ---------------------------------------------------------------------------
// Service layer: the probabilistic fault regime
// ---------------------------------------------------------------------------

CrQuery probabilistic_query(const int n, const int f, const Real p,
                            const Real window_hi = 16) {
  CrQuery query;
  query.n = n;
  query.f = f;
  query.window_hi = window_hi;
  query.regime = FaultRegime::kProbabilistic;
  query.fault_p = p;
  return query;
}

void expect_result_identical(const QueryResult& a, const QueryResult& b,
                             const std::string& context) {
  EXPECT_EQ(a.feasible, b.feasible) << context;
  EXPECT_TRUE(value_identical(a.cr, b.cr)) << context;
  EXPECT_TRUE(value_identical(a.argmax, b.argmax)) << context;
  EXPECT_TRUE(value_identical(a.cr_positive, b.cr_positive)) << context;
  EXPECT_TRUE(value_identical(a.cr_negative, b.cr_negative)) << context;
  EXPECT_EQ(a.probes, b.probes) << context;
  EXPECT_EQ(a.undetected_probes, b.undetected_probes) << context;
}

TEST(SvcProbabilistic, DirectPathRunsTheExpectationEngine) {
  const QueryResult direct =
      svc::evaluate_query_direct(probabilistic_query(5, 2, 0.25L));
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_unbounded_fleet();
  ExpectationOptions options = expectation_at(0.25L);
  options.eval.interior_samples = 4;  // the query default
  const CrEvalResult scan = measure_expected_cr(fleet, options);
  EXPECT_TRUE(direct.feasible);
  EXPECT_TRUE(value_identical(direct.cr, scan.cr));
  EXPECT_TRUE(value_identical(direct.argmax, scan.argmax));
  EXPECT_TRUE(value_identical(direct.cr_positive, scan.cr_positive));
  EXPECT_TRUE(value_identical(direct.cr_negative, scan.cr_negative));
  EXPECT_EQ(direct.probes, scan.probes);
  EXPECT_EQ(direct.undetected_probes, scan.undetected_probes);
}

TEST(SvcProbabilistic, ServiceMatchesDirectColdAndWarm) {
  QueryService service;
  const CrQuery query = probabilistic_query(3, 1, 0.4L);
  const QueryResult direct = svc::evaluate_query_direct(query);
  const QueryResult cold = service.evaluate(query);
  const QueryResult warm = service.evaluate(query);
  expect_result_identical(cold, direct, "cold");
  expect_result_identical(warm, direct, "warm");
  EXPECT_GT(service.stats().cache_hits, 0u);
}

TEST(SvcProbabilistic, DivergenceFollowsTheBackendsOwnKappa) {
  // A(3, 1) off its optimal beta: p sits between beta*'s threshold
  // 4^(-1/3) ~ 0.630 and the backend's own kappa^(-1/3), so the
  // optimal-beta predicate and the backend disagree, and the backend
  // decides: finite at beta = 3 (kappa 2, threshold ~0.794), infinite at
  // beta = 1.25 (kappa 9, threshold ~0.481).
  struct Case {
    Real beta;
    Real p;
    bool finite;
  };
  for (const Case& c : {Case{3, 0.7L, true}, Case{1.25L, 0.55L, false}}) {
    const Real own_threshold =
        std::pow(expansion_factor(c.beta), Real{-1} / 3);
    ASSERT_EQ(c.p < own_threshold, c.finite);
    ASSERT_EQ(expectation_converges(3, 1, c.p), !c.finite);
    CrQuery query = probabilistic_query(3, 1, c.p);
    query.beta = c.beta;
    const QueryResult direct = svc::evaluate_query_direct(query);
    QueryService service;
    const QueryResult served = service.evaluate(query);
    expect_result_identical(direct, served,
                            "beta=" + std::to_string(double(c.beta)));
    EXPECT_EQ(std::isfinite(static_cast<double>(direct.cr)), c.finite)
        << "beta=" << static_cast<double>(c.beta);
    EXPECT_EQ(direct.undetected_probes == 0, c.finite);
  }
}

TEST(SvcProbabilistic, CacheOffMatchesCacheOn) {
  QueryServiceOptions no_cache;
  no_cache.cache_results = false;
  QueryService cached;
  QueryService uncached(no_cache);
  for (const Real p : {0.0L, 0.1L, 0.5L, 0.8L}) {
    const CrQuery query = probabilistic_query(3, 1, p);
    expect_result_identical(cached.evaluate(query),
                            uncached.evaluate(query),
                            "p=" + std::to_string(static_cast<double>(p)));
  }
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
}

TEST(SvcProbabilistic, QueryKeySeparatesFaultP) {
  const CrQuery a = svc::canonicalize_query(probabilistic_query(3, 1, 0.1L));
  const CrQuery b = svc::canonicalize_query(probabilistic_query(3, 1, 0.2L));
  const CrQuery a_again =
      svc::canonicalize_query(probabilistic_query(3, 1, 0.1L));
  EXPECT_NE(svc::query_key(a), svc::query_key(b));
  EXPECT_EQ(svc::query_key(a), svc::query_key(a_again));
  // fault_p is a continuous cache parameter WITHIN a regime pair: both
  // keys live in the same shard.
  EXPECT_EQ(svc::query_shard(a, 8), svc::query_shard(b, 8));
  // The plain regime at the same pair must not collide with p = 0.
  CrQuery plain;
  plain.n = 3;
  plain.f = 1;
  plain.window_hi = 16;
  EXPECT_NE(svc::query_key(svc::canonicalize_query(plain)),
            svc::query_key(a));
}

TEST(SvcProbabilistic, CanonicalizeRejectsOutOfRangeFaultP) {
  EXPECT_THROW((void)svc::canonicalize_query(probabilistic_query(3, 1, -0.1L)),
               PreconditionError);
  EXPECT_THROW((void)svc::canonicalize_query(probabilistic_query(3, 1, 1.0L)),
               PreconditionError);
  EXPECT_THROW((void)svc::canonicalize_query(probabilistic_query(3, 1, kNaN)),
               PreconditionError);
  // fault_p is probabilistic-only: any other regime must reject it.
  CrQuery plain;
  plain.n = 3;
  plain.f = 1;
  plain.fault_p = 0.5L;
  EXPECT_THROW((void)svc::canonicalize_query(plain), PreconditionError);
}

TEST(SvcProbabilistic, ThreadRaceStaysValueIdentical) {
  // The query mix deliberately spans convergent, divergent, and p = 0
  // probabilistic queries across two regime pairs, so racing threads
  // share backends AND collide on cache keys.
  std::vector<CrQuery> mix;
  for (const Real p : {0.0L, 0.1L, 0.4L, 0.8L}) {
    mix.push_back(probabilistic_query(3, 1, p, 8));
    mix.push_back(probabilistic_query(5, 2, p, 8));
  }
  std::vector<QueryResult> reference;
  reference.reserve(mix.size());
  for (const CrQuery& query : mix) {
    reference.push_back(svc::evaluate_query_direct(query));
  }
  for (const int threads : {1, 2, 8}) {
    for (const bool cache : {true, false}) {
      QueryServiceOptions options;
      options.cache_results = cache;
      QueryService service(options);
      std::atomic<int> mismatches{0};
      std::vector<std::thread> workers;
      workers.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&service, &mix, &reference, &mismatches, t] {
          for (std::size_t i = 0; i < mix.size() * 4; ++i) {
            const std::size_t pick =
                (i + static_cast<std::size_t>(t)) % mix.size();
            const QueryResult got = service.evaluate(mix[pick]);
            const QueryResult& want = reference[pick];
            if (!value_identical(got.cr, want.cr) ||
                !value_identical(got.argmax, want.argmax) ||
                got.undetected_probes != want.undetected_probes) {
              mismatches.fetch_add(1);
            }
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
      EXPECT_EQ(mismatches.load(), 0)
          << "threads=" << threads << " cache=" << cache;
      const QueryService::Stats stats = service.stats();
      EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.evaluations,
                stats.queries)
          << "threads=" << threads << " cache=" << cache;
    }
  }
}

TEST(SvcProbabilistic, WirePinsInfAndReplaysByteIdentically) {
  svc::QueryServer server;
  const std::string divergent =
      R"({"id": 1, "op": "cr", "n": 3, "f": 1, "regime": "probabilistic",)"
      R"( "fault_p": 0.8, "window_hi": 8})";
  const std::string cold = server.handle_line(divergent);
  // Divergent expected CR crosses the wire as the QUOTED codec spelling,
  // not a bare token JSON parsers would reject.
  EXPECT_NE(cold.find("\"cr\":\"inf\""), std::string::npos) << cold;
  EXPECT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
  EXPECT_EQ(server.handle_line(divergent), cold);

  const std::string convergent =
      R"({"id": 2, "op": "cr", "n": 3, "f": 1, "regime": "probabilistic",)"
      R"( "fault_p": 0.25, "window_hi": 8})";
  const std::string response = server.handle_line(convergent);
  EXPECT_EQ(response.find("\"cr\":\"inf\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  CrQuery query = probabilistic_query(3, 1, 0.25L, 8);
  EXPECT_EQ(response,
            svc::render_response(2, svc::evaluate_query_direct(query)));
}

}  // namespace
}  // namespace linesearch
