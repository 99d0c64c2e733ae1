// eval/expectation.hpp — exact expected-CR evaluation under per-visit
// probabilistic faults (arXiv:2002.07797, arXiv:2303.15608).
//
// Model: every visit to the target is an independent probe that fails
// with probability p (sim/faults.hpp ProbabilisticFaults realizes one
// such schedule).  Let t_1 <= t_2 <= ... be the team's merged visit
// times at x.  Detection happens at the first successful probe, so
//
//   E[T(x)] = sum_k t_k * (1 - p) * p^(k-1).
//
// No Monte Carlo is needed: on the zigzag/analytic ladder families the
// visit times obey an affine-geometric recurrence — one expansion period
// multiplies positions by kappa = (2f+2)/(2f+2-n), every robot crosses x
// twice per period, so t_(k+2n) = kappa^2 * t_k + c — which makes the
// series a geometric ladder.  Consecutive period sums contract by
// q -> p^(2n) * kappa^2, so the series converges iff
//
//   p < kappa^(-1/n)        (equivalently p^(2n) * kappa^2 < 1)
//
// and the evaluator sums terms until the closed-form geometric tail
// bound drops below rel_tol, or certifies divergence (E[T] = kInfinity)
// when period sums stop contracting.  A FINITE visit list (a bounded /
// dense fleet, or a ray that passes x once) leaves never-detect mass
// p^K > 0, so E[T] is kInfinity for every p > 0 — the expected-CR
// evaluator is meant for the unbounded analytic backends.
//
// Evaluation is a lazy n-way merge: one visit cursor per robot
// (ScheduleSource::visit_cursor, one ladder walk stepped on demand), the
// smallest head feeding the running sum one term at a time, and the pass
// stops at the first window that settles the series — at least two
// windows, a few thousand terms next to the threshold — without building
// any robot's visits past that point.
// detail::expected_detection_time_capped keeps the earlier
// merge-a-capped-prefix-and-sort pass as a reference.
//
// At p == 0 the series collapses to t_1 = Fleet::detection_time(x, 0)
// and the scan below runs detail::measure_cr_with with exactly the
// fault-free oracle — bit-identical to measure_cr(fleet, 0, options).
#pragma once

#include <cstddef>
#include <vector>

#include "eval/cr_eval.hpp"
#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch {

/// Options for the expectation engine.
struct ExpectationOptions {
  Real p = 0;  ///< per-visit failure probability in [0, 1]
  /// Probe-scan window and sampling (require_finite defaults OFF here:
  /// for p > 0 divergent probes are expected output, not an error).
  CrEvalOptions eval = {.window_lo = 1,
                        .window_hi = 64,
                        .interior_samples = 4,
                        .require_finite = false};
  /// Relative truncation tolerance of the geometric tail bound.
  Real rel_tol = 1e-9L;
  /// Cap on the series terms (merged visits) one evaluation consumes;
  /// at the cap the last measured period ratio decides (contracting:
  /// extrapolate the closed-form tail; otherwise kInfinity).  >= 16.
  std::size_t max_visits = 1u << 16;
};

/// E[T(target)] under per-visit iid failures — the series above, exact
/// up to rel_tol.  kInfinity when the series diverges (p at or past the
/// ladder threshold), when the visit list is finite (never-detect mass),
/// or when the target is never visited.  p == 0 returns
/// Fleet::detection_time(target, 0) bit-identically.  When a visit time
/// overflows Real range or max_visits terms are consumed first, the
/// closed-form tail of the last window extrapolates the sum if that
/// window contracted; otherwise the answer is kInfinity.
[[nodiscard]] Real expected_detection_time(const Fleet& fleet, Real target,
                                           const ExpectationOptions& options);

namespace detail {

/// What the capped reference's deciding pass saw.
struct CappedTrace {
  /// The answer came from terms that are exactly the true merged order:
  /// no series was needed, or the pass settled within max_visits terms
  /// at a visit no later than the last one built for every robot whose
  /// list the cap cut.  The lazy evaluator must then agree bit for bit;
  /// otherwise the capped pass may have summed visits out of order and
  /// the two agree only within rel_tol.
  bool inside_horizon = true;
};

/// The reference evaluator the lazy merge replaced: per pass, build up
/// to `cap` visits per robot, sort them, and sum; on no verdict regrow
/// the cap (64, x4, up to max_visits) and start over.  Past the earliest
/// cut robot's last built visit the sorted list misses that robot's
/// later visits, so its terms can come out of order there.  Kept for
/// the lazy_vs_capped differential and tests; `trace` may be null.
[[nodiscard]] Real expected_detection_time_capped(
    const Fleet& fleet, Real target, const ExpectationOptions& options,
    CappedTrace* trace = nullptr);

}  // namespace detail

/// Expected competitive ratio sup_x E[T(x)]/|x| over the options'
/// window: the measure_cr probe scan (same probes, same tie-breaks,
/// same counters) with the expectation oracle above.
[[nodiscard]] CrEvalResult measure_expected_cr(
    const Fleet& fleet, const ExpectationOptions& options);

/// Closed-form convergence threshold of A(n, f)'s ladder: E[T] is
/// finite for p < kappa^(-1/n) with kappa = optimal_expansion_factor.
/// Requires the proportional regime.
[[nodiscard]] Real expectation_convergence_threshold(int n, int f);

/// True iff the expected-CR series of A(n, f) converges at p (p below
/// the threshold above; p == 0 always converges).
[[nodiscard]] bool expectation_converges(int n, int f, Real p);

/// One row of the p-sweep grid.
struct ExpectationSweepRow {
  int n = 0;
  int f = 0;
  Real p = 0;
  bool converges = false;   ///< closed-form criterion at this p
  Real expected_cr = kInfinity;
  Real argmax = 0;
  int undetected_probes = 0;
};

struct ExpectationSweepOptions {
  int n_max = 8;        ///< regime grid bound (41 pairs at 12)
  int p_count = 5;      ///< p grid resolution (linspace 0..p_max)
  Real p_max = 0.5L;    ///< largest failure probability swept
  Real window_hi = 16;  ///< CR measurement window
};

/// Sweep every regime pair (n <= n_max) times the p grid: expected CR of
/// A(n, f)'s unbounded analytic backend at each failure probability.
[[nodiscard]] std::vector<ExpectationSweepRow> expectation_sweep(
    const ExpectationSweepOptions& options = {});

}  // namespace linesearch
