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
// No Monte Carlo is needed.  On the A(n, f) ladder (PAPER.md, Lemma 2)
// one expansion period multiplies positions by kappa, and once a robot's
// ladder is past |x| it crosses x once per leg, so its visits form two
// streams t_(j+1) = kappa^2 t_j + c, one per leg parity.  Consecutive
// period sums contract by p^(2n) kappa^2, so the series converges iff
//
//   p < kappa^(-1/n)        (equivalently p^(2n) * kappa^2 < 1)
//
// with kappa the fleet's own expansion factor.  On a fleet whose robots
// are all unbounded AnalyticZigzag ladders with one shared kappa, the
// evaluator decides divergence by that inequality, merges the robots'
// head visits (walked on the stack) until the merged order provably
// repeats every period, and adds the exact geometric tail of the 2n
// streams (arXiv:2002.07797's closed form on Lemma 2's ladder) — about
// ten terms, wherever p sits below the threshold.
//
// Every other fleet takes the lazy n-way merge, kept as
// detail::expected_detection_time_lazy: one visit cursor per robot,
// summed term by term until a window of 2n terms settles the series
// within rel_tol.  A FINITE visit list (a bounded / dense fleet, or a
// ray that passes x once) leaves never-detect mass p^K > 0, so E[T] is
// kInfinity for every p > 0 — the expected-CR evaluator is meant for the
// unbounded analytic backends.
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
  /// Relative truncation tolerance of the lazy merge's tail bound (the
  /// closed form on ladder fleets does not truncate).
  Real rel_tol = 1e-9L;
  /// Cap on the series terms (merged visits) the lazy merge consumes;
  /// at the cap the last measured period ratio decides (contracting:
  /// extrapolate the window's geometric tail; otherwise kInfinity).
  /// The closed form on ladder fleets never reads it.  >= 16.
  std::size_t max_visits = 1u << 16;
};

/// E[T(target)] under per-visit iid failures — the series above.  On an
/// all-ladder fleet it is the closed form: kInfinity exactly when
/// p^(2n) kappa^2 >= 1, and never a truncated or extrapolated sum.  On
/// any other fleet it is the lazy merge below.  kInfinity when the
/// visit list is finite (never-detect mass) or the target is never
/// visited.  p == 0 returns Fleet::detection_time(target, 0)
/// bit-identically.
[[nodiscard]] Real expected_detection_time(const Fleet& fleet, Real target,
                                           const ExpectationOptions& options);

namespace detail {

/// The lazy merge, on any fleet: one visit cursor per robot, the series
/// summed term by term until a window of 2n terms settles it within
/// rel_tol, or 16 windows in a row fail to contract (kInfinity).  When a
/// visit time overflows Real range or max_visits terms are consumed
/// first, the last window's geometric tail extrapolates the sum if that
/// window contracted; otherwise the answer is kInfinity.  `converged`,
/// when non-null, is set true iff a contracting window settled the sum
/// before any visit time left Real range — the answers the
/// closed_vs_lazy differential holds the closed form to.
[[nodiscard]] Real expected_detection_time_lazy(
    const Fleet& fleet, Real target, const ExpectationOptions& options,
    bool* converged = nullptr);

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
/// the threshold above; p == 0 always converges).  Assumes the optimal
/// beta*(n, f): a fleet built at another beta has its own kappa, and
/// expected_detection_time decides by that kappa, not by this predicate.
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
