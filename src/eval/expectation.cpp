#include "eval/expectation.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "eval/validation.hpp"
#include "analysis/grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace linesearch {

namespace {

/// Consecutive non-contracting period sums before the series is declared
/// divergent.  The measured period ratio approaches the true contraction
/// factor from above (the affine offset c of t_(k+2n) = kappa^2 t_k + c
/// decays relative to t_k by kappa^2 per period), so a handful of early
/// windows can sit at or above 1 even when the series converges; a
/// sustained run cannot.
constexpr int kDivergingWindows = 16;

/// The series sum_k t_k (1-p) p^(k-1), fed one merged visit time at a
/// time in increasing order, with the period-window convergence and
/// divergence tests.
class SeriesSum {
 public:
  enum class Verdict { kOpen, kConverged, kDivergent };

  /// One expansion period contributes two visits per robot on the zigzag
  /// ladder, so a window of 2n terms spans one period; 4 floors it for
  /// degenerate single-robot fleets.
  SeriesSum(const Real p, const std::size_t robots, const Real rel_tol)
      : p_(p), window_(std::max<std::size_t>(2 * robots, 4)),
        rel_tol_(rel_tol) {}

  Verdict add(const Real t) {
    // term_(k+1) = term_k * p * (t_(k+1)/t_k) keeps the running term in
    // representable range even where t_k alone would overflow and p^k
    // alone would underflow (their product is bounded by the series'
    // behaviour, not by either factor).
    term_ = (terms_ == 0) ? (1 - p_) * t : term_ * p_ * (t / prev_t_);
    prev_t_ = t;
    ++terms_;
    sum_ += term_;
    window_sum_ += term_;
    if (++in_window_ < window_) return Verdict::kOpen;
    if (prev_window_ > 0) {
      q_ = window_sum_ / prev_window_;
      if (q_ < 1) {
        diverging_streak_ = 0;
        tail_ = window_sum_ * q_ / (1 - q_);
        if (tail_ <= rel_tol_ * sum_) return Verdict::kConverged;
      } else if (++diverging_streak_ >= kDivergingWindows) {
        return Verdict::kDivergent;
      }
    }
    prev_window_ = window_sum_;
    window_sum_ = 0;
    in_window_ = 0;
    return Verdict::kOpen;
  }

  [[nodiscard]] std::size_t terms() const noexcept { return terms_; }
  [[nodiscard]] Real sum() const noexcept { return sum_; }

  /// The answer when the visits stop short of a verdict (term cap, or a
  /// ladder time overflowing Real range): the partial sum plus the
  /// closed-form geometric tail of the last full window if that window
  /// contracted; kInfinity otherwise, including a pass too short to
  /// measure one.
  [[nodiscard]] Real extrapolated() const {
    if (!(q_ < 1) || std::isnan(tail_)) {
      LS_OBS_COUNT("eval.expectation.divergent", 1);
      return kInfinity;
    }
    return sum_ + tail_;
  }

 private:
  Real p_;
  std::size_t window_;
  Real rel_tol_;
  std::size_t terms_ = 0;
  Real term_ = 0;
  Real prev_t_ = 0;
  Real sum_ = 0;
  Real window_sum_ = 0;
  Real prev_window_ = 0;
  Real q_ = kNaN;
  Real tail_ = kNaN;
  std::size_t in_window_ = 0;
  int diverging_streak_ = 0;
};

/// The answers that need no series: p == 0 (the fault-free first visit),
/// p == 1, and a fully bounded fleet.  Checks the preconditions and
/// counts the evaluation.
std::optional<Real> settle_without_series(const Fleet& fleet,
                                          const Real target,
                                          const ExpectationOptions& options) {
  expects(target != 0, "expected_detection_time: target must be nonzero");
  expects(options.p >= 0 && options.p <= 1,
          "expected_detection_time: p must be in [0, 1]");
  expects(options.rel_tol > 0 && options.max_visits >= 16,
          "expected_detection_time: need rel_tol > 0, max_visits >= 16");
  LS_OBS_COUNT("eval.expectation.evaluations", 1);
  // p == 0: the series collapses to t_1 — the fault-free first visit,
  // bit-identical to the measure_cr oracle at budget 0.
  if (options.p == 0) return fleet.detection_time(target, 0);
  if (options.p == 1) {
    LS_OBS_COUNT("eval.expectation.divergent", 1);
    return kInfinity;
  }
  // A fully bounded fleet visits every target finitely often, so the
  // never-detect mass p^K is positive and E[T] is infinite outright.
  // This must be decided BEFORE the series pass: a long finite list can
  // satisfy the geometric tail bound (which presumes the ladder
  // continues) without ever revealing its end.
  if (!fleet.unbounded()) {
    LS_OBS_COUNT("eval.expectation.divergent", 1);
    return kInfinity;
  }
  return std::nullopt;
}

/// Merged finite visit times at `target` with a per-robot cap.
/// `truncated` reports whether more visits exist beyond what was
/// materialized (cap hit, or a ladder time overflowing Real range);
/// `horizon` is the earliest last-materialized visit among the robots
/// whose lists were cut, past which the merged list may miss visits.
std::vector<Real> merged_visits(const Fleet& fleet, const Real target,
                                const std::size_t cap, bool* truncated,
                                Real* horizon) {
  std::vector<Real> merged;
  *truncated = false;
  *horizon = kInfinity;
  for (std::size_t robot = 0; robot < fleet.size(); ++robot) {
    const std::vector<Real> visits =
        fleet.robot(static_cast<RobotId>(robot)).visit_times(target, cap);
    bool cut = visits.size() == cap;
    Real last = -kInfinity;
    for (const Real t : visits) {
      if (!std::isfinite(t)) {
        cut = true;
        break;
      }
      merged.push_back(t);
      last = t;
    }
    if (cut) {
      *truncated = true;
      *horizon = std::min(*horizon, last);
    }
  }
  std::sort(merged.begin(), merged.end());
  return merged;
}

}  // namespace

Real expected_detection_time(const Fleet& fleet, const Real target,
                             const ExpectationOptions& options) {
  if (const std::optional<Real> settled =
          settle_without_series(fleet, target, options)) {
    return *settled;
  }
  // Lazy n-way merge: one visit cursor per robot, the smallest head is
  // the next term.  A cursor leaves the merge when it runs out or yields
  // a time past Real range (ladder overflow).
  std::vector<std::unique_ptr<VisitCursor>> cursors;
  std::vector<Real> heads;
  bool overflowed = false;
  const auto pull = [&overflowed](VisitCursor& cursor, Real* head) {
    Real t = 0;
    if (!cursor.next(&t)) return false;
    if (std::isfinite(t)) {
      *head = t;
      return true;
    }
    overflowed = true;
    return false;
  };
  for (std::size_t robot = 0; robot < fleet.size(); ++robot) {
    std::unique_ptr<VisitCursor> cursor =
        fleet.robot(static_cast<RobotId>(robot)).visit_cursor(target);
    Real head = 0;
    if (!pull(*cursor, &head)) continue;
    cursors.push_back(std::move(cursor));
    heads.push_back(head);
  }
  SeriesSum series(options.p, fleet.size(), options.rel_tol);
  while (!cursors.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < heads.size(); ++i) {
      if (heads[i] < heads[best]) best = i;
    }
    const SeriesSum::Verdict verdict = series.add(heads[best]);
    if (verdict == SeriesSum::Verdict::kConverged) {
      LS_OBS_COUNT("eval.expectation.visits", series.terms());
      return series.sum();
    }
    if (verdict == SeriesSum::Verdict::kDivergent) {
      LS_OBS_COUNT("eval.expectation.divergent", 1);
      LS_OBS_COUNT("eval.expectation.visits", series.terms());
      return kInfinity;
    }
    if (series.terms() == options.max_visits) {
      LS_OBS_COUNT("eval.expectation.visits", series.terms());
      return series.extrapolated();
    }
    if (pull(*cursors[best], &heads[best])) continue;
    cursors[best] = std::move(cursors.back());
    cursors.pop_back();
    heads[best] = heads.back();
    heads.pop_back();
  }
  if (series.terms() == 0) return kInfinity;  // never visited
  LS_OBS_COUNT("eval.expectation.visits", series.terms());
  if (overflowed) return series.extrapolated();
  // Every visit list is genuinely finite: mass p^K never detects, so the
  // expectation is infinite for any p > 0.
  LS_OBS_COUNT("eval.expectation.divergent", 1);
  return kInfinity;
}

namespace detail {

Real expected_detection_time_capped(const Fleet& fleet, const Real target,
                                    const ExpectationOptions& options,
                                    CappedTrace* trace) {
  if (trace != nullptr) trace->inside_horizon = true;
  if (const std::optional<Real> settled =
          settle_without_series(fleet, target, options)) {
    return *settled;
  }
  std::size_t cap = 64;
  std::size_t last_merged = 0;
  for (;;) {
    bool truncated = false;
    Real horizon = kInfinity;
    const std::vector<Real> merged =
        merged_visits(fleet, target, cap, &truncated, &horizon);
    if (merged.empty()) return kInfinity;  // never visited
    SeriesSum series(options.p, fleet.size(), options.rel_tol);
    SeriesSum::Verdict verdict = SeriesSum::Verdict::kOpen;
    for (std::size_t k = 0;
         k < merged.size() && verdict == SeriesSum::Verdict::kOpen; ++k) {
      verdict = series.add(merged[k]);
    }
    if (verdict != SeriesSum::Verdict::kOpen) {
      if (trace != nullptr) {
        trace->inside_horizon = merged[series.terms() - 1] <= horizon &&
                                series.terms() <= options.max_visits;
      }
      LS_OBS_COUNT("eval.expectation.visits", merged.size());
      if (verdict == SeriesSum::Verdict::kConverged) return series.sum();
      LS_OBS_COUNT("eval.expectation.divergent", 1);
      return kInfinity;
    }
    if (!truncated) {
      // The visit list is genuinely finite: mass p^K never detects, so
      // the expectation is infinite for any p > 0.
      if (trace != nullptr) {
        trace->inside_horizon = merged.size() < options.max_visits;
      }
      LS_OBS_COUNT("eval.expectation.divergent", 1);
      LS_OBS_COUNT("eval.expectation.visits", merged.size());
      return kInfinity;
    }
    const bool stalled = merged.size() == last_merged;
    if (merged.size() >= options.max_visits || stalled) {
      // Cap (or ladder-overflow stall): the last period ratio decides.
      if (trace != nullptr) trace->inside_horizon = false;
      LS_OBS_COUNT("eval.expectation.visits", merged.size());
      return series.extrapolated();
    }
    last_merged = merged.size();
    cap = std::min(cap * 4, options.max_visits);
  }
}

}  // namespace detail

CrEvalResult measure_expected_cr(const Fleet& fleet,
                                 const ExpectationOptions& options) {
  LS_OBS_SPAN("eval.expectation.scan");
  LS_OBS_COUNT("eval.expectation.scans", 1);
  return detail::measure_cr_with(
      fleet, 0, options.eval,
      [&](const Real x) { return expected_detection_time(fleet, x, options); });
}

Real expectation_convergence_threshold(const int n, const int f) {
  expects(in_proportional_regime(n, f),
          "expectation_convergence_threshold: (n, f) must be in regime");
  const Real kappa = optimal_expansion_factor(n, f);
  return std::pow(kappa, Real{-1} / static_cast<Real>(n));
}

bool expectation_converges(const int n, const int f, const Real p) {
  expects(p >= 0 && p <= 1, "expectation_converges: p must be in [0, 1]");
  if (p == 0) return true;
  return p < expectation_convergence_threshold(n, f);
}

std::vector<ExpectationSweepRow> expectation_sweep(
    const ExpectationSweepOptions& options) {
  LS_OBS_SPAN("eval.expectation.sweep");
  expects(options.p_count >= 1, "expectation sweep: need p_count >= 1");
  expects(options.p_max >= 0 && options.p_max < 1,
          "expectation sweep: need 0 <= p_max < 1");
  expects(options.window_hi > 1, "expectation sweep: need window_hi > 1");
  const std::vector<Real> p_grid =
      options.p_count == 1 ? std::vector<Real>{options.p_max}
                           : linspace(0, options.p_max, options.p_count);
  std::vector<ExpectationSweepRow> rows;
  for (const auto& [n, f] : proportional_regime_pairs(options.n_max)) {
    const Fleet fleet = ProportionalAlgorithm(n, f).build_unbounded_fleet();
    for (const Real p : p_grid) {
      ExpectationSweepRow row;
      row.n = n;
      row.f = f;
      row.p = p;
      row.converges = expectation_converges(n, f, p);
      ExpectationOptions eval;
      eval.p = p;
      eval.eval.window_hi = options.window_hi;
      const CrEvalResult scan = measure_expected_cr(fleet, eval);
      row.expected_cr = scan.cr;
      row.argmax = scan.argmax;
      row.undetected_probes = scan.undetected_probes;
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace linesearch
