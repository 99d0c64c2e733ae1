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
#include "sim/analytic.hpp"
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

/// The lazy merge's series sum_k t_k (1-p) p^(k-1), fed one merged
/// visit time at a time in increasing order, with the period-window
/// convergence and divergence tests.
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
  /// geometric tail of the last full window's ratio if that window
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

/// Relative slack of the period-order check, far above the few-ulp
/// error of the stream coefficients.  Two streams whose growth
/// coefficients agree this closely are tied (the mirrored robots of an
/// even-n fleet tie exactly); if they do cross, it is where their times
/// differ by this fraction, which moves the sum by about as much.
constexpr Real kOrderSlack = 1e-15L;

/// Merged terms the closed form may sum before its period order settles.
/// Streams cross at most once each, so the order settles within a few
/// periods; the bound only turns a broken invariant into an error.
constexpr std::size_t kMaxHeadTerms = std::size_t{1} << 16;

/// The exact evaluator of a fleet whose robots are all unbounded
/// AnalyticZigzag ladders with one shared kappa.
///
/// Once a robot's leg starts at a turn x_k with |x_k| > |x|, every leg
/// crosses x once, at t_k + |x_k| - s|x| (s = +1 when x_k is on x's
/// side).  With the seed (t_s, x_s) and B = t_s - |x_s| (kappa+1) /
/// (kappa-1), the turn times are t_k = |x_k| (kappa+1)/(kappa-1) + B,
/// so the legs of one parity form a stream
///
///   h_j = a kappa^(2j) - d,   a = t_k + |x_k| - B,   d = s|x| - B,
///
/// and every robot feeds two streams.  Two streams are affine in the
/// same kappa^(2j), so they cross at most once: when the 2n stream heads,
/// sorted by time, also have nondecreasing a, and the first stream's next
/// visit is no earlier than the last head, the merged order repeats that
/// sorted period forever.  The sum from there on is geometric:
///
///   sum_m w_m [a_m / (1 - p^(2n) kappa^2) - d_m / (1 - p^(2n))],
///
/// with w_m the weights of the next 2n terms.
class LadderSeries {
 public:
  /// The evaluator of `fleet`, or nullopt when some robot is not an
  /// unbounded AnalyticZigzag or the robots' kappas differ.
  static std::optional<LadderSeries> of(const Fleet& fleet) {
    LadderSeries series;
    series.robots_.reserve(fleet.size());
    for (std::size_t robot = 0; robot < fleet.size(); ++robot) {
      const auto* zigzag = dynamic_cast<const AnalyticZigzag*>(
          &fleet.robot(static_cast<RobotId>(robot)).source());
      if (zigzag == nullptr || !zigzag->unbounded()) return std::nullopt;
      if (robot == 0) {
        series.kappa_ = zigzag->kappa();
      } else if (zigzag->kappa() != series.kappa_) {
        return std::nullopt;
      }
      const Waypoint& seed = zigzag->seed();
      const Real kappa = zigzag->kappa();
      series.robots_.push_back(
          {.head = &zigzag->head(),
           .offset = seed.time -
                     std::fabs(seed.position) * (kappa + 1) / (kappa - 1)});
    }
    series.walks_.resize(series.robots_.size());
    series.streams_.reserve(2 * series.robots_.size());
    return series;
  }

  /// E[T(target)] at 0 < p < 1: kInfinity iff p^(2n) kappa^2 >= 1.
  Real expected(const Real target, const Real p) {
    // One period multiplies the terms by p^(2n) kappa^2.
    const Real period_weight =
        std::pow(p, static_cast<Real>(2 * robots_.size()));
    const Real contraction = period_weight * kappa_ * kappa_;
    if (contraction >= 1) {
      LS_OBS_COUNT("eval.expectation.divergent", 1);
      return kInfinity;
    }
    x_ = target;
    streams_.clear();
    std::size_t walking = 0;
    for (std::size_t robot = 0; robot < robots_.size(); ++robot) {
      Walk& walk = walks_[robot];
      walk = Walk{.from = robots_[robot].head->front()};
      if (head_visit(robot)) {
        ++walking;
      } else {
        settle(robot);
      }
    }
    Real sum = 0;
    Real weight = 1 - p;  // (1 - p) p^(k-1) of the next term k
    std::size_t terms = 0;
    while (walking > 0 || !period_settled()) {
      ensures(terms < kMaxHeadTerms,
              "expected_detection_time: ladder order did not settle");
      // The next term: the earliest walking head, or the first stream.
      Real t = streams_.empty() ? kInfinity : streams_.front().h;
      std::size_t from_walk = walks_.size();
      for (std::size_t robot = 0; walking > 0 && robot < walks_.size();
           ++robot) {
        if (!walks_[robot].settled && walks_[robot].pending < t) {
          t = walks_[robot].pending;
          from_walk = robot;
        }
      }
      sum += weight * t;
      weight *= p;
      ++terms;
      if (from_walk < walks_.size()) {
        if (!head_visit(from_walk)) {
          settle(from_walk);
          --walking;
        }
      } else {
        Stream next = streams_.front();
        streams_.erase(streams_.begin());
        next.a *= kappa_ * kappa_;
        next.h = next.a - next.d;
        insert(next);
      }
    }
    Real tail = 0;
    for (const Stream& stream : streams_) {
      tail += weight * (stream.a / (1 - contraction) -
                        stream.d / (1 - period_weight));
      weight *= p;
    }
    LS_OBS_COUNT("eval.expectation.visits", terms);
    return sum + tail;
  }

 private:
  struct Robot {
    const std::vector<Waypoint>* head = nullptr;
    Real offset = 0;  ///< B of the turn times above
  };
  /// One robot's walk over its head and ladder, until it settles.
  struct Walk {
    Waypoint from;              ///< start of the next leg
    std::size_t index = 0;      ///< waypoint index of `from`
    std::size_t legs = 0;       ///< legs walked
    bool emitted = false;       ///< a visit was reported
    Real last = 0;              ///< the last reported visit
    Real pending = 0;           ///< the next visit, while walking
    bool settled = false;       ///< `from` starts the robot's streams
  };
  /// h_j = a kappa^(2j) - d; `h` is the head.
  struct Stream {
    Real h = 0;
    Real a = 0;
    Real d = 0;
  };

  /// The leg after `from` on robot's schedule.
  [[nodiscard]] Waypoint next_waypoint(const std::size_t robot,
                                       const Walk& walk) const {
    const std::vector<Waypoint>& head = *robots_[robot].head;
    if (walk.index + 1 < head.size()) return head[walk.index + 1];
    const Real next = -(walk.from.position * kappa_);
    return {walk.from.time + std::fabs(next - walk.from.position), next};
  }

  /// The visit scan of AnalyticZigzag's cursor, one leg at a time: store
  /// the robot's next visit in `pending` and return true, or return false
  /// at the first ladder leg that starts past |x| and has a visit to
  /// report; `from` is then that leg's start.
  bool head_visit(const std::size_t robot) {
    Walk& walk = walks_[robot];
    const std::size_t head_size = robots_[robot].head->size();
    for (;;) {
      const Waypoint to = next_waypoint(robot, walk);
      const Waypoint& from = walk.from;
      const Real lo = std::min(from.position, to.position);
      const Real hi = std::max(from.position, to.position);
      // A leg starting on x continues the visit the last leg reported.
      const bool skip_start = walk.legs++ > 0 && x_ == from.position;
      bool report = false;
      Real visit = 0;
      if (x_ >= lo && x_ <= hi && !skip_start) {
        if (from.position == to.position) {
          visit = from.time;
        } else {
          const Real fraction =
              (x_ - from.position) / (to.position - from.position);
          visit = from.time + fraction * (to.time - from.time);
        }
        report = !(walk.emitted && approx_equal(walk.last, visit));
      }
      if (report && walk.index + 1 >= head_size &&
          std::fabs(from.position) > std::fabs(x_)) {
        walk.settled = true;
        return false;
      }
      walk.from = to;
      ++walk.index;
      if (report) {
        walk.emitted = true;
        walk.last = visit;
        walk.pending = visit;
        return true;
      }
    }
  }

  /// The robot's two streams: the legs starting at `from` and at the
  /// turn after it.
  void settle(const std::size_t robot) {
    const Real offset = robots_[robot].offset;
    const Real reach = std::fabs(x_);
    Walk& walk = walks_[robot];
    for (int leg = 0; leg < 2; ++leg) {
      const Waypoint& turn = walk.from;
      const Real a = turn.time + std::fabs(turn.position) - offset;
      const Real d =
          (sign_of(turn.position) == sign_of(x_) ? reach : -reach) - offset;
      insert({.h = a - d, .a = a, .d = d});
      walk.from = next_waypoint(robot, walk);
      ++walk.index;
    }
  }

  /// Insert keeping streams_ sorted by (h, a).
  void insert(const Stream& stream) {
    auto at = streams_.end();
    while (at != streams_.begin()) {
      const Stream& before = *(at - 1);
      if (before.h < stream.h ||
          (before.h == stream.h && before.a <= stream.a)) {
        break;
      }
      --at;
    }
    streams_.insert(at, stream);
  }

  /// True when the merged order repeats the current sorted heads every
  /// period from here on: no two consecutive streams cross later
  /// (nondecreasing a), and the first stream's next visit follows the
  /// last head.
  [[nodiscard]] bool period_settled() const {
    for (std::size_t i = 1; i < streams_.size(); ++i) {
      if (streams_[i].a < streams_[i - 1].a * (1 - kOrderSlack)) {
        return false;
      }
    }
    const Stream& first = streams_.front();
    const Stream& last = streams_.back();
    const Real next_a = first.a * kappa_ * kappa_;
    return next_a >= last.a * (1 - kOrderSlack) &&
           next_a - first.d >= last.h;
  }

  Real kappa_ = 0;
  std::vector<Robot> robots_;
  std::vector<Walk> walks_;
  std::vector<Stream> streams_;  ///< sorted by (h, a)
  Real x_ = 0;
};

/// The lazy n-way merge: one visit cursor per robot, the smallest head
/// is the next term.  A cursor leaves the merge when it runs out or
/// yields a time past Real range (ladder overflow).  `converged`, when
/// non-null, reports whether a contracting window settled the sum
/// before any cursor went non-finite.
Real lazy_series(const Fleet& fleet, const Real target,
                 const ExpectationOptions& options, bool* converged) {
  if (converged != nullptr) *converged = false;
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
      if (converged != nullptr) *converged = !overflowed;
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

/// expected_detection_time with the fleet's ladder evaluator, if any,
/// built by the caller (a scan builds it once for all its probes).
Real evaluate(const Fleet& fleet, LadderSeries* ladder, const Real target,
              const ExpectationOptions& options) {
  if (const std::optional<Real> settled =
          settle_without_series(fleet, target, options)) {
    return *settled;
  }
  if (ladder != nullptr) return ladder->expected(target, options.p);
  return lazy_series(fleet, target, options, nullptr);
}

}  // namespace

Real expected_detection_time(const Fleet& fleet, const Real target,
                             const ExpectationOptions& options) {
  std::optional<LadderSeries> ladder = LadderSeries::of(fleet);
  return evaluate(fleet, ladder ? &*ladder : nullptr, target, options);
}

namespace detail {

Real expected_detection_time_lazy(const Fleet& fleet, const Real target,
                                  const ExpectationOptions& options,
                                  bool* converged) {
  if (converged != nullptr) *converged = false;
  if (const std::optional<Real> settled =
          settle_without_series(fleet, target, options)) {
    return *settled;
  }
  return lazy_series(fleet, target, options, converged);
}

}  // namespace detail

CrEvalResult measure_expected_cr(const Fleet& fleet,
                                 const ExpectationOptions& options) {
  LS_OBS_SPAN("eval.expectation.scan");
  LS_OBS_COUNT("eval.expectation.scans", 1);
  std::optional<LadderSeries> ladder = LadderSeries::of(fleet);
  LadderSeries* closed = ladder ? &*ladder : nullptr;
  return detail::measure_cr_with(
      fleet, 0, options.eval, [&](const Real x) {
        return evaluate(fleet, closed, x, options);
      });
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
