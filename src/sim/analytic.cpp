#include "sim/analytic.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "sim/visit_sweep.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace linesearch {
namespace {

constexpr Real kSpeedSlack = 1 + 1e-9L;  // mirrors DenseSchedule

}  // namespace

/// Streams the schedule's waypoints in order with O(1) memory: head
/// waypoints first, then the ladder recurrence, then (barrier mode) the
/// two barrier sweeps.  All arithmetic matches the dense builders
/// bit-for-bit (see the header comment).
class AnalyticZigzag::Walker {
 public:
  explicit Walker(const AnalyticZigzag& schedule)
      : schedule_(schedule), w_(schedule.head_.front()) {}

  [[nodiscard]] const Waypoint& current() const noexcept { return w_; }
  [[nodiscard]] std::size_t index() const noexcept { return k_; }

  [[nodiscard]] bool has_next() const noexcept {
    if (k_ + 1 < schedule_.head_.size()) return true;
    return stage_ != Stage::kDone;
  }

  void advance() {
    ++k_;
    if (k_ < schedule_.head_.size()) {
      w_ = schedule_.head_[k_];
      return;
    }
    const Real x = w_.position;
    Real next = 0;
    switch (stage_) {
      case Stage::kMain:
        if (schedule_.barrier_ > 0 &&
            std::fabs(x * schedule_.kappa_) >= schedule_.barrier_) {
          next = (x > 0) ? -schedule_.barrier_ : schedule_.barrier_;
          stage_ = Stage::kAtBarrier;
        } else {
          next = -(x * schedule_.kappa_);
        }
        break;
      case Stage::kAtBarrier:
        next = -x;
        stage_ = Stage::kDone;
        break;
      case Stage::kDone:
        ensures(false, "walker advanced past the final waypoint");
    }
    w_ = {w_.time + std::fabs(next - x), next};
  }

 private:
  enum class Stage { kMain, kAtBarrier, kDone };

  const AnalyticZigzag& schedule_;
  std::size_t k_ = 0;
  Waypoint w_;
  Stage stage_ = Stage::kMain;
};

AnalyticZigzag::AnalyticZigzag(AnalyticZigzagSpec spec)
    : head_(std::move(spec.head)),
      kappa_(spec.kappa),
      barrier_(spec.barrier) {
  expects(!head_.empty(), "analytic zigzag: head needs >= 1 waypoint");
  expects(kappa_ > 1, "analytic zigzag: kappa must exceed 1");
  expects(head_.back().position != 0,
          "analytic zigzag: ladder seed position must be non-zero");
  expects(barrier_ >= 0, "analytic zigzag: barrier must be >= 0");
  expects(barrier_ == 0 || barrier_ > std::fabs(head_.back().position),
          "analytic zigzag: barrier must exceed the seed magnitude");

  Real head_max_abs = std::fabs(head_.front().position);
  int last_direction = 0;
  for (std::size_t i = 1; i < head_.size(); ++i) {
    const Waypoint& a = head_[i - 1];
    const Waypoint& b = head_[i];
    expects(b.time > a.time,
            "analytic zigzag: head times must strictly increase");
    const Real speed = std::fabs(b.position - a.position) / (b.time - a.time);
    expects(speed <= kMaxSpeed * kSpeedSlack,
            "analytic zigzag: head segment exceeds maximum speed");
    head_max_speed_ = std::max(head_max_speed_, speed);
    head_max_abs = std::max(head_max_abs, std::fabs(b.position));
    const int direction = sign_of(b.position - a.position);
    if (direction == 0) continue;  // pause
    if (last_direction != 0 && direction == -last_direction) {
      head_turns_.push_back(a);
    }
    last_direction = direction;
  }
  // The ladder leaves the seed toward -sign(seed), so the seed registers
  // as a turn exactly when the head arrived at it moving toward the seed's
  // own side (the origin-start schedules); a schedule that STARTS on the
  // seed (cone-anchored) has no incoming direction and no turn there —
  // both match the dense turn-extraction rule.
  seed_is_turn_ =
      last_direction != 0 && sign_of(head_.back().position) == last_direction;

  if (barrier_ > 0) {
    // Finite schedule: materialize once so the dense-only queries
    // (waypoints(), turning_waypoints()) work and count_ is exact.
    LS_OBS_COUNT("sim.analytic.barrier_materializations", 1);
    auto cache = std::make_unique<BoundedCache>();
    cache->waypoints.push_back(head_.front());
    for (Walker cursor(*this); cursor.has_next();) {
      cursor.advance();
      cache->waypoints.push_back(cursor.current());
    }
    count_ = cache->waypoints.size();
    int direction_before = 0;
    for (std::size_t s = 0; s + 1 < cache->waypoints.size(); ++s) {
      const int direction = sign_of(cache->waypoints[s + 1].position -
                                    cache->waypoints[s].position);
      if (direction == 0) continue;
      if (direction_before != 0 && direction == -direction_before) {
        cache->turns.push_back(cache->waypoints[s]);
      }
      direction_before = direction;
    }
    // Ladder magnitudes stay strictly below the barrier by the stopping
    // rule; the barrier sweeps reach exactly +-barrier.
    cache->max_abs = std::max(head_max_abs, barrier_);
    bounded_ = std::move(cache);
  }
}

Real AnalyticZigzag::end_time() const {
  return unbounded() ? kInfinity : bounded_->waypoints.back().time;
}

Real AnalyticZigzag::end_position() const {
  expects(!unbounded(), "end_position: schedule has an unbounded horizon");
  return bounded_->waypoints.back().position;
}

Real AnalyticZigzag::max_abs_position() const {
  return unbounded() ? kInfinity : bounded_->max_abs;
}

Real AnalyticZigzag::max_speed() const {
  // Every leg beyond the head moves at speed exactly 1 by construction
  // (time deltas are |position deltas|), and there is always at least one
  // such leg.
  return std::max(head_max_speed_, Real{1});
}

Real AnalyticZigzag::position_at(const Real t) const {
  expects(t >= start_time() && t <= end_time(),
          "position_at: time outside trajectory span");
  Walker cursor(*this);
  Waypoint a = cursor.current();
  cursor.advance();
  Waypoint b = cursor.current();
  while (b.time <= t) {
    if (!cursor.has_next()) return b.position;  // t == end_time (bounded)
    a = b;
    cursor.advance();
    b = cursor.current();
  }
  const Real fraction = (t - a.time) / (b.time - a.time);
  return a.position + fraction * (b.position - a.position);
}

/// The segment scan of DenseSchedule::visit_times against generated
/// segments, stepped one visit at a time.  visit_times drains one of
/// these, so the two agree by construction.  Every x is reached on an
/// unbounded ladder (its reach grows by kappa > 1 per leg), so next()
/// returns after finitely many legs; a bounded schedule runs out.
class AnalyticZigzag::Cursor final : public VisitCursor {
 public:
  Cursor(const AnalyticZigzag& schedule, const Real x)
      : walker_(schedule), a_(walker_.current()), x_(x) {
    LS_OBS_COUNT("sim.analytic.visit_queries", 1);
  }

  bool next(Real* t) override {
    while (walker_.has_next()) {
      walker_.advance();
      const Waypoint a = a_;
      const Waypoint& b = walker_.current();
      a_ = b;
      const Real lo = std::min(a.position, b.position);
      const Real hi = std::max(a.position, b.position);
      // Continuous occupancy: a segment STARTING on x continues a visit
      // the previous segment already reported.
      const bool skip_start = segments_++ > 0 && x_ == a.position;
      if (!(x_ >= lo && x_ <= hi) || skip_start) continue;
      Real visit;
      if (a.position == b.position) {
        visit = a.time;  // stationary segment sitting on x
      } else {
        const Real fraction = (x_ - a.position) / (b.position - a.position);
        visit = a.time + fraction * (b.time - a.time);
      }
      if (emitted_ && approx_equal(last_, visit)) continue;
      emitted_ = true;
      last_ = visit;
      *t = visit;
      return true;
    }
    return false;
  }

 private:
  Walker walker_;
  Waypoint a_;
  Real x_;
  std::size_t segments_ = 0;
  bool emitted_ = false;
  Real last_ = 0;
};

std::vector<Real> AnalyticZigzag::visit_times(
    const Real x, const std::size_t max_count) const {
  expects(!unbounded() || max_count < kUnboundedCount,
          "visit_times: unbounded schedule needs a finite max_count");
  Cursor cursor(*this, x);
  std::vector<Real> times;
  Real t = 0;
  while (times.size() < max_count && cursor.next(&t)) times.push_back(t);
  return times;
}

std::unique_ptr<VisitCursor> AnalyticZigzag::visit_cursor(const Real x) const {
  return std::make_unique<Cursor>(*this, x);
}

void AnalyticZigzag::first_visit_times_into(const Real* xs,
                                            const std::size_t count,
                                            Real* out) const {
  // One ladder walk answers the whole sorted batch — the scalar
  // visit_times restarts the walk per query, which is exactly the cost
  // the SoA probe kernel exists to avoid.  Counted separately from
  // sim.analytic.visit_queries, which keeps meaning "walks".
  LS_OBS_COUNT("sim.analytic.batched_sweeps", 1);
  LS_OBS_COUNT("sim.analytic.batched_visit_queries", count);
  detail::FrontierSweep sweep(xs, count, out, head_.front());
  // Unbounded ladders reach every point of both half-lines eventually
  // (reach grows by kappa > 1 per leg), so the sweep always completes;
  // bounded schedules may simply run out of segments, leaving the
  // never-visited probes at kInfinity.
  Walker cursor(*this);
  Waypoint a = cursor.current();
  while (cursor.has_next() && !sweep.done()) {
    cursor.advance();
    const Waypoint& b = cursor.current();
    sweep.feed(a, b);
    a = b;
  }
}

const std::vector<Waypoint>& AnalyticZigzag::waypoints() const {
  expects(!unbounded(),
          "waypoints: schedule has an unbounded horizon; use "
          "waypoint_prefix or the windowed queries");
  return bounded_->waypoints;
}

std::vector<Waypoint> AnalyticZigzag::waypoint_prefix(
    const std::size_t k) const {
  std::vector<Waypoint> prefix;
  if (k == 0) return prefix;
  Walker cursor(*this);
  prefix.push_back(cursor.current());
  while (prefix.size() < k && cursor.has_next()) {
    cursor.advance();
    prefix.push_back(cursor.current());
  }
  return prefix;
}

const std::vector<Waypoint>& AnalyticZigzag::turning_waypoints() const {
  expects(!unbounded(),
          "turning_waypoints: schedule has an unbounded horizon; use "
          "turning_magnitudes_in");
  return bounded_->turns;
}

std::vector<Real> AnalyticZigzag::turning_magnitudes_in(const int side,
                                                        const Real lo,
                                                        const Real hi) const {
  expects(side == 1 || side == -1,
          "turning_magnitudes_in: side must be +-1");
  LS_OBS_COUNT("sim.analytic.window_queries", 1);
  std::vector<Real> magnitudes;
  const auto add = [&](const Real position) {
    if (sign_of(position) != side) return;
    const Real magnitude = std::fabs(position);
    if (magnitude >= lo && magnitude <= hi) magnitudes.push_back(magnitude);
  };
  for (const Waypoint& w : head_turns_) add(w.position);
  // Ladder turns: the seed (when it registers) and every later turning
  // point; magnitudes grow by kappa each step, so the window bounds the
  // enumeration.
  Real x = head_.back().position;
  if (seed_is_turn_) add(x);
  bool hit_barrier = false;
  while (true) {
    if (barrier_ > 0 && std::fabs(x * kappa_) >= barrier_) {
      hit_barrier = true;
      break;
    }
    x = -(x * kappa_);
    if (std::fabs(x) > hi) break;
    add(x);
  }
  if (hit_barrier) {
    // The first barrier waypoint is a turn (the robot reverses there);
    // the final one is the end of the schedule and is not.
    add((x > 0) ? -barrier_ : barrier_);
  }
  std::sort(magnitudes.begin(), magnitudes.end());
  return magnitudes;
}

std::vector<Real> AnalyticZigzag::waypoint_positions_within(
    const Real max_magnitude) const {
  LS_OBS_COUNT("sim.analytic.window_queries", 1);
  std::vector<Real> positions;
  Walker cursor(*this);
  while (true) {
    const Waypoint& w = cursor.current();
    if (std::fabs(w.position) <= max_magnitude) {
      positions.push_back(w.position);
    } else if (cursor.index() >= head_.size() - 1) {
      // Past the head the magnitudes only grow (ladder expansion, then
      // the barrier): nothing further can re-enter the window.
      break;
    }
    if (!cursor.has_next()) break;
    cursor.advance();
  }
  return positions;
}

std::size_t AnalyticZigzag::footprint_bytes() const {
  std::size_t bytes =
      sizeof(AnalyticZigzag) +
      (head_.capacity() + head_turns_.capacity()) * sizeof(Waypoint);
  if (bounded_) {
    bytes += sizeof(BoundedCache) +
             (bounded_->waypoints.capacity() + bounded_->turns.capacity()) *
                 sizeof(Waypoint);
  }
  return bytes;
}

AnalyticRay::AnalyticRay(const int direction) : direction_(direction) {
  expects(direction == 1 || direction == -1,
          "analytic ray: direction must be +-1");
}

Real AnalyticRay::end_position() const {
  expects(false, "end_position: a ray has an unbounded horizon");
  return 0;  // unreachable
}

Real AnalyticRay::position_at(const Real t) const {
  expects(t >= 0, "position_at: time outside trajectory span");
  return direction_ > 0 ? t : -t;
}

std::vector<Real> AnalyticRay::visit_times(
    const Real x, const std::size_t max_count) const {
  std::vector<Real> times;
  if (max_count == 0) return times;
  // The ray passes each point of its half-line exactly once, at t = |x|
  // (unit speed from the origin); the other half-line is never visited.
  if (x == 0 || sign_of(x) == direction_) {
    times.push_back(std::fabs(x));
  }
  return times;
}

void AnalyticRay::first_visit_times_into(const Real* xs,
                                         const std::size_t count,
                                         Real* out) const {
  // Closed form, elementwise: the ray reaches x at t = |x| iff x is on
  // its half-line (or the origin) — same branch as visit_times.
  const int direction = direction_;
  LS_SIMD_LOOP
  for (std::size_t i = 0; i < count; ++i) {
    const Real x = xs[i];
    out[i] = (x == 0 || sign_of(x) == direction) ? std::fabs(x) : kInfinity;
  }
}

const std::vector<Waypoint>& AnalyticRay::waypoints() const {
  expects(false,
          "waypoints: a ray has an unbounded horizon; use waypoint_prefix");
  static const std::vector<Waypoint> kNone;
  return kNone;  // unreachable
}

std::vector<Waypoint> AnalyticRay::waypoint_prefix(const std::size_t k) const {
  // Only the origin waypoint is materializable: the ray has no further
  // turning structure, just one infinite segment.
  std::vector<Waypoint> prefix;
  if (k > 0) prefix.push_back({0, 0});
  return prefix;
}

const std::vector<Waypoint>& AnalyticRay::turning_waypoints() const {
  static const std::vector<Waypoint> kNone;
  return kNone;  // a ray never turns, bounded or not
}

std::vector<Real> AnalyticRay::turning_magnitudes_in(const int side,
                                                     const Real lo,
                                                     const Real hi) const {
  expects(side == 1 || side == -1,
          "turning_magnitudes_in: side must be +-1");
  (void)lo;
  (void)hi;
  return {};
}

std::vector<Real> AnalyticRay::waypoint_positions_within(
    const Real max_magnitude) const {
  std::vector<Real> positions;
  if (max_magnitude >= 0) positions.push_back(0);
  return positions;
}

}  // namespace linesearch
