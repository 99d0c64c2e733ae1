#include "core/baselines.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "core/competitive.hpp"
#include "sim/analytic.hpp"
#include "sim/zigzag.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace linesearch {

TwoGroupSplit::TwoGroupSplit(const int n, const int f) : n_(n), f_(f) {
  expects(f >= 0, "TwoGroupSplit: f must be >= 0");
  expects(n >= 2 * f + 2, "TwoGroupSplit requires n >= 2f+2");
}

std::string TwoGroupSplit::name() const {
  std::ostringstream out;
  out << "two-group split(" << n_ << "," << f_ << ")";
  return out.str();
}

Fleet TwoGroupSplit::build_fleet(const Real extent) const {
  expects(extent > 1, "build_fleet: extent must exceed 1");
  std::vector<Trajectory> robots;
  robots.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    // Robots 0..f sweep right, f+1..2f+1 sweep left; any extras alternate
    // so both groups keep at least f+1 members.
    const bool rightward =
        (i <= f_) || (i > 2 * f_ + 1 && (i % 2 == 0));
    TrajectoryBuilder builder;
    builder.start_at(0, 0);
    builder.move_to(rightward ? extent : -extent);
    robots.push_back(std::move(builder).build());
  }
  return Fleet(std::move(robots));
}

Fleet TwoGroupSplit::build_unbounded_fleet() const {
  const Trajectory right(std::make_shared<AnalyticRay>(+1));
  const Trajectory left(std::make_shared<AnalyticRay>(-1));
  std::vector<Trajectory> robots;
  robots.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    const bool rightward =
        (i <= f_) || (i > 2 * f_ + 1 && (i % 2 == 0));
    robots.push_back(rightward ? right : left);
  }
  return Fleet(std::move(robots));
}

GroupDoubling::GroupDoubling(const int n, const int f) : n_(n), f_(f) {
  expects(f >= 0 && f < n, "GroupDoubling: need 0 <= f < n");
}

std::string GroupDoubling::name() const {
  std::ostringstream out;
  out << "group doubling(" << n_ << "," << f_ << ")";
  return out.str();
}

Fleet GroupDoubling::build_fleet(const Real extent) const {
  expects(extent > 1, "build_fleet: extent must exceed 1");
  std::vector<Trajectory> robots;
  robots.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    // beta = 3 realizes the classic doubling strategy (kappa = 2); the
    // whole pack shares one trajectory.
    robots.push_back(make_origin_zigzag({.beta = 3,
                                         .first_turn = 1,
                                         .min_coverage = extent}));
  }
  return Fleet(std::move(robots));
}

Fleet GroupDoubling::build_unbounded_fleet() const {
  // The whole pack shares ONE analytic backend: n views over the same
  // O(1) schedule state.
  const Trajectory shared =
      make_analytic_origin_zigzag({.beta = 3, .first_turn = 1});
  return Fleet(std::vector<Trajectory>(static_cast<std::size_t>(n_), shared));
}

ClassicCowPath::ClassicCowPath(const int n, const int f,
                               const bool mirrored)
    : n_(n), f_(f), mirrored_(mirrored) {
  expects(f >= 0 && f < n, "ClassicCowPath: need 0 <= f < n");
  expects(!mirrored || n >= 2, "ClassicCowPath: mirroring needs n >= 2");
}

std::string ClassicCowPath::name() const {
  std::ostringstream out;
  out << (mirrored_ ? "mirrored " : "") << "classic cow-path(" << n_ << ","
      << f_ << ")";
  return out.str();
}

std::optional<Real> ClassicCowPath::theoretical_cr() const {
  // The classic single-trajectory bound; with mirroring the worst case
  // depends on which group the adversary depletes — no closed form here.
  if (mirrored_) return std::nullopt;
  return Real{9};
}

Fleet ClassicCowPath::build_fleet(const Real extent) const {
  expects(extent > 1, "build_fleet: extent must exceed 1");
  const auto build_one = [extent](const int direction) {
    TrajectoryBuilder builder;
    builder.start_at(0, 0);
    Real turn = direction;  // +-1, then doubling with alternating sign
    Real reach_positive = 0, reach_negative = 0;
    while (reach_positive < extent || reach_negative < extent) {
      builder.move_to(turn);
      if (turn > 0) {
        reach_positive = std::max(reach_positive, turn);
      } else {
        reach_negative = std::max(reach_negative, -turn);
      }
      turn *= -2;
    }
    builder.move_to(turn);  // final turn interior-izing leg (cf. zigzag)
    return std::move(builder).build();
  };

  std::vector<Trajectory> robots;
  robots.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    const int direction = (mirrored_ && i % 2 == 1) ? -1 : +1;
    robots.push_back(build_one(direction));
  }
  return Fleet(std::move(robots));
}

Fleet ClassicCowPath::build_unbounded_fleet() const {
  // Non-cone ladder: full speed to +-1 at t = 1, then turning points
  // -2, 4, -8, ... — `turn *= -2` in the dense builder, i.e. kappa = 2
  // with a unit-speed (not 1/beta) start leg.
  const auto build_one = [](const int direction) {
    AnalyticZigzagSpec spec;
    spec.head = {{0, 0}, {1, static_cast<Real>(direction)}};
    spec.kappa = 2;
    return Trajectory(std::make_shared<AnalyticZigzag>(std::move(spec)));
  };
  const Trajectory forward = build_one(+1);
  const Trajectory backward = mirrored_ ? build_one(-1) : forward;
  std::vector<Trajectory> robots;
  robots.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    robots.push_back((mirrored_ && i % 2 == 1) ? backward : forward);
  }
  return Fleet(std::move(robots));
}

StaggeredDoubling::StaggeredDoubling(const int n, const int f,
                                     const Real delay_step)
    : n_(n), f_(f), delay_(delay_step) {
  expects(f >= 0 && f < n, "StaggeredDoubling: need 0 <= f < n");
  expects(delay_step > 0, "StaggeredDoubling: delay_step must be positive");
}

std::string StaggeredDoubling::name() const {
  std::ostringstream out;
  out << "staggered doubling(" << n_ << "," << f_ << ",d=" << fixed(delay_, 1)
      << ")";
  return out.str();
}

Fleet StaggeredDoubling::build_fleet(const Real extent) const {
  expects(extent > 1, "build_fleet: extent must exceed 1");
  std::vector<Trajectory> robots;
  robots.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    TrajectoryBuilder builder;
    builder.start_at(0, 0);
    if (i > 0) builder.wait_until(delay_ * static_cast<Real>(i));
    Real turn = 1;
    Real reach_positive = 0, reach_negative = 0;
    while (reach_positive < extent || reach_negative < extent) {
      builder.move_to(turn);
      if (turn > 0) {
        reach_positive = std::max(reach_positive, turn);
      } else {
        reach_negative = std::max(reach_negative, -turn);
      }
      turn *= -2;
    }
    builder.move_to(turn);
    robots.push_back(std::move(builder).build());
  }
  return Fleet(std::move(robots));
}

Fleet StaggeredDoubling::build_unbounded_fleet() const {
  std::vector<Trajectory> robots;
  robots.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    AnalyticZigzagSpec spec;
    spec.head.push_back({0, 0});
    if (i > 0) spec.head.push_back({delay_ * static_cast<Real>(i), 0});
    // move_to(1) semantics: arrive at +1 one time unit after the wait.
    spec.head.push_back({spec.head.back().time + 1, 1});
    spec.kappa = 2;
    robots.emplace_back(std::make_shared<AnalyticZigzag>(std::move(spec)));
  }
  return Fleet(std::move(robots));
}

UniformOffsetZigzag::UniformOffsetZigzag(const int n, const int f)
    : n_(n), f_(f), beta_(optimal_beta(n, f)) {}

std::string UniformOffsetZigzag::name() const {
  std::ostringstream out;
  out << "uniform-offset(" << n_ << "," << f_ << ")";
  return out.str();
}

Fleet UniformOffsetZigzag::build_fleet(const Real extent) const {
  expects(extent > 1, "build_fleet: extent must exceed 1");
  const Real kappa = expansion_factor(beta_);
  const Real span = kappa * kappa - 1;  // first turns live in [1, kappa^2)
  std::vector<Trajectory> robots;
  robots.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    // Arithmetic magnitudes, alternating initial sides — a "reasonable"
    // non-proportional schedule (the proportional one also spreads its
    // robots over both sides via the backward extension).
    const Real magnitude =
        1 + span * static_cast<Real>(i) / static_cast<Real>(n_);
    const Real first_turn = (i % 2 == 0) ? magnitude : -magnitude;
    robots.push_back(make_origin_zigzag(
        {.beta = beta_, .first_turn = first_turn, .min_coverage = extent}));
  }
  return Fleet(std::move(robots));
}

Fleet UniformOffsetZigzag::build_unbounded_fleet() const {
  const Real kappa = expansion_factor(beta_);
  const Real span = kappa * kappa - 1;
  std::vector<Trajectory> robots;
  robots.reserve(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    const Real magnitude =
        1 + span * static_cast<Real>(i) / static_cast<Real>(n_);
    const Real first_turn = (i % 2 == 0) ? magnitude : -magnitude;
    robots.push_back(
        make_analytic_origin_zigzag({.beta = beta_, .first_turn = first_turn}));
  }
  return Fleet(std::move(robots));
}

}  // namespace linesearch
