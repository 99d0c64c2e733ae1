#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace linesearch {

Real FaultModel::detection_time(const Fleet& fleet, const Real target,
                                const int max_faults) {
  return fleet.detection_time_with_faults(
      target, choose_faults(fleet, target, max_faults));
}

std::vector<bool> AdversarialFaults::choose_faults(const Fleet& fleet,
                                                   const Real target,
                                                   const int max_faults) {
  expects(max_faults >= 0, "max_faults must be >= 0");
  std::vector<bool> faulty(fleet.size(), false);
  const std::vector<VisitRecord> order = fleet.visit_order(target);
  const std::size_t budget =
      std::min<std::size_t>(static_cast<std::size_t>(max_faults),
                            fleet.size());
  for (std::size_t i = 0; i < budget; ++i) {
    // Only robots that actually visit can usefully be made faulty, but
    // marking a never-visiting robot costs the adversary nothing either.
    faulty[order[i].robot] = true;
  }
  return faulty;
}

FixedFaults::FixedFaults(std::vector<bool> faulty)
    : faulty_(std::move(faulty)) {}

std::vector<bool> FixedFaults::choose_faults(const Fleet& fleet,
                                             const Real /*target*/,
                                             const int max_faults) {
  expects(max_faults >= 0, "max_faults must be >= 0");
  expects(faulty_.size() == fleet.size(),
          "fixed fault set size must match fleet size");
  const auto count =
      std::count(faulty_.begin(), faulty_.end(), true);
  expects(count <= max_faults, [count, max_faults] {
    return "fixed fault set has " + std::to_string(count) +
           " faulty robots but the budget allows only " +
           std::to_string(max_faults);
  });
  return faulty_;
}

RandomFaults::RandomFaults(const std::uint64_t seed) : rng_(seed) {}

std::vector<bool> RandomFaults::choose_faults(const Fleet& fleet,
                                              const Real /*target*/,
                                              const int max_faults) {
  expects(max_faults >= 0, "max_faults must be >= 0");
  expects(static_cast<std::size_t>(max_faults) <= fleet.size(),
          "fault budget exceeds fleet size");
  // Fisher-Yates on SplitMix64 (std::shuffle's swap sequence is
  // implementation-defined, which made seeded studies diverge between
  // standard libraries).  A full shuffle rather than a prefix draw keeps
  // one stream advance per robot regardless of the budget.
  std::vector<RobotId> ids(fleet.size());
  std::iota(ids.begin(), ids.end(), RobotId{0});
  for (std::size_t i = ids.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(ids[i - 1], ids[j]);
  }
  std::vector<bool> faulty(fleet.size(), false);
  for (int i = 0; i < max_faults; ++i) {
    faulty[ids[static_cast<std::size_t>(i)]] = true;
  }
  return faulty;
}

namespace {

/// Cut one trajectory at `crash`.  Shares the backend when the crash is
/// at or past the end; otherwise materializes the kept waypoints plus an
/// interpolated cut point using DenseSchedule::position_at's exact
/// arithmetic (value-identity with World's crash truncation).
Trajectory truncate_trajectory(const Trajectory& robot, const Real crash) {
  expects(crash >= 0, "truncate_at_crashes: crash times must be >= 0");
  if (!(crash < robot.end_time())) return robot;
  if (crash <= robot.start_time()) {
    return Trajectory(std::vector<Waypoint>{
        Waypoint{robot.start_time(), robot.start_position()}});
  }
  std::vector<Waypoint> kept;
  if (robot.unbounded()) {
    std::size_t count = 64;
    kept = robot.waypoint_prefix(count);
    while (kept.back().time < crash) {
      count *= 2;
      kept = robot.waypoint_prefix(count);
    }
  } else {
    kept = robot.waypoints();
  }
  std::size_t cut = 0;
  while (cut < kept.size() && kept[cut].time <= crash) ++cut;
  const Waypoint before = kept[cut - 1];
  std::vector<Waypoint> out(kept.begin(),
                            kept.begin() + static_cast<std::ptrdiff_t>(cut));
  if (before.time < crash) {
    const Waypoint after = kept[cut];
    const Real fraction = (crash - before.time) / (after.time - before.time);
    out.push_back(Waypoint{
        crash,
        before.position + fraction * (after.position - before.position)});
  }
  return Trajectory(std::move(out));
}

}  // namespace

Fleet truncate_at_crashes(const Fleet& fleet,
                          const std::vector<Real>& crash_times) {
  expects(crash_times.size() == fleet.size(),
          "truncate_at_crashes: crash schedule size must match the fleet");
  std::vector<Trajectory> robots;
  robots.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    robots.push_back(truncate_trajectory(
        fleet.robot(static_cast<RobotId>(i)), crash_times[i]));
  }
  return Fleet(std::move(robots));
}

CrashFaults::CrashFaults(std::vector<Real> crash_times)
    : crash_times_(std::move(crash_times)) {
  for (const Real t : crash_times_) {
    expects(t >= 0, "crash faults: crash times must be >= 0");
  }
}

const Fleet& CrashFaults::truncated_for(const Fleet& fleet) {
  expects(crash_times_.size() == fleet.size(),
          "crash faults: crash schedule size must match the fleet");
  if (cached_key_ != &fleet) {
    truncated_ =
        std::make_unique<Fleet>(truncate_at_crashes(fleet, crash_times_));
    cached_key_ = &fleet;
  }
  return *truncated_;
}

std::vector<bool> CrashFaults::choose_faults(const Fleet& fleet,
                                             const Real target,
                                             const int max_faults) {
  // Adversarial blind assignment against the fleet AS IT MOVES: the
  // earliest visitors of the truncated trajectories.
  AdversarialFaults adversarial;
  return adversarial.choose_faults(truncated_for(fleet), target, max_faults);
}

Real CrashFaults::detection_time(const Fleet& fleet, const Real target,
                                 const int max_faults) {
  // Answer on the truncated fleet itself: visits after a crash never
  // happen, so the (f+1)-st distinct visit is computed in the right
  // regime by construction.
  return truncated_for(fleet).detection_time(target, max_faults);
}

Real detection_time_under(FaultModel& model, const Fleet& fleet,
                          const Real target, const int max_faults) {
  return model.detection_time(fleet, target, max_faults);
}

int LiePlan::liar_count() const noexcept {
  return static_cast<int>(std::count(liar.begin(), liar.end(), true));
}

LiePlan random_lie_plan(const std::uint64_t seed, const std::size_t robots,
                        const LiePlanConfig& config) {
  expects(robots >= 1, "random_lie_plan: need at least one robot");
  expects(config.max_liars >= 1 && config.max_claims_per_liar >= 1,
          "random_lie_plan: liar and claim budgets must be >= 1");
  expects(config.claim_horizon > 0 && config.claim_extent >= 1,
          "random_lie_plan: claim horizon and extent must be positive");
  SplitMix64 rng(seed);
  LiePlan plan;
  plan.liar.assign(robots, false);
  plan.claims.assign(robots, {});

  // The liars are the last `liar_target` robots — a deterministic set,
  // like the degraded sweep's crash schedule — while times and positions
  // are drawn per robot.  Drawing every robot's schedule unconditionally
  // keeps the stream shape fixed no matter which robots lie.
  const int liar_target = rng.uniform_int(
      1, std::min<int>(config.max_liars, static_cast<int>(robots)));
  for (std::size_t robot = 0; robot < robots; ++robot) {
    const int claim_count = rng.uniform_int(1, config.max_claims_per_liar);
    std::vector<LieEvent> events;
    for (int k = 0; k < config.max_claims_per_liar; ++k) {
      LieEvent event;
      event.time = rng.uniform(Real{0.1L}, config.claim_horizon);
      const Real magnitude = rng.uniform(1, config.claim_extent);
      event.position = rng.chance(0.5L) ? magnitude : -magnitude;
      if (k < claim_count) events.push_back(event);
    }
    if (robot + static_cast<std::size_t>(liar_target) >= robots) {
      plan.liar[robot] = true;
      plan.claims[robot] = std::move(events);
    }
  }
  return plan;
}

Real byzantine_quorum_time(const Fleet& fleet, const Real target,
                           const std::vector<bool>& liars, const int f) {
  expects(f >= 0, "byzantine_quorum_time: f must be >= 0");
  expects(liars.size() == fleet.size(),
          "byzantine_quorum_time: liar mask size must match the fleet");
  const std::vector<Real> visits = fleet.first_visit_times(target);
  std::vector<Real> honest;
  honest.reserve(visits.size());
  for (std::size_t robot = 0; robot < visits.size(); ++robot) {
    if (!liars[robot] && std::isfinite(visits[robot])) {
      honest.push_back(visits[robot]);
    }
  }
  const auto quorum = static_cast<std::size_t>(f);
  if (honest.size() < quorum + 1) return kInfinity;
  std::nth_element(honest.begin(),
                   honest.begin() + static_cast<std::ptrdiff_t>(quorum),
                   honest.end());
  return honest[quorum];
}

Real byzantine_quorum_time(const Fleet& fleet, const Real target,
                           const int f) {
  expects(f >= 0, "byzantine_quorum_time: f must be >= 0");
  // Worst liar set = the f earliest visitors, so the honest (f+1)-st
  // corroboration is the (2f+1)-st distinct first visit overall.
  return fleet.detection_time(target, 2 * f);
}

ByzantineFaults::ByzantineFaults(LiePlan plan) : plan_(std::move(plan)) {
  expects(plan_.claims.size() == plan_.liar.size(),
          "byzantine faults: plan claim list size must match liar mask");
  for (std::size_t robot = 0; robot < plan_.size(); ++robot) {
    expects(plan_.liar[robot] || plan_.claims[robot].empty(),
            "byzantine faults: honest robots cannot carry fabrications");
    for (const LieEvent& event : plan_.claims[robot]) {
      expects(event.time >= 0 && std::isfinite(event.time),
              "byzantine faults: claim times must be finite >= 0");
    }
  }
}

std::vector<bool> ByzantineFaults::choose_faults(const Fleet& fleet,
                                                 const Real /*target*/,
                                                 const int max_faults) {
  expects(max_faults >= 0, "max_faults must be >= 0");
  expects(plan_.size() == fleet.size(),
          "byzantine faults: plan size must match the fleet");
  const int liars = plan_.liar_count();
  expects(liars <= max_faults, [liars, max_faults] {
    return "byzantine faults: plan lies with " + std::to_string(liars) +
           " robots but the budget allows only " +
           std::to_string(max_faults);
  });
  return plan_.liar;
}

Real ByzantineFaults::detection_time(const Fleet& fleet, const Real target,
                                     const int max_faults) {
  // The quorum time under this plan's liar set — NOT the blind
  // (f+1)-st visit: confirmation needs f+1 corroborating visits and
  // only non-liars are guaranteed to corroborate.
  return byzantine_quorum_time(fleet, target,
                               choose_faults(fleet, target, max_faults),
                               max_faults);
}

bool probabilistic_visit_fails(const std::uint64_t seed,
                               const std::size_t robot,
                               const std::size_t visit, const Real p) {
  expects(p >= 0 && p <= 1,
          "probabilistic_visit_fails: p must be in [0, 1]");
  // Two SplitMix64 hops: seed -> per-robot base stream, base + visit ->
  // per-coin stream.  SplitMix64 is a seed mixer by construction
  // (sequential seeds decorrelate after one next()), so each coin is an
  // O(1) pure function of the triple and coins never share state — any
  // subset can be queried in any order with the same answer.
  SplitMix64 base(seed + 0x9E3779B97F4A7C15ULL *
                             (static_cast<std::uint64_t>(robot) + 1));
  SplitMix64 coin(base.next() + static_cast<std::uint64_t>(visit));
  return coin.chance(p);
}

ProbabilisticFaults::ProbabilisticFaults(ProbabilisticFaultConfig config)
    : config_(config) {
  expects(config_.p >= 0 && config_.p <= 1,
          "probabilistic faults: p must be in [0, 1]");
  expects(config_.max_visits >= 1,
          "probabilistic faults: max_visits must be >= 1");
}

std::vector<bool> ProbabilisticFaults::choose_faults(const Fleet& fleet,
                                                     const Real /*target*/,
                                                     const int max_faults) {
  expects(max_faults >= 0, "max_faults must be >= 0");
  // Per-visit failures are transient: no robot is statically faulty.
  return std::vector<bool>(fleet.size(), false);
}

Real ProbabilisticFaults::detection_time(const Fleet& fleet,
                                         const Real target,
                                         const int /*max_faults*/) {
  // First success over the team = min over robots of each robot's first
  // successful visit (coins are indexed per (robot, local visit), so
  // which robot's visit comes k-th in the merged order is irrelevant).
  // The first success usually comes within a few visits, so each robot's
  // list is fetched as a growing prefix (16, x8, up to max_visits) and
  // the k loop continues on the longer one: the same visits, coins and
  // breaks as one full-cap fetch.
  Real earliest = kInfinity;
  for (std::size_t robot = 0; robot < fleet.size(); ++robot) {
    const Trajectory& trajectory = fleet.robot(static_cast<RobotId>(robot));
    std::size_t cap = std::min<std::size_t>(16, config_.max_visits);
    std::vector<Real> visits = trajectory.visit_times(target, cap);
    for (std::size_t k = 0;; ++k) {
      if (k == visits.size()) {
        if (visits.size() < cap || cap == config_.max_visits) break;
        cap = std::min(cap * 8, config_.max_visits);
        visits = trajectory.visit_times(target, cap);
        if (k == visits.size()) break;
      }
      if (!std::isfinite(visits[k])) break;
      if (visits[k] >= earliest) break;  // later robots can't improve
      if (!probabilistic_visit_fails(config_.seed, robot, k, config_.p)) {
        earliest = visits[k];
        break;
      }
    }
  }
  return earliest;
}

}  // namespace linesearch
