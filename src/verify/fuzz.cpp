#include "verify/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "core/algorithm.hpp"
#include "core/baselines.hpp"
#include "core/competitive.hpp"
#include "core/custom.hpp"
#include "eval/expectation.hpp"
#include "obs/metrics.hpp"
#include "runtime/world.hpp"
#include "sim/faults.hpp"
#include "sim/trajectory.hpp"
#include "sim/zigzag.hpp"
#include "svc/chaos.hpp"
#include "util/error.hpp"
#include "util/jsonio.hpp"

namespace linesearch {
namespace verify {

const char* kind_name(const FleetKind kind) noexcept {
  switch (kind) {
    case FleetKind::kProportional: return "proportional";
    case FleetKind::kPerturbedBeta: return "perturbed-beta";
    case FleetKind::kCustomCone: return "custom-cone";
    case FleetKind::kGroupDoubling: return "group-doubling";
    case FleetKind::kClassicCowPath: return "classic-cow-path";
    case FleetKind::kUniformOffset: return "uniform-offset";
    case FleetKind::kAnalyticZigzag: return "analytic-zigzag";
    case FleetKind::kCrashInjected: return "crash-injected";
    case FleetKind::kKernelSoA: return "kernel-soa";
    case FleetKind::kByzantineLies: return "byzantine-lies";
    case FleetKind::kServerQuery: return "server-query";
    case FleetKind::kProbabilisticFaults: return "probabilistic-faults";
    case FleetKind::kChaosWire: return "chaos-wire";
  }
  return "unknown";
}

std::optional<FleetKind> kind_from_name(
    const std::string_view name) noexcept {
  for (const FleetKind kind : kFleetKinds) {
    if (name == kind_name(kind)) return kind;
  }
  return std::nullopt;
}

const char* injection_name(const Injection injection) noexcept {
  switch (injection) {
    case Injection::kNone: return "none";
    case Injection::kConeEscape: return "cone-escape";
  }
  return "unknown";
}

namespace {

bool regime_kind(const FleetKind kind) noexcept {
  return kind == FleetKind::kProportional ||
         kind == FleetKind::kPerturbedBeta ||
         kind == FleetKind::kUniformOffset ||
         kind == FleetKind::kAnalyticZigzag ||
         kind == FleetKind::kCrashInjected ||
         kind == FleetKind::kKernelSoA ||
         kind == FleetKind::kByzantineLies ||
         kind == FleetKind::kServerQuery ||
         kind == FleetKind::kProbabilisticFaults ||
         kind == FleetKind::kChaosWire;
}

bool cone_kind(const FleetKind kind) noexcept {
  return kind != FleetKind::kClassicCowPath;
}

/// Smallest f with f < n < 2f+2, i.e. the regime floor floor(n/2).
int regime_f_floor(const int n) noexcept { return n / 2; }

/// Unit-speed Beck/Bellman doubling zig-zag from the origin: waypoints
/// (0,0), (1,1), (-2,4), (4,10), ... until both half-lines reach
/// min_coverage.  Its first waypoint (1, 1) lies strictly below the
/// boundary t = beta*|x| of every cone with beta > 1.
/// Strategy object behind a fuzz kind, for the dense-vs-analytic
/// differential; null when the kind has no SearchStrategy form.
std::unique_ptr<SearchStrategy> make_fuzz_strategy(
    const FuzzInstance& instance) {
  switch (instance.kind) {
    case FleetKind::kProportional:
    case FleetKind::kAnalyticZigzag:
    case FleetKind::kByzantineLies:
    case FleetKind::kProbabilisticFaults:
      return std::make_unique<ProportionalAlgorithm>(instance.n, instance.f);
    case FleetKind::kPerturbedBeta:
    case FleetKind::kKernelSoA:
      return std::make_unique<ProportionalAlgorithm>(instance.n, instance.f,
                                                     instance.beta);
    case FleetKind::kGroupDoubling:
      return std::make_unique<GroupDoubling>(instance.n, instance.f);
    case FleetKind::kClassicCowPath:
      return std::make_unique<ClassicCowPath>(instance.n, instance.f,
                                              instance.mirrored);
    case FleetKind::kUniformOffset:
      return std::make_unique<UniformOffsetZigzag>(instance.n, instance.f);
    case FleetKind::kCustomCone:
    case FleetKind::kCrashInjected:
    case FleetKind::kServerQuery:
    case FleetKind::kChaosWire:
      // A crashed fleet is not a SearchStrategy, and the wire kinds
      // have their own dedicated differentials (server/chaos vs
      // library).
      return nullptr;
  }
  return nullptr;
}

/// The controller team behind kCrashInjected (the crash differential
/// rebuilds the identical team itself).
Fleet build_crash_injected_fleet(const FuzzInstance& instance) {
  std::vector<FaultSpec> plan;
  plan.reserve(instance.crash_times.size());
  for (const Real t : instance.crash_times) {
    plan.push_back(std::isfinite(t) ? FaultSpec::crash_at(t)
                                    : FaultSpec::none());
  }
  std::vector<ControllerPtr> team;
  team.reserve(static_cast<std::size_t>(instance.n));
  for (int robot = 0; robot < instance.n; ++robot) {
    team.push_back(std::make_unique<ProportionalController>(
        instance.n, instance.f, robot, instance.extent));
  }
  return World().execute_team(team, FaultInjector(std::move(plan)));
}

Trajectory make_escape_zigzag(const Real min_coverage) {
  TrajectoryBuilder builder;
  builder.start_at(0, 0);
  Real turn = 1;
  Real covered_pos = 0;
  Real covered_neg = 0;
  while (covered_pos < min_coverage || covered_neg < min_coverage) {
    builder.move_to(turn);
    if (turn > 0) {
      covered_pos = turn;
    } else {
      covered_neg = -turn;
    }
    turn *= -2;
  }
  return std::move(builder).build();
}

}  // namespace

FuzzInstance generate_instance(const std::uint64_t seed) {
  SplitMix64 rng(seed);
  FuzzInstance instance;
  instance.seed = seed;
  instance.kind = kFleetKinds[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(kFleetKinds.size()) - 1))];

  switch (instance.kind) {
    case FleetKind::kProportional:
    case FleetKind::kPerturbedBeta:
    case FleetKind::kUniformOffset:
    case FleetKind::kAnalyticZigzag:
    case FleetKind::kCrashInjected:
    case FleetKind::kKernelSoA:
    case FleetKind::kByzantineLies:
    case FleetKind::kServerQuery:
    case FleetKind::kProbabilisticFaults:
    case FleetKind::kChaosWire: {
      instance.f = rng.uniform_int(1, 4);
      instance.n = rng.uniform_int(instance.f + 1, 2 * instance.f + 1);
      instance.beta =
          instance.kind == FleetKind::kPerturbedBeta ||
                  instance.kind == FleetKind::kKernelSoA
              ? rng.uniform(1.2L, 6.0L)
              : optimal_beta(instance.n, instance.f);
      break;
    }
    case FleetKind::kGroupDoubling:
    case FleetKind::kClassicCowPath: {
      instance.n = rng.uniform_int(1, 6);
      instance.f = rng.uniform_int(0, instance.n - 1);
      instance.beta = 3;
      instance.mirrored = instance.kind == FleetKind::kClassicCowPath &&
                          instance.n >= 2 && rng.chance(0.5L);
      break;
    }
    case FleetKind::kCustomCone: {
      instance.beta = rng.uniform(1.5L, 4.0L);
      const Real kappa2 = expansion_factor(instance.beta) *
                          expansion_factor(instance.beta);
      instance.n = rng.uniform_int(1, 6);
      for (int i = 0; i < instance.n; ++i) {
        instance.magnitudes.push_back(
            rng.uniform(1, kappa2 * 0.999L));
      }
      std::sort(instance.magnitudes.begin(), instance.magnitudes.end());
      instance.f = rng.uniform_int(0, instance.n - 1);
      break;
    }
  }

  instance.window_lo = 1;
  instance.window_hi = static_cast<Real>(1 << rng.uniform_int(2, 4));
  instance.extent = instance.window_hi * 4;
  if (instance.kind == FleetKind::kCustomCone || regime_kind(instance.kind)) {
    // Cone fleets need extent > kappa^2 (builder precondition); regime
    // kinds additionally need the positive turning grid to hold a full
    // n-rung interleaving cycle above 1 — one whole kappa^2 period —
    // before the structural oracle can judge them.
    const Real kappa2 =
        expansion_factor(instance.beta) * expansion_factor(instance.beta);
    instance.extent = std::max(instance.extent, kappa2 * Real{1.5L});
  }

  if (instance.kind == FleetKind::kServerQuery ||
      instance.kind == FleetKind::kChaosWire) {
    // Which fault regime the wire query runs under; a crash query
    // carries its schedule in crash_times (generated below, like
    // kCrashInjected's).
    instance.query_regime =
        static_cast<svc::FaultRegime>(rng.uniform_int(0, 2));
  }

  if (instance.kind == FleetKind::kChaosWire) {
    // The wire fault injector's substrate: a nonzero seed (0 is the
    // documented clean channel, reserved for the shrinker) and the
    // per-connection fault-script cap.
    instance.chaos_seed = rng.next() | 1u;
    instance.chaos_fault_cap = rng.uniform_int(1, 4);
  }

  if (instance.kind == FleetKind::kProbabilisticFaults) {
    // Both draws happen unconditionally so the stream shape is fixed;
    // one instance in five lands past the ladder threshold kappa^(-1/n)
    // (exercising the divergence contract), the rest stay comfortably
    // inside the convergent band.
    const bool divergent = rng.chance(0.2L);
    const Real unit = rng.uniform(0.0L, 1.0L);
    const Real threshold =
        expectation_convergence_threshold(instance.n, instance.f);
    instance.fault_p = divergent
                           ? threshold + (1 - threshold) * (0.05L + 0.9L * unit)
                           : threshold * 0.8L * unit;
  }

  if (instance.kind == FleetKind::kCrashInjected ||
      ((instance.kind == FleetKind::kServerQuery ||
        instance.kind == FleetKind::kChaosWire) &&
       instance.query_regime == svc::FaultRegime::kCrash)) {
    // Per-robot crash schedule; both draws happen unconditionally so
    // the stream shape is fixed regardless of which robots crash.
    for (int robot = 0; robot < instance.n; ++robot) {
      const bool crashes = rng.chance(0.6L);
      const Real at = rng.uniform(0.1L, 32.0L);
      instance.crash_times.push_back(crashes ? at : kInfinity);
    }
  }

  if (instance.kind == FleetKind::kByzantineLies) {
    // Seeded lie schedule on the shared substrate: one draw feeds the
    // dedicated generator, so the plan stays a pure function of the
    // instance seed and the shrinker can mutate the record directly.
    LiePlanConfig lies;
    lies.max_liars = instance.f;
    lies.max_claims_per_liar = 2;
    lies.claim_horizon = 32;
    lies.claim_extent = instance.window_hi;
    instance.lies = random_lie_plan(
        rng.next(), static_cast<std::size_t>(instance.n), lies);
  }

  // Adversarial targets: the +-window_lo boundary right-limits, the top
  // of the window, a couple of uniform draws, and right/left limits of a
  // few turning points of the actual fleet (the discontinuities of K).
  const Real lo = instance.window_lo;
  const Real hi = instance.window_hi;
  instance.targets = {lo * (1 + tol::kLimitProbe), -lo * (1 + tol::kLimitProbe),
                      hi * (1 - tol::kLimitProbe), -hi * (1 - tol::kLimitProbe)};
  instance.targets.push_back(rng.uniform(lo, hi));
  instance.targets.push_back(-rng.uniform(lo, hi));
  const Fleet fleet = build_fuzz_fleet(instance);
  for (const int side : {+1, -1}) {
    int taken = 0;
    // Windowed: finite on the analytic kind, and turns beyond the window
    // never pass the magnitude filter below anyway.
    for (const Real turn : fleet.turning_positions_in(side, 0, hi)) {
      const Real magnitude = std::fabs(turn);
      if (magnitude <= lo * Real{1.01L} || magnitude >= hi * Real{0.99L}) {
        continue;
      }
      instance.targets.push_back(turn * (1 + tol::kLimitProbe));
      instance.targets.push_back(turn * (1 - tol::kLimitProbe));
      if (++taken == 3) break;
    }
  }
  if (instance.kind == FleetKind::kKernelSoA) {
    // Exact duplicates on purpose: the SoA kernel's first-occurrence
    // dedup, and k_profile_batch's kernel slices (raced against serial
    // k_profile on these targets), must treat a repeated position as one.
    const std::size_t unique_targets = instance.targets.size();
    for (std::size_t i = 0; i < unique_targets && i < 4; ++i) {
      instance.targets.push_back(instance.targets[i]);
    }
  }
  return instance;
}

Fleet build_fuzz_fleet(const FuzzInstance& instance) {
  Fleet fleet = [&instance]() -> Fleet {
    switch (instance.kind) {
      case FleetKind::kProportional:
      case FleetKind::kByzantineLies:
        // Lies never alter motion — the Byzantine fleet IS the A(n, f)
        // fleet; only the claim stream differs (diff_byzantine's job).
        return ProportionalAlgorithm(instance.n, instance.f)
            .build_fleet(instance.extent);
      case FleetKind::kPerturbedBeta:
      case FleetKind::kKernelSoA:
        return ProportionalAlgorithm(instance.n, instance.f, instance.beta)
            .build_fleet(instance.extent);
      case FleetKind::kCustomCone:
        return build_cone_fleet(instance.beta, instance.magnitudes,
                                instance.extent);
      case FleetKind::kGroupDoubling:
        return GroupDoubling(instance.n, instance.f)
            .build_fleet(instance.extent);
      case FleetKind::kClassicCowPath:
        return ClassicCowPath(instance.n, instance.f, instance.mirrored)
            .build_fleet(instance.extent);
      case FleetKind::kUniformOffset:
        return UniformOffsetZigzag(instance.n, instance.f)
            .build_fleet(instance.extent);
      case FleetKind::kAnalyticZigzag:
      case FleetKind::kProbabilisticFaults:
        // The same A(n, f) curves as kProportional, but on the analytic
        // backend with an unbounded horizon — every oracle downstream
        // must work through windowed queries only.  (The probabilistic
        // kind needs the unbounded backend: a finite visit list makes
        // the expectation infinite for every p > 0.)
        return ProportionalAlgorithm(instance.n, instance.f)
            .build_unbounded_fleet();
      case FleetKind::kCrashInjected:
        return build_crash_injected_fleet(instance);
      case FleetKind::kServerQuery:
      case FleetKind::kChaosWire: {
        // The fleet the wire query evaluates against: plain A(n, f) for
        // the none/byzantine regimes (lies never alter motion), the
        // analytic truncation for a crash query.
        Fleet built = ProportionalAlgorithm(instance.n, instance.f)
                          .build_fleet(instance.extent);
        if (instance.query_regime == svc::FaultRegime::kCrash) {
          return truncate_at_crashes(built, instance.crash_times);
        }
        return built;
      }
    }
    throw PreconditionError("build_fuzz_fleet: unknown kind");
  }();

  if (instance.injection == Injection::kConeEscape) {
    std::vector<Trajectory> robots = fleet.robots();
    // Coverage capped at 4: the violation is the FIRST waypoint, so the
    // minimal 4-segment zig-zag (1, -2, 4, -8) already exhibits it and
    // the shrunk repro stays minimal regardless of the instance extent.
    robots.front() = make_escape_zigzag(std::min(instance.extent, Real{4}));
    fleet = Fleet(std::move(robots));
  }
  return fleet;
}

Subject make_subject(const FuzzInstance& instance, const Fleet& fleet) {
  Subject subject;
  subject.fleet = &fleet;
  subject.f = instance.f;
  subject.coverage_extent = instance.extent;
  if (cone_kind(instance.kind)) subject.beta = instance.beta;
  switch (instance.kind) {
    case FleetKind::kProportional:
    case FleetKind::kByzantineLies:
      subject.proportional = true;
      subject.theory_cr = algorithm_cr(instance.n, instance.f);
      break;
    case FleetKind::kPerturbedBeta:
    case FleetKind::kKernelSoA:
      subject.proportional = true;
      subject.theory_cr = schedule_cr(instance.n, instance.f, instance.beta);
      break;
    case FleetKind::kGroupDoubling:
      subject.theory_cr = Real{9};
      break;
    case FleetKind::kClassicCowPath: {
      const auto theory =
          ClassicCowPath(instance.n, instance.f, instance.mirrored)
              .theoretical_cr();
      if (theory) subject.theory_cr = *theory;
      break;
    }
    case FleetKind::kAnalyticZigzag:
    case FleetKind::kProbabilisticFaults:
      // Genuinely proportional, but the structural re-derivation needs a
      // materialized waypoint list, which the unbounded backend refuses;
      // the dense-vs-analytic differential covers the structure instead.
      subject.theory_cr = algorithm_cr(instance.n, instance.f);
      break;
    case FleetKind::kCrashInjected:
      // Crashed robots stop short of the extent, so the coverage claim
      // is withdrawn (0 => inapplicable); the ladder is A(n, f) so the
      // cone claim stands — every truncated leg stays inside C_beta.
      subject.coverage_extent = 0;
      break;
    case FleetKind::kServerQuery:
    case FleetKind::kChaosWire:
      if (instance.query_regime == svc::FaultRegime::kCrash) {
        // Same reasoning as kCrashInjected: truncated legs stay in
        // C_beta but coverage is withdrawn.
        subject.coverage_extent = 0;
      } else {
        subject.proportional = true;
        subject.theory_cr = algorithm_cr(instance.n, instance.f);
      }
      break;
    case FleetKind::kCustomCone:
    case FleetKind::kUniformOffset:
      break;
  }
  return subject;
}

bool FuzzOutcome::ok() const {
  return verify::all_ok(invariants) && verify::all_ok(differentials);
}

std::string FuzzOutcome::primary_failure() const {
  for (const InvariantResult& result : invariants) {
    if (!result.ok()) return result.name;
  }
  for (const DifferentialResult& result : differentials) {
    if (!result.ok()) return result.name;
  }
  return "";
}

std::string FuzzOutcome::describe() const {
  std::string out = verify::describe_failures(invariants);
  const std::string diff = verify::describe_failures(differentials);
  if (!diff.empty()) {
    if (!out.empty()) out += '\n';
    out += diff;
  }
  return out;
}

FuzzOutcome run_instance(const FuzzInstance& instance) {
  LS_OBS_COUNT("verify.fuzz.instances", 1);
  if constexpr (obs::kEnabled) {
    obs::count_named(std::string("verify.fuzz.instances.") +
                     kind_name(instance.kind));
  }
  FuzzOutcome outcome;
  try {
    const Fleet fleet = build_fuzz_fleet(instance);
    const Subject subject = make_subject(instance, fleet);
    InvariantOptions options;
    options.window_lo = instance.window_lo;
    options.window_hi = instance.window_hi;
    options.samples = 16;
    options.extra_positions = instance.targets;
    // A crashed fleet can leave probes undetected forever; the adversary
    // game assumes a fully covering fleet, so crash kinds sit it out.
    options.run_theorem2_game =
        instance.kind != FleetKind::kCrashInjected &&
        !((instance.kind == FleetKind::kServerQuery ||
           instance.kind == FleetKind::kChaosWire) &&
          instance.query_regime == svc::FaultRegime::kCrash);
    outcome.invariants = run_invariants(subject, options);

    if (instance.injection == Injection::kNone) {
      CrEvalOptions eval;
      eval.window_lo = instance.window_lo;
      eval.window_hi = instance.window_hi;
      try {
        if (instance.kind == FleetKind::kCrashInjected) {
          // The generic engines demand finite detection everywhere; the
          // crash kind instead races the injected World run against the
          // analytic truncation of a clean run.
          outcome.differentials.push_back(diff_crash_injected(
              instance.n, instance.f, instance.extent,
              instance.crash_times, eval));
        } else if (instance.kind == FleetKind::kServerQuery ||
                   instance.kind == FleetKind::kChaosWire) {
          // Wire round trip vs the library on this instance's query —
          // over a clean in-process wire for kServerQuery, through the
          // seeded chaos channel + resilient client for kChaosWire.
          svc::CrQuery query;
          query.n = instance.n;
          query.f = instance.f;
          query.beta = instance.beta;
          query.window_lo = instance.window_lo;
          query.window_hi = instance.window_hi;
          query.regime = instance.query_regime;
          if (instance.query_regime == svc::FaultRegime::kCrash) {
            query.crash_times = instance.crash_times;
          }
          if (instance.kind == FleetKind::kChaosWire) {
            outcome.differentials.push_back(diff_chaos_vs_library(
                query, instance.chaos_seed, instance.chaos_fault_cap));
          } else {
            outcome.differentials.push_back(diff_server_vs_library(query));
          }
        } else {
          outcome.differentials =
              run_differentials(fleet, instance.f, eval, instance.targets);
        }
        if (instance.kind == FleetKind::kByzantineLies) {
          // Race the runtime claim arbiter against the analytic quorum
          // evaluation under this instance's lie schedule.
          outcome.differentials.push_back(
              diff_byzantine(instance.n, instance.f, instance.extent,
                             instance.lies, instance.targets, eval));
        }
        if (instance.kind == FleetKind::kProbabilisticFaults) {
          // Race the exact expectation engine against the seeded
          // Monte-Carlo realization at this instance's fault_p; the MC
          // seed is derived from the instance seed so the whole verdict
          // replays from the seed alone.
          outcome.differentials.push_back(diff_expectation_vs_montecarlo(
              instance.n, instance.f, instance.fault_p, instance.targets,
              instance.seed ^ 0x5eed0bab01234567ULL));
          // And at p = threshold * (1 - 1e-4), derived from (n, f) with
          // no RNG draw, where only the closed form stays exact.
          outcome.differentials.push_back(diff_expectation_near_threshold(
              instance.n, instance.f, instance.targets));
        }
        if (const std::unique_ptr<SearchStrategy> strategy =
                make_fuzz_strategy(instance)) {
          outcome.differentials.push_back(diff_dense_vs_analytic(
              *strategy, instance.extent, instance.f, eval));
        }
      } catch (const Error& error) {
        DifferentialResult failed;
        failed.name = "differential-exception";
        failed.passed = false;
        failed.message = error.what();
        outcome.differentials.push_back(std::move(failed));
      }
    }
  } catch (const Error& error) {
    InvariantResult failed;
    failed.name = "build";
    failed.passed = false;
    failed.message = error.what();
    outcome.invariants.push_back(std::move(failed));
  }
  return outcome;
}

namespace {

/// Re-clamp (n, f) after a robot drop so every builder precondition
/// still holds; regime kinds additionally need f < n < 2f+2, and kinds
/// whose builder derives beta from (n, f) get the claim re-derived so
/// the Subject keeps describing the fleet actually built.
void clamp_faults(FuzzInstance& instance) {
  instance.f = std::min(instance.f, instance.n - 1);
  if (regime_kind(instance.kind)) {
    instance.f = std::max({instance.f, regime_f_floor(instance.n), 1});
  }
  instance.f = std::max(instance.f, 0);
  if (instance.n < 2) instance.mirrored = false;
  if (instance.kind == FleetKind::kProportional ||
      instance.kind == FleetKind::kUniformOffset ||
      instance.kind == FleetKind::kAnalyticZigzag ||
      instance.kind == FleetKind::kCrashInjected ||
      instance.kind == FleetKind::kByzantineLies ||
      instance.kind == FleetKind::kServerQuery ||
      instance.kind == FleetKind::kProbabilisticFaults ||
      instance.kind == FleetKind::kChaosWire) {
    instance.beta = optimal_beta(instance.n, instance.f);
  }
  while (instance.crash_times.size() >
         static_cast<std::size_t>(instance.n)) {
    instance.crash_times.pop_back();
  }
  // Dropped robots take their lie schedules with them (liars sit at the
  // tail, so a drop sheds liars first and liar_count <= f is preserved
  // through the regime re-clamp above).
  while (instance.lies.size() > static_cast<std::size_t>(instance.n)) {
    instance.lies.liar.pop_back();
    instance.lies.claims.pop_back();
  }
  // A re-clamp can still shrink f below a surviving liar count (e.g. a
  // non-tail liar layout fed in by hand); demote the latest liars.
  for (std::size_t robot = instance.lies.size();
       instance.lies.liar_count() > instance.f && robot-- > 0;) {
    if (instance.lies.liar[robot]) {
      instance.lies.liar[robot] = false;
      instance.lies.claims[robot].clear();
    }
  }
}

/// Candidate shrink moves, smallest-first; each strictly reduces the
/// instance (fewer targets/robots, smaller extent/window, rounder
/// parameters), so greedy acceptance terminates.
std::vector<FuzzInstance> shrink_moves(const FuzzInstance& instance) {
  std::vector<FuzzInstance> moves;

  if (!instance.targets.empty()) {
    FuzzInstance cleared = instance;
    cleared.targets.clear();
    moves.push_back(std::move(cleared));
    FuzzInstance fewer = instance;
    fewer.targets.pop_back();
    moves.push_back(std::move(fewer));
  }

  if (instance.kind == FleetKind::kCustomCone) {
    if (instance.magnitudes.size() > 1) {
      FuzzInstance dropped = instance;
      dropped.magnitudes.pop_back();
      dropped.n = static_cast<int>(dropped.magnitudes.size());
      clamp_faults(dropped);
      moves.push_back(std::move(dropped));
    }
  } else if (instance.n > (regime_kind(instance.kind) ? 2 : 1)) {
    // Regime kinds bottom out at (n, f) = (2, 1), the smallest pair with
    // 1 <= f < n < 2f+2.
    FuzzInstance dropped = instance;
    dropped.n -= 1;
    clamp_faults(dropped);
    moves.push_back(std::move(dropped));
  }

  Real extent_floor = 4;
  if (instance.kind == FleetKind::kCustomCone || regime_kind(instance.kind)) {
    const Real kappa2 =
        expansion_factor(instance.beta) * expansion_factor(instance.beta);
    extent_floor = std::max(extent_floor, kappa2 * Real{1.25L});
  }
  const Real halved_extent = std::max(extent_floor, instance.extent / 2);
  if (halved_extent < instance.extent) {
    FuzzInstance smaller = instance;
    smaller.extent = halved_extent;
    moves.push_back(std::move(smaller));
  }

  const Real halved_window =
      std::max(std::max(Real{2}, instance.window_lo * 2),
               instance.window_hi / 2);
  if (halved_window < instance.window_hi) {
    FuzzInstance narrower = instance;
    narrower.window_hi = halved_window;
    narrower.extent = std::max(narrower.extent, halved_window * 2);
    moves.push_back(std::move(narrower));
  }

  if (instance.kind == FleetKind::kPerturbedBeta ||
      instance.kind == FleetKind::kCustomCone ||
      instance.kind == FleetKind::kKernelSoA) {
    const Real rounded = std::max(Real{1.5L}, std::round(instance.beta));
    if (!value_identical(rounded, instance.beta)) {
      FuzzInstance rounder = instance;
      rounder.beta = rounded;
      if (rounder.kind == FleetKind::kCustomCone) {
        const Real kappa2 =
            expansion_factor(rounder.beta) * expansion_factor(rounder.beta);
        for (Real& magnitude : rounder.magnitudes) {
          magnitude = std::min(magnitude, kappa2 * Real{0.999L});
        }
        rounder.extent = std::max(rounder.extent, kappa2 * Real{1.25L});
      }
      moves.push_back(std::move(rounder));
    }
  }

  if (instance.kind == FleetKind::kCustomCone) {
    FuzzInstance rounder = instance;
    bool changed = false;
    for (Real& magnitude : rounder.magnitudes) {
      const Real rounded =
          std::max(Real{1}, std::round(magnitude * 4) / 4);
      if (!value_identical(rounded, magnitude)) {
        magnitude = rounded;
        changed = true;
      }
    }
    if (changed) moves.push_back(std::move(rounder));
  }

  if (instance.kind == FleetKind::kChaosWire) {
    // Simplest first: the clean channel (chaos_seed = 0).  If the
    // failure survives, it is a server/protocol bug, not a fault-
    // injection artifact — a strictly simpler repro.
    if (instance.chaos_seed != 0) {
      FuzzInstance clean = instance;
      clean.chaos_seed = 0;
      moves.push_back(std::move(clean));
    }
    // Then a shorter fault script: walk the per-connection cap down to
    // one fault, minimizing the (seed, fault-script) pair in the repro.
    if (instance.chaos_seed != 0 && instance.chaos_fault_cap > 1) {
      FuzzInstance fewer = instance;
      fewer.chaos_fault_cap -= 1;
      moves.push_back(std::move(fewer));
    }
  }

  if ((instance.kind == FleetKind::kServerQuery ||
       instance.kind == FleetKind::kChaosWire) &&
      instance.query_regime != svc::FaultRegime::kNone) {
    // Simplest first: the plain regime (drops the crash schedule too).
    FuzzInstance plain = instance;
    plain.query_regime = svc::FaultRegime::kNone;
    plain.crash_times.clear();
    moves.push_back(std::move(plain));
  }

  if (instance.kind == FleetKind::kCrashInjected ||
      ((instance.kind == FleetKind::kServerQuery ||
        instance.kind == FleetKind::kChaosWire) &&
       instance.query_regime == svc::FaultRegime::kCrash)) {
    bool any_crash = false;
    for (const Real t : instance.crash_times) {
      if (std::isfinite(t)) any_crash = true;
    }
    if (any_crash) {
      // Simplest first: no crashes at all (a plain A(n, f) run).
      FuzzInstance healthy = instance;
      std::fill(healthy.crash_times.begin(), healthy.crash_times.end(),
                kInfinity);
      moves.push_back(std::move(healthy));
      // Then rounder crash times (quarter grid, floor 0.25).
      FuzzInstance rounder = instance;
      bool changed = false;
      for (Real& t : rounder.crash_times) {
        if (!std::isfinite(t)) continue;
        const Real rounded =
            std::max(Real{0.25L}, std::round(t * 4) / 4);
        if (!value_identical(rounded, t)) {
          t = rounded;
          changed = true;
        }
      }
      if (changed) moves.push_back(std::move(rounder));
    }
  }

  if (instance.kind == FleetKind::kProbabilisticFaults &&
      instance.fault_p > 0) {
    // Simplest first: no failures at all (the bitwise p = 0 branch).
    FuzzInstance faultfree = instance;
    faultfree.fault_p = 0;
    moves.push_back(std::move(faultfree));
    // Then a rounder p on the sixteenth grid, clamped inside (0, 1) so
    // the rounded instance keeps exercising the same engine branch.
    const Real rounded =
        std::min(std::max(std::round(instance.fault_p * 16) / 16,
                          Real{1} / 16),
                 Real{15} / 16);
    if (!value_identical(rounded, instance.fault_p)) {
      FuzzInstance rounder = instance;
      rounder.fault_p = rounded;
      moves.push_back(std::move(rounder));
    }
  }

  if (instance.kind == FleetKind::kByzantineLies &&
      instance.lies.liar_count() > 0) {
    // Simplest first: everyone honest (a plain A(n, f) instance).
    FuzzInstance honest = instance;
    std::fill(honest.lies.liar.begin(), honest.lies.liar.end(), false);
    for (auto& claims : honest.lies.claims) claims.clear();
    moves.push_back(std::move(honest));
    // Then one fabrication fewer — drop the last liar's last claim (a
    // claimless liar still suppresses its real find).
    for (std::size_t robot = instance.lies.size(); robot-- > 0;) {
      if (!instance.lies.claims[robot].empty()) {
        FuzzInstance fewer = instance;
        fewer.lies.claims[robot].pop_back();
        moves.push_back(std::move(fewer));
        break;
      }
    }
    // Then rounder fabrications (quarter grid, |position| floor 1).
    FuzzInstance rounder = instance;
    bool changed = false;
    for (auto& claims : rounder.lies.claims) {
      for (LieEvent& event : claims) {
        const Real time =
            std::max(Real{0.25L}, std::round(event.time * 4) / 4);
        const Real sign = event.position < 0 ? Real{-1} : Real{1};
        const Real magnitude = std::max(
            Real{1}, std::round(std::fabs(event.position) * 4) / 4);
        if (!value_identical(time, event.time)) {
          event.time = time;
          changed = true;
        }
        if (!value_identical(sign * magnitude, event.position)) {
          event.position = sign * magnitude;
          changed = true;
        }
      }
    }
    if (changed) moves.push_back(std::move(rounder));
  }

  return moves;
}

}  // namespace

ShrinkResult shrink_instance(const FuzzInstance& start) {
  ShrinkResult result;
  result.instance = start;
  result.failure = run_instance(start).primary_failure();
  expects(!result.failure.empty(),
          "shrink_instance: the starting instance must fail");

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (FuzzInstance& candidate : shrink_moves(result.instance)) {
      LS_OBS_COUNT("verify.fuzz.shrink_attempts", 1);
      const FuzzOutcome outcome = run_instance(candidate);
      bool preserved = false;
      for (const InvariantResult& r : outcome.invariants) {
        if (!r.ok() && r.name == result.failure) preserved = true;
      }
      for (const DifferentialResult& r : outcome.differentials) {
        if (!r.ok() && r.name == result.failure) preserved = true;
      }
      if (preserved) {
        result.instance = std::move(candidate);
        LS_OBS_COUNT("verify.fuzz.shrink_accepted", 1);
        result.accepted_moves += 1;
        progressed = true;
        break;
      }
    }
  }
  return result;
}

std::string instance_to_json(const FuzzInstance& instance,
                             const FuzzOutcome& outcome) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("seed", std::to_string(instance.seed));
  json.field("kind", kind_name(instance.kind));
  json.field("injection", injection_name(instance.injection));
  json.field("query_regime",
             svc::fault_regime_name(instance.query_regime));
  json.field("n", instance.n);
  json.field("f", instance.f);
  json.field("beta", instance.beta);
  json.field("fault_p", instance.fault_p);
  json.field("mirrored", instance.mirrored);
  json.field("chaos_seed", std::to_string(instance.chaos_seed));
  json.field("chaos_fault_cap", instance.chaos_fault_cap);
  json.key("chaos_scripts").begin_array();
  if (instance.kind == FleetKind::kChaosWire) {
    // The realized fault scripts for the first few connections: with
    // chaos_seed they ARE the minimal repro's fault script (a pure
    // function of (seed, connection, direction)).
    svc::ChaosConfig config;
    config.seed = instance.chaos_seed;
    config.fault_cap = instance.chaos_fault_cap;
    for (std::uint64_t connection = 0; connection < 4; ++connection) {
      for (const int direction : {0, 1}) {
        json.begin_object();
        json.field("connection", static_cast<int>(connection));
        json.field("direction",
                   direction == 0 ? "to-server" : "to-client");
        json.field("script", svc::describe_script(svc::fault_script(
                                 config, connection, direction)));
        json.end_object();
      }
    }
  }
  json.end_array();
  json.key("magnitudes").begin_array();
  for (const Real magnitude : instance.magnitudes) json.value(magnitude);
  json.end_array();
  json.field("extent", instance.extent);
  json.field("window_lo", instance.window_lo);
  json.field("window_hi", instance.window_hi);
  json.key("targets").begin_array();
  for (const Real target : instance.targets) json.value(target);
  json.end_array();
  json.key("crash_times").begin_array();
  for (const Real t : instance.crash_times) json.value(t);
  json.end_array();
  json.key("liars").begin_array();
  for (const bool liar : instance.lies.liar) json.value(liar ? 1 : 0);
  json.end_array();
  json.key("lie_claims").begin_array();
  for (std::size_t robot = 0; robot < instance.lies.size(); ++robot) {
    for (const LieEvent& event : instance.lies.claims[robot]) {
      json.begin_object();
      json.field("robot", static_cast<int>(robot));
      json.field("time", event.time);
      json.field("position", event.position);
      json.end_object();
    }
  }
  json.end_array();
  json.field("ok", outcome.ok());
  json.key("failures").begin_array();
  for (const InvariantResult& result : outcome.invariants) {
    if (result.ok()) continue;
    json.begin_object();
    json.field("check", result.name);
    json.field("message", result.message);
    json.end_object();
  }
  for (const DifferentialResult& result : outcome.differentials) {
    if (result.ok()) continue;
    json.begin_object();
    json.field("check", result.name);
    json.field("message", result.message);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
  return out.str();
}

CorpusReport run_corpus(const std::uint64_t first_seed, const int count) {
  CorpusReport report;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
    const FuzzOutcome outcome = run_instance(generate_instance(seed));
    report.total += 1;
    if (!outcome.ok()) {
      report.failed += 1;
      report.failing_seeds.push_back(seed);
    }
  }
  return report;
}

}  // namespace verify
}  // namespace linesearch
