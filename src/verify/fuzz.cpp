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
#include "sim/faults.hpp"
#include "sim/trajectory.hpp"
#include "sim/zigzag.hpp"
#include "svc/chaos.hpp"
#include "util/error.hpp"
#include "util/jsonio.hpp"

namespace linesearch {
namespace verify {
namespace {

/// How a kind draws (n, f, beta), and which fleet shape it builds.
enum class Family {
  kRegimeOptimal,    ///< A(n, f): a regime pair f < n < 2f+2 at beta*
  kRegimeDrawnBeta,  ///< S_beta(n): a regime pair, beta drawn in [1.2, 6)
  kUniformOffset,    ///< a regime pair at beta*, arithmetic first turns
  kDoubling,         ///< GroupDoubling: 0 <= f < n <= 6, beta = 3
  kCowPath,          ///< ClassicCowPath (not a cone), optionally mirrored
  kCustomCone,       ///< build_cone_fleet: drawn beta and magnitudes
};

/// Where the fleet comes from, and so which differentials race it.
enum class Backend {
  kDense,          ///< build_fleet(extent); the generic engine set
  kUnbounded,      ///< build_unbounded_fleet(); the generic engine set
  kCrashExecuted,  ///< a World run under a crash-stop FaultInjector
  kWire,           ///< a CrQuery answered through the in-process server
};

/// What a kind adds to its family and backend.  Each feature keys its
/// own RNG draw and, where it has them, its differential, shrink moves
/// and JSON fields.
enum Feature : unsigned {
  kDuplicateTargets = 1u << 0,  ///< exact repeats of the leading targets
  kLies = 1u << 1,              ///< a LiePlan raced by diff_byzantine
  kFaultP = 1u << 2,            ///< a fault_p for the expectation engines
  kCrashSchedule = 1u << 3,     ///< crash_times (wire: crash regime only)
  kChaosChannel = 1u << 4,      ///< a nonzero chaos_seed and fault cap
};

struct KindRow {
  const char* name;
  Family family;
  Backend backend;
  unsigned features;
};

/// What each FleetKind is: one row per kind, in kFleetKinds order.
constexpr std::array<KindRow, kFleetKinds.size()> kKinds = {{
    {"proportional", Family::kRegimeOptimal, Backend::kDense, 0},
    {"perturbed-beta", Family::kRegimeDrawnBeta, Backend::kDense, 0},
    {"custom-cone", Family::kCustomCone, Backend::kDense, 0},
    {"group-doubling", Family::kDoubling, Backend::kDense, 0},
    {"classic-cow-path", Family::kCowPath, Backend::kDense, 0},
    {"uniform-offset", Family::kUniformOffset, Backend::kDense, 0},
    {"analytic-zigzag", Family::kRegimeOptimal, Backend::kUnbounded, 0},
    {"crash-injected", Family::kRegimeOptimal, Backend::kCrashExecuted,
     kCrashSchedule},
    {"kernel-soa", Family::kRegimeDrawnBeta, Backend::kDense,
     kDuplicateTargets},
    {"byzantine-lies", Family::kRegimeOptimal, Backend::kDense, kLies},
    {"server-query", Family::kRegimeOptimal, Backend::kWire, kCrashSchedule},
    {"probabilistic-faults", Family::kRegimeOptimal, Backend::kUnbounded,
     kFaultP},
    {"chaos-wire", Family::kRegimeOptimal, Backend::kWire,
     kCrashSchedule | kChaosChannel},
}};
static_assert(std::none_of(kKinds.begin(), kKinds.end(),
                           [](const KindRow& row) { return !row.name; }),
              "every FleetKind needs a row");

const KindRow& row_of(const FuzzInstance& instance) {
  return kKinds[static_cast<std::size_t>(instance.kind)];
}

bool has(const FuzzInstance& instance, const Feature feature) {
  return (row_of(instance).features & feature) != 0;
}

/// Families that draw a proportional-regime pair f < n < 2f+2.
bool regime_family(const Family family) {
  return family == Family::kRegimeOptimal ||
         family == Family::kRegimeDrawnBeta ||
         family == Family::kUniformOffset;
}

/// Families whose builder needs extent > kappa(beta)^2.
bool kappa_family(const Family family) {
  return regime_family(family) || family == Family::kCustomCone;
}

/// Families whose beta is drawn rather than derived from (n, f).
bool drawn_beta_family(const Family family) {
  return family == Family::kRegimeDrawnBeta || family == Family::kCustomCone;
}

/// Whether the instance runs under its crash schedule: always on the
/// executed backend, and for a wire query in the crash regime.
bool crash_scheduled(const FuzzInstance& instance) {
  return has(instance, kCrashSchedule) &&
         (row_of(instance).backend != Backend::kWire ||
          instance.query_regime == svc::FaultRegime::kCrash);
}

}  // namespace

const char* kind_name(const FleetKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < kKinds.size() ? kKinds[index].name : "unknown";
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

std::optional<Injection> injection_from_name(
    const std::string_view name) noexcept {
  for (const Injection injection : kInjections) {
    if (name == injection_name(injection)) return injection;
  }
  return std::nullopt;
}

namespace {

/// Smallest f with f < n < 2f+2, i.e. the regime floor floor(n/2).
int regime_f_floor(const int n) noexcept { return n / 2; }

/// The SearchStrategy behind the instance's family; null for custom
/// cones, which have no strategy form.
StrategyPtr make_fuzz_strategy(const FuzzInstance& instance) {
  switch (row_of(instance).family) {
    case Family::kRegimeOptimal:
      return std::make_unique<ProportionalAlgorithm>(instance.n, instance.f);
    case Family::kRegimeDrawnBeta:
      return std::make_unique<ProportionalAlgorithm>(instance.n, instance.f,
                                                     instance.beta);
    case Family::kUniformOffset:
      return std::make_unique<UniformOffsetZigzag>(instance.n, instance.f);
    case Family::kDoubling:
      return std::make_unique<GroupDoubling>(instance.n, instance.f);
    case Family::kCowPath:
      return std::make_unique<ClassicCowPath>(instance.n, instance.f,
                                              instance.mirrored);
    case Family::kCustomCone:
      return nullptr;
  }
  return nullptr;
}

/// Unit-speed Beck/Bellman doubling zig-zag from the origin: waypoints
/// (0,0), (1,1), (-2,4), (4,10), ... until both half-lines reach
/// min_coverage.  Its first waypoint (1, 1) lies strictly below the
/// boundary t = beta*|x| of every cone with beta > 1.
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
  const KindRow& row = row_of(instance);

  switch (row.family) {
    case Family::kRegimeOptimal:
    case Family::kRegimeDrawnBeta:
    case Family::kUniformOffset:
      instance.f = rng.uniform_int(1, 4);
      instance.n = rng.uniform_int(instance.f + 1, 2 * instance.f + 1);
      instance.beta = row.family == Family::kRegimeDrawnBeta
                          ? rng.uniform(1.2L, 6.0L)
                          : optimal_beta(instance.n, instance.f);
      break;
    case Family::kDoubling:
    case Family::kCowPath:
      instance.n = rng.uniform_int(1, 6);
      instance.f = rng.uniform_int(0, instance.n - 1);
      instance.beta = 3;
      instance.mirrored = row.family == Family::kCowPath &&
                          instance.n >= 2 && rng.chance(0.5L);
      break;
    case Family::kCustomCone: {
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
  if (kappa_family(row.family)) {
    // Cone fleets need extent > kappa^2 (builder precondition); regime
    // kinds additionally need the positive turning grid to hold a full
    // n-rung interleaving cycle above 1 — one whole kappa^2 period —
    // before the structural oracle can judge them.
    const Real kappa2 =
        expansion_factor(instance.beta) * expansion_factor(instance.beta);
    instance.extent = std::max(instance.extent, kappa2 * Real{1.5L});
  }

  if (row.backend == Backend::kWire) {
    // Which fault regime the wire query runs under; a crash query
    // carries its schedule in crash_times (generated below, like the
    // crash-executed backend's).
    instance.query_regime =
        static_cast<svc::FaultRegime>(rng.uniform_int(0, 2));
  }

  if (has(instance, kChaosChannel)) {
    // The wire fault injector's substrate: a nonzero seed (0 is the
    // documented clean channel, reserved for the shrinker) and the
    // per-connection fault-script cap.
    instance.chaos_seed = rng.next() | 1u;
    instance.chaos_fault_cap = rng.uniform_int(1, 4);
  }

  if (has(instance, kFaultP)) {
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

  if (crash_scheduled(instance)) {
    // Per-robot crash schedule; both draws happen unconditionally so
    // the stream shape is fixed regardless of which robots crash.
    for (int robot = 0; robot < instance.n; ++robot) {
      const bool crashes = rng.chance(0.6L);
      const Real at = rng.uniform(0.1L, 32.0L);
      instance.crash_times.push_back(crashes ? at : kInfinity);
    }
  }

  if (has(instance, kLies)) {
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
  if (has(instance, kDuplicateTargets)) {
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
    switch (row_of(instance).backend) {
      case Backend::kDense:
      case Backend::kWire: {
        const StrategyPtr strategy = make_fuzz_strategy(instance);
        if (!strategy) {
          return build_cone_fleet(instance.beta, instance.magnitudes,
                                  instance.extent);
        }
        // Lies never alter motion: a lying fleet IS its family's fleet;
        // only the claim stream differs (diff_byzantine's job).  A wire
        // query in the crash regime evaluates the analytic truncation.
        Fleet built = strategy->build_fleet(instance.extent);
        if (crash_scheduled(instance)) {
          return truncate_at_crashes(built, instance.crash_times);
        }
        return built;
      }
      case Backend::kUnbounded:
        // The family's curves on the analytic backend with an unbounded
        // horizon — every oracle downstream must work through windowed
        // queries only.  (fault_p needs this backend: a finite visit
        // list makes the expectation infinite for every p > 0.)
        return make_fuzz_strategy(instance)->build_unbounded_fleet();
      case Backend::kCrashExecuted:
        return execute_crash_schedule(instance.n, instance.f,
                                      instance.extent, instance.crash_times);
    }
    throw PreconditionError("build_fuzz_fleet: unknown backend");
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
  const KindRow& row = row_of(instance);
  Subject subject;
  subject.fleet = &fleet;
  subject.f = instance.f;
  subject.coverage_extent = instance.extent;
  if (row.family != Family::kCowPath) subject.beta = instance.beta;
  if (crash_scheduled(instance)) {
    // Crashed robots stop short of the extent, so the coverage claim is
    // withdrawn (0 => inapplicable); the ladder is A(n, f), so the cone
    // claim stands — every truncated leg stays inside C_beta.
    subject.coverage_extent = 0;
    return subject;
  }
  if (const StrategyPtr strategy = make_fuzz_strategy(instance)) {
    subject.theory_cr = strategy->theoretical_cr();
  }
  // The structural re-derivation needs a materialized waypoint list,
  // which the unbounded backend refuses; the dense-vs-analytic
  // differential covers the structure there instead.
  subject.proportional = (row.family == Family::kRegimeOptimal ||
                          row.family == Family::kRegimeDrawnBeta) &&
                         row.backend != Backend::kUnbounded;
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
    options.run_theorem2_game = !crash_scheduled(instance);
    outcome.invariants = run_invariants(subject, options);

    if (instance.injection == Injection::kNone) {
      CrEvalOptions eval;
      eval.window_lo = instance.window_lo;
      eval.window_hi = instance.window_hi;
      const Backend backend = row_of(instance).backend;
      try {
        if (backend == Backend::kCrashExecuted) {
          // The generic engines demand finite detection everywhere; the
          // crash backend instead races the injected World run against
          // the analytic truncation of a clean run.
          outcome.differentials.push_back(diff_crash_injected(
              instance.n, instance.f, instance.extent,
              instance.crash_times, eval));
        } else if (backend == Backend::kWire) {
          // Wire round trip vs the library on this instance's query,
          // through the resilient client: over the clean channel
          // (chaos_seed 0) unless the chaos feature drew a seed.
          svc::CrQuery query;
          query.n = instance.n;
          query.f = instance.f;
          query.beta = instance.beta;
          query.window_lo = instance.window_lo;
          query.window_hi = instance.window_hi;
          query.regime = instance.query_regime;
          if (crash_scheduled(instance)) {
            query.crash_times = instance.crash_times;
          }
          outcome.differentials.push_back(diff_chaos_vs_library(
              query, instance.chaos_seed, instance.chaos_fault_cap));
        } else {
          outcome.differentials =
              run_differentials(fleet, instance.f, eval, instance.targets);
        }
        if (has(instance, kLies)) {
          // Race the runtime claim arbiter against the analytic quorum
          // evaluation under this instance's lie schedule.
          outcome.differentials.push_back(
              diff_byzantine(instance.n, instance.f, instance.extent,
                             instance.lies, instance.targets, eval));
        }
        if (has(instance, kFaultP)) {
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
        // A strategy-built fleet must not be able to tell its dense and
        // analytic backends apart (a crashed or wire fleet is not the
        // strategy's own).
        const StrategyPtr strategy = make_fuzz_strategy(instance);
        if (strategy && (backend == Backend::kDense ||
                         backend == Backend::kUnbounded)) {
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
/// still holds; regime families additionally need f < n < 2f+2, and
/// families whose builder derives beta from (n, f) get the claim
/// re-derived so the Subject keeps describing the fleet actually built.
void clamp_faults(FuzzInstance& instance) {
  const Family family = row_of(instance).family;
  instance.f = std::min(instance.f, instance.n - 1);
  if (regime_family(family)) {
    instance.f = std::max({instance.f, regime_f_floor(instance.n), 1});
  }
  instance.f = std::max(instance.f, 0);
  if (instance.n < 2) instance.mirrored = false;
  if (regime_family(family) && !drawn_beta_family(family)) {
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

/// Round `value` onto the quarter grid, no lower than `floor`; true when
/// that moved it.
bool round_to_quarter(Real& value, const Real floor) {
  const Real rounded = std::max(floor, std::round(value * 4) / 4);
  if (value_identical(rounded, value)) return false;
  value = rounded;
  return true;
}

/// Candidate shrink moves, smallest-first; each strictly reduces the
/// instance (fewer targets/robots, smaller extent/window, rounder
/// parameters), so greedy acceptance terminates.
std::vector<FuzzInstance> shrink_moves(const FuzzInstance& instance) {
  const KindRow& row = row_of(instance);
  const bool custom_cone = row.family == Family::kCustomCone;
  std::vector<FuzzInstance> moves;
  // One move: a copy of the instance with `edit` applied.
  const auto add = [&instance, &moves](const auto& edit) {
    FuzzInstance candidate = instance;
    edit(candidate);
    moves.push_back(std::move(candidate));
  };

  if (!instance.targets.empty()) {
    add([](FuzzInstance& c) { c.targets.clear(); });
    add([](FuzzInstance& c) { c.targets.pop_back(); });
  }

  if (custom_cone) {
    if (instance.magnitudes.size() > 1) {
      add([](FuzzInstance& c) {
        c.magnitudes.pop_back();
        c.n = static_cast<int>(c.magnitudes.size());
        clamp_faults(c);
      });
    }
  } else if (instance.n > (regime_family(row.family) ? 2 : 1)) {
    // Regime families bottom out at (n, f) = (2, 1), the smallest pair
    // with 1 <= f < n < 2f+2.
    add([](FuzzInstance& c) {
      c.n -= 1;
      clamp_faults(c);
    });
  }

  Real extent_floor = 4;
  if (kappa_family(row.family)) {
    const Real kappa2 =
        expansion_factor(instance.beta) * expansion_factor(instance.beta);
    extent_floor = std::max(extent_floor, kappa2 * Real{1.25L});
  }
  const Real halved_extent = std::max(extent_floor, instance.extent / 2);
  if (halved_extent < instance.extent) {
    add([halved_extent](FuzzInstance& c) { c.extent = halved_extent; });
  }

  const Real halved_window =
      std::max(std::max(Real{2}, instance.window_lo * 2),
               instance.window_hi / 2);
  if (halved_window < instance.window_hi) {
    add([halved_window](FuzzInstance& c) {
      c.window_hi = halved_window;
      c.extent = std::max(c.extent, halved_window * 2);
    });
  }

  const Real rounded_beta = std::max(Real{1.5L}, std::round(instance.beta));
  if (drawn_beta_family(row.family) &&
      !value_identical(rounded_beta, instance.beta)) {
    add([rounded_beta, custom_cone](FuzzInstance& c) {
      c.beta = rounded_beta;
      if (!custom_cone) return;
      const Real kappa2 =
          expansion_factor(c.beta) * expansion_factor(c.beta);
      for (Real& magnitude : c.magnitudes) {
        magnitude = std::min(magnitude, kappa2 * Real{0.999L});
      }
      c.extent = std::max(c.extent, kappa2 * Real{1.25L});
    });
  }

  if (custom_cone) {
    FuzzInstance rounder = instance;
    bool changed = false;
    for (Real& magnitude : rounder.magnitudes) {
      changed = round_to_quarter(magnitude, 1) || changed;
    }
    if (changed) moves.push_back(std::move(rounder));
  }

  if (has(instance, kChaosChannel) && instance.chaos_seed != 0) {
    // Simplest first: the clean channel (chaos_seed = 0).  If the
    // failure survives, it is a server/protocol bug, not a fault-
    // injection artifact — a strictly simpler repro.
    add([](FuzzInstance& c) { c.chaos_seed = 0; });
    // Then a shorter fault script: walk the per-connection cap down to
    // one fault, minimizing the (seed, fault-script) pair in the repro.
    if (instance.chaos_fault_cap > 1) {
      add([](FuzzInstance& c) { c.chaos_fault_cap -= 1; });
    }
  }

  if (row.backend == Backend::kWire &&
      instance.query_regime != svc::FaultRegime::kNone) {
    // Simplest first: the plain regime (drops the crash schedule too).
    add([](FuzzInstance& c) {
      c.query_regime = svc::FaultRegime::kNone;
      c.crash_times.clear();
    });
  }

  if (crash_scheduled(instance) &&
      std::any_of(instance.crash_times.begin(), instance.crash_times.end(),
                  [](const Real t) { return std::isfinite(t); })) {
    // Simplest first: no crashes at all (a plain A(n, f) run).
    add([](FuzzInstance& c) {
      std::fill(c.crash_times.begin(), c.crash_times.end(), kInfinity);
    });
    // Then rounder crash times (quarter grid, floor 0.25).
    FuzzInstance rounder = instance;
    bool changed = false;
    for (Real& t : rounder.crash_times) {
      if (std::isfinite(t)) changed = round_to_quarter(t, 0.25L) || changed;
    }
    if (changed) moves.push_back(std::move(rounder));
  }

  if (has(instance, kFaultP) && instance.fault_p > 0) {
    // Simplest first: no failures at all (the bitwise p = 0 branch).
    add([](FuzzInstance& c) { c.fault_p = 0; });
    // Then a rounder p on the sixteenth grid, clamped inside (0, 1) so
    // the rounded instance keeps exercising the same engine branch.
    const Real rounded =
        std::min(std::max(std::round(instance.fault_p * 16) / 16,
                          Real{1} / 16),
                 Real{15} / 16);
    if (!value_identical(rounded, instance.fault_p)) {
      add([rounded](FuzzInstance& c) { c.fault_p = rounded; });
    }
  }

  if (has(instance, kLies) && instance.lies.liar_count() > 0) {
    // Simplest first: everyone honest (a plain A(n, f) instance).
    add([](FuzzInstance& c) {
      std::fill(c.lies.liar.begin(), c.lies.liar.end(), false);
      for (auto& claims : c.lies.claims) claims.clear();
    });
    // Then one fabrication fewer — drop the last liar's last claim (a
    // claimless liar still suppresses its real find).
    for (std::size_t robot = instance.lies.size(); robot-- > 0;) {
      if (!instance.lies.claims[robot].empty()) {
        add([robot](FuzzInstance& c) { c.lies.claims[robot].pop_back(); });
        break;
      }
    }
    // Then rounder fabrications (quarter grid, |position| floor 1).
    FuzzInstance rounder = instance;
    bool changed = false;
    for (auto& claims : rounder.lies.claims) {
      for (LieEvent& event : claims) {
        changed = round_to_quarter(event.time, 0.25L) || changed;
        Real magnitude = std::fabs(event.position);
        if (round_to_quarter(magnitude, 1)) {
          event.position = event.position < 0 ? -magnitude : magnitude;
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
  if (has(instance, kChaosChannel)) {
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
  const auto failures = [&json](const auto& results) {
    for (const auto& result : results) {
      if (result.ok()) continue;
      json.begin_object();
      json.field("check", result.name);
      json.field("message", result.message);
      json.end_object();
    }
  };
  failures(outcome.invariants);
  failures(outcome.differentials);
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
