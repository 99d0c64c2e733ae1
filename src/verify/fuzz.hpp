// verify/fuzz.hpp — seeded strategy fuzzer with greedy failure shrinking.
//
// A fuzz instance is a small record (strategy family, n, f, beta,
// magnitudes, window, adversarial targets) generated deterministically
// from a 64-bit seed: same seed, same instance, same verdict, on every
// machine.  Running an instance builds the fleet, runs every invariant
// oracle of verify/invariants and (for valid fleets) every differential
// engine of verify/differential.
//
// On failure the instance is shrunk greedily — drop robots, halve the
// extent and window, round parameters, drop targets — accepting a move
// only while the ORIGINAL failing oracle still fails, until no move
// applies.  The minimal repro is replayable from its seed alone
// (`tools/fuzz_main --seed S` re-runs generation and shrinking
// bit-identically) and is also emitted as JSON for bug reports.
//
// Injections deliberately corrupt a generated fleet (e.g. ConeEscape
// swaps robot 0 for a unit-speed classic cow-path zig-zag that leaves
// C_beta) so the oracle set and the shrinker themselves stay tested.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/faults.hpp"
#include "sim/fleet.hpp"
#include "svc/query.hpp"
#include "util/real.hpp"
#include "util/rng.hpp"
#include "verify/differential.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace verify {

/// Deterministic 64-bit generator — now the library-wide
/// linesearch::SplitMix64 (util/rng.hpp); the alias keeps the long-lived
/// verify::SplitMix64 spelling (and its streams) intact.
using ::linesearch::SplitMix64;

/// Strategy families the generator draws from.  What each kind means —
/// its parameter family, fleet backend and extra features — is one row
/// of the kind table in verify/fuzz.cpp.
enum class FleetKind {
  kProportional,    ///< A(n, f) — optimal beta
  kPerturbedBeta,   ///< S_beta(n) with a random beta != beta*
  kCustomCone,      ///< build_cone_fleet with random magnitudes
  kGroupDoubling,   ///< all robots on one cone-doubling zig-zag
  kClassicCowPath,  ///< non-cone Beck/Bellman doubling (optionally mirrored)
  kUniformOffset,   ///< arithmetic first-turn spread (ablation foil)
  kAnalyticZigzag,  ///< A(n, f) on the analytic (unbounded) backend
  kCrashInjected,   ///< A(n, f) executed under a crash-stop FaultInjector
  /// S_beta(n) with a random beta whose target list carries exact
  /// duplicates — aimed at the SoA kernel path (probe dedup, batched
  /// sweeps, kernel-vs-scalar differential).
  kKernelSoA,
  /// A(n, f) with a seeded per-robot lie schedule (sim/faults LiePlan):
  /// the instance races the runtime claim arbiter against the analytic
  /// quorum-cost evaluation (diff_byzantine) on the fuzzer's adversarial
  /// targets, and the byzantine_bounds oracle checks the 1611.08209
  /// bounds on the same fleet.
  kByzantineLies,
  /// A random CrQuery (plain / byzantine / crash regime) round-tripped
  /// through the in-process query service wire (svc/server) over the
  /// clean channel and raced against evaluate_query_direct
  /// (diff_chaos_vs_library at chaos_seed 0).
  kServerQuery,
  /// A(n, f) on the analytic backend under per-visit iid probe failures
  /// at the instance's fault_p: the exact expectation engine
  /// (eval/expectation) is raced against a seeded Monte-Carlo
  /// realization of the same fault model
  /// (diff_expectation_vs_montecarlo) on the adversarial targets, with
  /// occasional draws past the ladder threshold so the divergence
  /// branch stays exercised; every instance also runs the same checks
  /// 1e-4 below the threshold (diff_expectation_near_threshold).
  kProbabilisticFaults,
  /// A random CrQuery answered through a CHAOS channel: the resilient
  /// client (svc/client) talks to the in-process server through
  /// svc/chaos's deterministic wire fault injector (garbage bytes,
  /// splits, merges, stalls, disconnects — a pure function of
  /// chaos_seed), and diff_chaos_vs_library demands the answer be
  /// byte-identical to the offline library's rendering anyway.
  kChaosWire,
};

/// Deliberate corruptions for testing the oracles and the shrinker.
enum class Injection {
  kNone,
  /// Replace robot 0 with a unit-speed classic cow-path zig-zag from the
  /// origin.  Its first waypoint (1, 1) sits below t = beta*|x| for every
  /// beta > 1, so cone containment must fail while speed validation
  /// passes.
  kConeEscape,
};

/// Every FleetKind in declaration order.  generate_instance draws an
/// index into this list, so its order and length are part of the
/// seed -> instance mapping.
inline constexpr std::array<FleetKind, 13> kFleetKinds = {
    FleetKind::kProportional,   FleetKind::kPerturbedBeta,
    FleetKind::kCustomCone,     FleetKind::kGroupDoubling,
    FleetKind::kClassicCowPath, FleetKind::kUniformOffset,
    FleetKind::kAnalyticZigzag, FleetKind::kCrashInjected,
    FleetKind::kKernelSoA,      FleetKind::kByzantineLies,
    FleetKind::kServerQuery,    FleetKind::kProbabilisticFaults,
    FleetKind::kChaosWire,
};

/// Every Injection that corrupts an instance (kNone excluded).
inline constexpr std::array<Injection, 1> kInjections = {
    Injection::kConeEscape,
};

[[nodiscard]] const char* kind_name(FleetKind kind) noexcept;
/// The kind whose kind_name is `name`; nullopt for an unknown name.
[[nodiscard]] std::optional<FleetKind> kind_from_name(
    std::string_view name) noexcept;
[[nodiscard]] const char* injection_name(Injection injection) noexcept;
/// The kInjections entry whose injection_name is `name`; nullopt for an
/// unknown name (and for "none").
[[nodiscard]] std::optional<Injection> injection_from_name(
    std::string_view name) noexcept;

/// One fuzz case.  Every field is derived from `seed` by
/// generate_instance; the shrinker then mutates the record directly.
struct FuzzInstance {
  std::uint64_t seed = 0;
  FleetKind kind = FleetKind::kProportional;
  Injection injection = Injection::kNone;
  int n = 3;
  int f = 1;
  Real beta = 3;                ///< cone kinds; ignored by cow-path kinds
  bool mirrored = false;        ///< kClassicCowPath only
  std::vector<Real> magnitudes; ///< kCustomCone only, each in [1, kappa^2)
  Real extent = 64;
  Real window_lo = 1;
  Real window_hi = 16;
  std::vector<Real> targets;    ///< adversarial probe positions (signed)
  /// Crash-schedule feature: per-robot crash-stop times (kInfinity =
  /// healthy).  Size n when present; a wire query carries one only in
  /// the crash regime.
  std::vector<Real> crash_times;
  /// Lie-plan feature: per-robot lie schedule (size n when present;
  /// liar_count <= f always).
  LiePlan lies;
  /// Wire backend: which fault regime the wire query runs under (kCrash
  /// reuses crash_times as the query's schedule).
  svc::FaultRegime query_regime = svc::FaultRegime::kNone;
  /// fault_p feature: per-visit failure probability in [0, 1).
  Real fault_p = 0;
  /// Chaos-channel feature: the wire fault injector's seed (0 = clean
  /// channel — what every other wire instance runs, and the shrinker's
  /// first move, separating transport bugs from server bugs) and the
  /// per-connection fault-script cap the shrinker walks down to
  /// minimize the failing script.
  std::uint64_t chaos_seed = 0;
  int chaos_fault_cap = 3;
};

/// Everything one run produced.
struct FuzzOutcome {
  std::vector<InvariantResult> invariants;
  std::vector<DifferentialResult> differentials;

  [[nodiscard]] bool ok() const;
  /// Name of the first failing check ("" when ok) — the shrink predicate.
  [[nodiscard]] std::string primary_failure() const;
  /// One line per failure, empty when ok.
  [[nodiscard]] std::string describe() const;
};

/// Deterministic instance from a seed (never injected; set
/// instance.injection afterwards to corrupt it).
[[nodiscard]] FuzzInstance generate_instance(std::uint64_t seed);

/// Materialize the instance's fleet, applying its injection.
[[nodiscard]] Fleet build_fuzz_fleet(const FuzzInstance& instance);

/// The Subject (claims) the oracles check `fleet` against.
[[nodiscard]] Subject make_subject(const FuzzInstance& instance,
                                   const Fleet& fleet);

/// Build + run all oracles (+ differentials when not injected;
/// exceptions from any engine become failed results, never escape).
[[nodiscard]] FuzzOutcome run_instance(const FuzzInstance& instance);

/// Result of greedy shrinking.
struct ShrinkResult {
  FuzzInstance instance;  ///< minimal instance still failing
  int accepted_moves = 0; ///< shrink steps that preserved the failure
  std::string failure;    ///< the preserved primary failure name
};

/// Greedily minimize a failing instance; requires that run_instance
/// (start) currently fails.  Deterministic: replaying the same start
/// yields the same minimum.
[[nodiscard]] ShrinkResult shrink_instance(const FuzzInstance& start);

/// JSON repro record (instance + failures) via util/jsonio.
[[nodiscard]] std::string instance_to_json(const FuzzInstance& instance,
                                           const FuzzOutcome& outcome);

/// Corpus sweep over `count` consecutive seeds starting at first_seed.
struct CorpusReport {
  int total = 0;
  int failed = 0;
  std::vector<std::uint64_t> failing_seeds;
};
[[nodiscard]] CorpusReport run_corpus(std::uint64_t first_seed, int count);

}  // namespace verify
}  // namespace linesearch
