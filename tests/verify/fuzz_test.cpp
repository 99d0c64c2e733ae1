// Fuzzer layer: deterministic generation, oracle wiring, shrinking.
#include "verify/fuzz.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>

#include "eval/expectation.hpp"
#include "util/error.hpp"

namespace linesearch {
namespace verify {
namespace {

bool same_instance(const FuzzInstance& a, const FuzzInstance& b) {
  if (a.seed != b.seed || a.kind != b.kind || a.injection != b.injection ||
      a.n != b.n || a.f != b.f || a.mirrored != b.mirrored ||
      a.query_regime != b.query_regime) {
    return false;
  }
  if (!value_identical(a.fault_p, b.fault_p)) return false;
  if (!value_identical(a.beta, b.beta) ||
      !value_identical(a.extent, b.extent) ||
      !value_identical(a.window_lo, b.window_lo) ||
      !value_identical(a.window_hi, b.window_hi)) {
    return false;
  }
  if (a.magnitudes.size() != b.magnitudes.size() ||
      a.targets.size() != b.targets.size() ||
      a.crash_times.size() != b.crash_times.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.magnitudes.size(); ++i) {
    if (!value_identical(a.magnitudes[i], b.magnitudes[i])) return false;
  }
  for (std::size_t i = 0; i < a.targets.size(); ++i) {
    if (!value_identical(a.targets[i], b.targets[i])) return false;
  }
  for (std::size_t i = 0; i < a.crash_times.size(); ++i) {
    if (!value_identical(a.crash_times[i], b.crash_times[i])) return false;
  }
  if (a.lies.liar != b.lies.liar ||
      a.lies.claims.size() != b.lies.claims.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.lies.claims.size(); ++i) {
    if (a.lies.claims[i].size() != b.lies.claims[i].size()) return false;
    for (std::size_t k = 0; k < a.lies.claims[i].size(); ++k) {
      if (!value_identical(a.lies.claims[i][k].time,
                           b.lies.claims[i][k].time) ||
          !value_identical(a.lies.claims[i][k].position,
                           b.lies.claims[i][k].position)) {
        return false;
      }
    }
  }
  return true;
}

TEST(SplitMix, DeterministicStream) {
  SplitMix64 a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix, UniformStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Real x = rng.uniform(1.5L, 4.0L);
    EXPECT_GE(x, 1.5L);
    EXPECT_LT(x, 4.0L);
    const int k = rng.uniform_int(-3, 3);
    EXPECT_GE(k, -3);
    EXPECT_LE(k, 3);
  }
}

TEST(Fuzz, GenerationIsDeterministic) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    EXPECT_TRUE(same_instance(generate_instance(seed),
                              generate_instance(seed)))
        << "seed " << seed;
  }
}

TEST(Fuzz, SeedsCoverEveryFleetKind) {
  std::set<FleetKind> kinds;
  // proportional is the last kind the generator reaches: seed 109.
  for (std::uint64_t seed = 1; seed <= 128; ++seed) {
    kinds.insert(generate_instance(seed).kind);
  }
  EXPECT_EQ(kinds.size(), kFleetKinds.size());
}

TEST(Fuzz, KindNamesRoundTripThroughTheLookup) {
  for (std::size_t i = 0; i < kFleetKinds.size(); ++i) {
    const FleetKind kind = kFleetKinds[i];
    // Declaration order: generate_instance indexes this list by seed.
    EXPECT_EQ(static_cast<std::size_t>(kind), i);
    const std::optional<FleetKind> back = kind_from_name(kind_name(kind));
    ASSERT_TRUE(back.has_value()) << kind_name(kind);
    EXPECT_EQ(*back, kind) << kind_name(kind);
  }
  for (const char* unknown : {"", "unknown", "bogus", "Proportional",
                              "chaos-wire ", "kernel_soa"}) {
    EXPECT_FALSE(kind_from_name(unknown).has_value()) << unknown;
  }
}

TEST(Fuzz, GeneratedInstancesAreValid) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    EXPECT_GE(instance.n, 1) << seed;
    EXPECT_GE(instance.f, 0) << seed;
    EXPECT_LT(instance.f, instance.n) << seed;
    EXPECT_GT(instance.window_hi, instance.window_lo) << seed;
    EXPECT_GE(instance.extent, instance.window_hi) << seed;
    EXPECT_FALSE(instance.targets.empty()) << seed;
    // Building must not throw and must honour the coverage contract.
    const Fleet fleet = build_fuzz_fleet(instance);
    EXPECT_EQ(static_cast<int>(fleet.size()), instance.n) << seed;
  }
}

TEST(Fuzz, CleanSeedRunsAllOracles) {
  // Deterministic search for the first byzantine-lies seed: the kind
  // with the fullest engine set.
  for (std::uint64_t seed = 1;; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kByzantineLies) continue;
    const FuzzOutcome outcome = run_instance(instance);
    EXPECT_TRUE(outcome.ok()) << outcome.describe();
    EXPECT_EQ(outcome.invariants.size(), 11u);
    // run_differentials' four engines plus the byzantine quorum race
    // plus the dense-vs-analytic backend differential.
    EXPECT_EQ(outcome.differentials.size(), 6u);
    EXPECT_EQ(outcome.primary_failure(), "");
    break;
  }
}

TEST(Fuzz, ConeEscapeInjectionFailsConeOracle) {
  // Find an injectable (cone-claiming) seed deterministically.
  for (std::uint64_t seed = 1;; ++seed) {
    FuzzInstance instance = generate_instance(seed);
    if (instance.kind == FleetKind::kClassicCowPath) continue;
    instance.injection = Injection::kConeEscape;
    const FuzzOutcome outcome = run_instance(instance);
    EXPECT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.primary_failure(), "lemma1_cone_containment");
    // Injected instances skip the differential engines by design.
    EXPECT_TRUE(outcome.differentials.empty());
    break;
  }
}

TEST(Fuzz, ShrinkerReducesInjectedViolationToMinimalRepro) {
  for (std::uint64_t seed = 1;; ++seed) {
    FuzzInstance instance = generate_instance(seed);
    if (instance.kind == FleetKind::kClassicCowPath) continue;
    if (instance.n < 4) continue;  // start from a genuinely large case
    instance.injection = Injection::kConeEscape;

    const ShrinkResult shrunk = shrink_instance(instance);
    EXPECT_EQ(shrunk.failure, "lemma1_cone_containment");
    EXPECT_GT(shrunk.accepted_moves, 0);
    EXPECT_LE(shrunk.instance.n, 3);
    EXPECT_TRUE(shrunk.instance.targets.empty());

    const Fleet fleet = build_fuzz_fleet(shrunk.instance);
    EXPECT_LE(fleet.robot(0).segment_count(), 4u);
    const FuzzOutcome outcome = run_instance(shrunk.instance);
    EXPECT_EQ(outcome.primary_failure(), "lemma1_cone_containment");

    // Replaying the identical start must shrink to the identical minimum.
    const ShrinkResult again = shrink_instance(instance);
    EXPECT_TRUE(same_instance(shrunk.instance, again.instance));
    EXPECT_EQ(shrunk.accepted_moves, again.accepted_moves);
    break;
  }
}

TEST(Fuzz, JsonReproRecordNamesTheFailure) {
  FuzzInstance instance = generate_instance(7);
  instance.injection = Injection::kConeEscape;
  const FuzzOutcome outcome = run_instance(instance);
  const std::string json = instance_to_json(instance, outcome);
  EXPECT_NE(json.find("\"seed\": \"7\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"injection\": \"cone-escape\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("lemma1_cone_containment"), std::string::npos);
}

TEST(Fuzz, JsonCleanRecordIsOk) {
  const FuzzInstance instance = generate_instance(42);
  const FuzzOutcome outcome = run_instance(instance);
  const std::string json = instance_to_json(instance, outcome);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failures\": []"), std::string::npos) << json;
}

TEST(Fuzz, CrashKindInstancesCarryACrashSchedule) {
  int crash_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kCrashInjected) continue;
    ++crash_seeds;
    EXPECT_EQ(instance.crash_times.size(),
              static_cast<std::size_t>(instance.n))
        << seed;
    for (const Real t : instance.crash_times) {
      EXPECT_TRUE(std::isinf(t) || (t >= 0.1L && t <= 32.0L)) << seed;
    }
    const Fleet fleet = build_fuzz_fleet(instance);
    EXPECT_EQ(static_cast<int>(fleet.size()), instance.n) << seed;
  }
  EXPECT_GT(crash_seeds, 0);
}

TEST(Fuzz, CrashKindRunsTheCrashDifferential) {
  // The crash kind swaps the generic differential engines (which demand
  // finite detection everywhere) for the injected-vs-analytic race, and
  // sits out the Theorem 2 adversary game.
  for (std::uint64_t seed = 1;; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kCrashInjected) continue;
    const FuzzOutcome outcome = run_instance(instance);
    EXPECT_TRUE(outcome.ok()) << outcome.describe();
    EXPECT_EQ(outcome.invariants.size(), 11u);
    ASSERT_EQ(outcome.differentials.size(), 1u);
    EXPECT_EQ(outcome.differentials[0].name, "crash_injected");
    break;
  }
}

TEST(Fuzz, CrashKindJsonRecordsTheSchedule) {
  for (std::uint64_t seed = 1;; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kCrashInjected) continue;
    const FuzzOutcome outcome = run_instance(instance);
    const std::string json = instance_to_json(instance, outcome);
    EXPECT_NE(json.find("\"kind\": \"crash-injected\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"crash_times\""), std::string::npos) << json;
    break;
  }
}

TEST(Fuzz, KernelKindCarriesDuplicateTargets) {
  // The kernel-soa kind exists to stress exact-duplicate handling: its
  // target list repeats its leading entries bit-for-bit, and the
  // instance still passes every oracle and differential (including
  // kernel_vs_scalar).
  int kernel_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kKernelSoA) continue;
    ++kernel_seeds;
    ASSERT_GE(instance.targets.size(), 8u) << seed;
    bool any_duplicate = false;
    for (std::size_t i = 0; i < instance.targets.size(); ++i) {
      for (std::size_t j = i + 1; j < instance.targets.size(); ++j) {
        if (value_identical(instance.targets[i], instance.targets[j])) {
          any_duplicate = true;
        }
      }
    }
    EXPECT_TRUE(any_duplicate) << seed;
    if (kernel_seeds == 1) {
      const FuzzOutcome outcome = run_instance(instance);
      EXPECT_TRUE(outcome.ok()) << outcome.describe();
      bool ran_kernel_vs_scalar = false;
      for (const DifferentialResult& result : outcome.differentials) {
        if (result.name == "kernel_vs_scalar") ran_kernel_vs_scalar = true;
      }
      EXPECT_TRUE(ran_kernel_vs_scalar);
    }
  }
  EXPECT_GT(kernel_seeds, 0);
}

TEST(Fuzz, ByzantineKindCarriesALiePlanAndRunsItsDifferential) {
  // Byzantine-lies instances carry a per-robot lie schedule sized to the
  // fleet with at most f liars, lies never alter motion (the fleet is
  // the plain A(n, f)), and the run swaps the generic engines for the
  // runtime-vs-analytic quorum race.
  int byzantine_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kByzantineLies) continue;
    ++byzantine_seeds;
    EXPECT_EQ(instance.lies.size(), static_cast<std::size_t>(instance.n))
        << seed;
    EXPECT_GE(instance.lies.liar_count(), 1) << seed;
    EXPECT_LE(instance.lies.liar_count(), instance.f) << seed;
    for (std::size_t robot = 0; robot < instance.lies.size(); ++robot) {
      if (!instance.lies.liar[robot]) {
        EXPECT_TRUE(instance.lies.claims[robot].empty()) << seed;
      }
      for (const LieEvent& event : instance.lies.claims[robot]) {
        EXPECT_GT(event.time, 0) << seed;
        EXPECT_GE(std::fabs(event.position), 1) << seed;
      }
    }
    const Fleet fleet = build_fuzz_fleet(instance);
    EXPECT_EQ(static_cast<int>(fleet.size()), instance.n) << seed;
    if (byzantine_seeds == 1) {
      // Lies never alter motion, so the full generic engine set still
      // applies — the quorum race rides along as an extra engine.
      const FuzzOutcome outcome = run_instance(instance);
      EXPECT_TRUE(outcome.ok()) << outcome.describe();
      EXPECT_EQ(outcome.invariants.size(), 11u);
      bool ran_byzantine = false;
      for (const DifferentialResult& result : outcome.differentials) {
        if (result.name == "byzantine") ran_byzantine = true;
      }
      EXPECT_TRUE(ran_byzantine);
    }
  }
  EXPECT_GT(byzantine_seeds, 0);
}

TEST(Fuzz, ByzantineKindJsonRecordsTheLieSchedule) {
  for (std::uint64_t seed = 1;; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kByzantineLies) continue;
    const FuzzOutcome outcome = run_instance(instance);
    const std::string json = instance_to_json(instance, outcome);
    EXPECT_NE(json.find("\"kind\": \"byzantine-lies\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"liars\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"lie_claims\""), std::string::npos) << json;
    break;
  }
}

TEST(Fuzz, ShrinkerReducesByzantineInstanceToAtMostThreeRobots) {
  // A corrupted byzantine-lies instance must shrink to a <= 3-robot
  // lie-schedule repro whose JSON still carries the schedule — the
  // repro an actual arbitration bug would be reported as.
  for (std::uint64_t seed = 1;; ++seed) {
    FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kByzantineLies) continue;
    if (instance.n < 4) continue;  // start from a genuinely large case
    instance.injection = Injection::kConeEscape;

    const ShrinkResult shrunk = shrink_instance(instance);
    EXPECT_EQ(shrunk.failure, "lemma1_cone_containment");
    EXPECT_GT(shrunk.accepted_moves, 0);
    EXPECT_LE(shrunk.instance.n, 3);
    EXPECT_EQ(shrunk.instance.kind, FleetKind::kByzantineLies);
    // The lie plan is clamped alongside the fleet.
    EXPECT_EQ(shrunk.instance.lies.size(),
              static_cast<std::size_t>(shrunk.instance.n));
    EXPECT_LE(shrunk.instance.lies.liar_count(), shrunk.instance.f);

    const std::string json = instance_to_json(
        shrunk.instance, run_instance(shrunk.instance));
    EXPECT_NE(json.find("\"liars\""), std::string::npos) << json;

    // Replaying the identical start must shrink to the identical
    // minimum.
    const ShrinkResult again = shrink_instance(instance);
    EXPECT_TRUE(same_instance(shrunk.instance, again.instance));
    EXPECT_EQ(shrunk.accepted_moves, again.accepted_moves);
    break;
  }
}

TEST(Fuzz, ServerQueryKindCoversEveryRegimeAndRunsTheWireDifferential) {
  // Server-query instances swap the generic engine set for the wire
  // round trip over the clean channel (diff_chaos_vs_library at
  // chaos_seed 0, which they never draw); crash-regime queries carry a
  // full per-robot schedule, and across the 120-seed corpus all three
  // fault regimes must appear.
  std::set<svc::FaultRegime> regimes;
  int server_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kServerQuery) continue;
    ++server_seeds;
    regimes.insert(instance.query_regime);
    EXPECT_EQ(instance.chaos_seed, 0u) << seed;
    if (instance.query_regime == svc::FaultRegime::kCrash) {
      EXPECT_EQ(instance.crash_times.size(),
                static_cast<std::size_t>(instance.n))
          << seed;
    } else {
      EXPECT_TRUE(instance.crash_times.empty()) << seed;
    }
    if (server_seeds == 1) {
      const FuzzOutcome outcome = run_instance(instance);
      EXPECT_TRUE(outcome.ok()) << outcome.describe();
      EXPECT_EQ(outcome.invariants.size(), 11u);
      ASSERT_EQ(outcome.differentials.size(), 1u);
      EXPECT_EQ(outcome.differentials[0].name, "chaos_vs_library");
    }
  }
  EXPECT_GT(server_seeds, 0);
  EXPECT_EQ(regimes.size(), 3u);
}

TEST(Fuzz, ServerQueryKindJsonRecordsTheRegime) {
  for (std::uint64_t seed = 1;; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kServerQuery) continue;
    const FuzzOutcome outcome = run_instance(instance);
    const std::string json = instance_to_json(instance, outcome);
    EXPECT_NE(json.find("\"kind\": \"server-query\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"query_regime\""), std::string::npos) << json;
    break;
  }
}

TEST(Fuzz, ProbabilisticKindRunsTheExpectationDifferential) {
  // Probabilistic-faults instances carry a fault_p in [0, 1) — mostly
  // inside the convergent band, occasionally past the ladder threshold
  // so the divergence contract is exercised — and ride the generic
  // engine set plus the expectation-vs-Monte-Carlo race.
  int probabilistic_seeds = 0;
  int divergent_seeds = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kProbabilisticFaults) continue;
    ++probabilistic_seeds;
    EXPECT_GE(instance.fault_p, 0.0L) << seed;
    EXPECT_LT(instance.fault_p, 1.0L) << seed;
    if (!expectation_converges(instance.n, instance.f, instance.fault_p)) {
      ++divergent_seeds;
    }
    if (probabilistic_seeds == 1) {
      const FuzzOutcome outcome = run_instance(instance);
      EXPECT_TRUE(outcome.ok()) << outcome.describe();
      EXPECT_EQ(outcome.invariants.size(), 11u);
      bool ran_expectation = false;
      for (const DifferentialResult& result : outcome.differentials) {
        if (result.name == "expectation_vs_montecarlo") {
          ran_expectation = true;
        }
      }
      EXPECT_TRUE(ran_expectation);
    }
  }
  EXPECT_GT(probabilistic_seeds, 0);
  EXPECT_GT(divergent_seeds, 0);
}

TEST(Fuzz, ProbabilisticKindJsonRecordsFaultP) {
  for (std::uint64_t seed = 1;; ++seed) {
    const FuzzInstance instance = generate_instance(seed);
    if (instance.kind != FleetKind::kProbabilisticFaults) continue;
    const FuzzOutcome outcome = run_instance(instance);
    const std::string json = instance_to_json(instance, outcome);
    EXPECT_NE(json.find("\"kind\": \"probabilistic-faults\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"fault_p\""), std::string::npos) << json;
    break;
  }
}

TEST(Fuzz, ShrinkRequiresAFailingStart) {
  const FuzzInstance instance = generate_instance(42);
  EXPECT_THROW((void)shrink_instance(instance), PreconditionError);
}

}  // namespace
}  // namespace verify
}  // namespace linesearch
