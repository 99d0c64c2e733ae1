// Pinned seed -> instance mapping of the fuzzer.
//
// The 120-seed corpus, every CI sweep and every replayed repro
// (`tools/fuzz_main --seed S`) rely on generate_instance and the
// shrinker being pure functions of the seed.  These tests pin both
// against constants recorded from the generator: a refactor of the kind
// table, the RNG draw order or a shrink move shows up here as a digest
// change, before it silently moves the corpus onto other instances.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "svc/snapshot.hpp"
#include "verify/fuzz.hpp"

namespace linesearch {
namespace verify {
namespace {

TEST(FuzzMapping, GeneratedInstancesMatchThePinnedDigest) {
  // FNV-1a 64 over the concatenated JSON records of seeds 1-2000.
  std::string records;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    records += instance_to_json(generate_instance(seed), {});
  }
  EXPECT_EQ(svc::fnv1a64(records), 0x185ded097efd06ceULL);
}

TEST(FuzzMapping, ShrunkConeEscapeReprosMatchThePinnedDigests) {
  // The first 10 cone-claiming seeds, injected and shrunk exactly as
  // FuzzCorpus.InjectedCorpusAlwaysFailsAndShrinks does; one FNV-1a 64
  // of the shrunk instance's JSON record per seed.
  constexpr std::array<std::uint64_t, 10> kDigests = {
      0x7e7bc11a4fcccc36ULL, 0x311808cb95b301dbULL, 0x3f76551c2bddf4d8ULL,
      0xecbb501dc9141f9fULL, 0x59aa6e086fb42b86ULL, 0x8fd0ec71fb8c18c7ULL,
      0x8325d7aa374e483bULL, 0xb4c20be5d1e3b07cULL, 0x216cab2ecef4142cULL,
      0x7ceafbff85bc3765ULL};
  std::size_t injected = 0;
  for (std::uint64_t seed = 1; injected < kDigests.size(); ++seed) {
    FuzzInstance instance = generate_instance(seed);
    if (instance.kind == FleetKind::kClassicCowPath) continue;
    instance.injection = Injection::kConeEscape;
    const std::string json =
        instance_to_json(shrink_instance(instance).instance, {});
    EXPECT_EQ(svc::fnv1a64(json), kDigests[injected])
        << "seed " << seed << ": " << json;
    ++injected;
  }
}

}  // namespace
}  // namespace verify
}  // namespace linesearch
