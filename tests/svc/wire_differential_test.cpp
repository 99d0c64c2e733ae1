// The service acceptance grid: verify::diff_chaos_vs_library on the
// clean channel (chaos_seed 0) must hold — every response byte-identical
// to the library's rendering, cold and warm, and every QueryResult field
// parsed back value_identical to evaluate_query_direct — on all 41
// proportional regime pairs with n <= 12, under every fault regime
// (plain, byzantine, a crash schedule, and probabilistic probe failure
// at a grid-wide convergent p plus a per-pair divergent p whose inf
// expected CR pins the non-finite codec on the wire).  This is the wire
// differential's full-grid certification; the fuzzer samples the same
// engine on random queries (server-query on the clean channel,
// chaos-wire through seeded faults).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "eval/validation.hpp"
#include "svc/query.hpp"
#include "util/real.hpp"
#include "verify/differential.hpp"

namespace linesearch {
namespace {

svc::CrQuery grid_query(const int n, const int f,
                        const svc::FaultRegime regime,
                        const Real fault_p = 0) {
  svc::CrQuery query;
  query.n = n;
  query.f = f;
  query.window_hi = 16;
  query.regime = regime;
  query.fault_p = fault_p;
  if (regime == svc::FaultRegime::kCrash) {
    // Deterministic schedule: robot 0 crashes mid-window, the rest stay
    // healthy — detectable everywhere, so the CR stays finite.
    query.crash_times.assign(static_cast<std::size_t>(n), kInfinity);
    query.crash_times[0] = 3.0L;
  }
  return query;
}

void run_grid(const svc::FaultRegime regime, const Real fault_p = 0) {
  const std::vector<std::pair<int, int>> pairs =
      proportional_regime_pairs(12);
  ASSERT_EQ(pairs.size(), 41u);
  for (const auto& [n, f] : pairs) {
    const verify::DifferentialResult result =
        verify::diff_chaos_vs_library(grid_query(n, f, regime, fault_p), 0);
    EXPECT_TRUE(result.ok())
        << "n=" << n << " f=" << f << ": " << result.message;
    EXPECT_TRUE(result.mismatches.empty()) << "n=" << n << " f=" << f;
  }
}

TEST(SvcAcceptanceGrid, PlainRegimeAllPairs) {
  run_grid(svc::FaultRegime::kNone);
}

TEST(SvcAcceptanceGrid, ByzantineRegimeAllPairs) {
  run_grid(svc::FaultRegime::kByzantine);
}

TEST(SvcAcceptanceGrid, CrashRegimeAllPairs) {
  run_grid(svc::FaultRegime::kCrash);
}

TEST(SvcAcceptanceGrid, ProbabilisticRegimeAllPairsConvergent) {
  // 0.25 sits below the grid's minimum ladder threshold (~0.63 at
  // (3, 1)): every pair's expected CR is finite, and the continuous
  // fault_p parameter must survive the wire codec bit-exactly for the
  // round trip to agree.
  run_grid(svc::FaultRegime::kProbabilistic, 0.25L);
}

TEST(SvcAcceptanceGrid, ProbabilisticDivergentPinsInfOnTheWire) {
  // Past (3, 1)'s threshold the expected CR is inf on both paths; the
  // differential also certifies the warm replay of the "inf" codec.
  const verify::DifferentialResult result = verify::diff_chaos_vs_library(
      grid_query(3, 1, svc::FaultRegime::kProbabilistic, 0.8L), 0);
  EXPECT_TRUE(result.ok()) << result.message;
  EXPECT_TRUE(result.mismatches.empty());
}

}  // namespace
}  // namespace linesearch
