// The observability layer's core contract: every deterministic metric
// aggregates BIT-IDENTICALLY for any thread count.  These tests run the
// instrumented workloads at 1 / 2 / 8 threads and compare the entire
// deterministic snapshot, serialized, byte for byte.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "adversary/game.hpp"
#include "adversary/placements.hpp"
#include "core/algorithm.hpp"
#include "eval/batch.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/jsonio.hpp"

namespace linesearch {
namespace {

std::string deterministic_metrics_json() {
  std::ostringstream out;
  JsonWriter json(out);
  obs::write_metrics_array(json, /*deterministic_only=*/true);
  return out.str();
}

constexpr int kThreadCounts[] = {1, 2, 8};

TEST(ObsDeterminism, DenseBatchBitIdenticalAcrossThreadCounts) {
  const ProportionalAlgorithm algo(7, 4);
  const Fleet fleet = algo.build_fleet(2000);
  std::vector<CrBatchJob> jobs;
  for (int f = 0; f < static_cast<int>(fleet.size()); ++f) {
    for (const Real window : {12.0L, 24.0L, 48.0L}) {
      jobs.push_back(
          {&fleet, f, {.window_hi = window, .interior_samples = 16}});
    }
  }

  std::vector<std::string> snapshots;
  for (const int threads : kThreadCounts) {
    obs::Registry::instance().reset();
    (void)measure_cr_batch(jobs, {.threads = threads});
    snapshots.push_back(deterministic_metrics_json());
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  if constexpr (obs::kEnabled) {
    // Non-trivial: the workload really recorded the eval counters.
    EXPECT_NE(snapshots[0].find("eval.cr.probes"), std::string::npos);
    EXPECT_NE(snapshots[0].find("eval.batch.jobs"), std::string::npos);
  }
}

TEST(ObsDeterminism, AdversaryGameBitIdenticalAcrossThreadCounts) {
  const Real alpha = comfortable_alpha(3, 0.8L);
  const Fleet fleet =
      ProportionalAlgorithm(3, 1).build_fleet(largest_placement(alpha) * 4);

  std::vector<std::string> snapshots;
  for (const int threads : kThreadCounts) {
    obs::Registry::instance().reset();
    GameOptions options;
    options.threads = threads;
    (void)play_theorem2_game(fleet, 1, alpha, options);
    snapshots.push_back(deterministic_metrics_json());
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  if constexpr (obs::kEnabled) {
    EXPECT_NE(snapshots[0].find("adversary.game.placements"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace linesearch
