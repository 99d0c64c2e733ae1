// Differential layer: independent evaluator paths must agree.
#include "verify/differential.hpp"

#include <gtest/gtest.h>

#include "core/algorithm.hpp"
#include "core/baselines.hpp"
#include "eval/batch.hpp"

namespace linesearch {
namespace verify {
namespace {

CrEvalOptions window16() {
  CrEvalOptions eval;
  eval.window_lo = 1;
  eval.window_hi = 16;
  return eval;
}

TEST(Differential, ProportionalFleetAllEnginesAgree) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  const std::vector<DifferentialResult> results =
      run_differentials(fleet, 2, window16());
  EXPECT_EQ(results.size(), 4u);
  EXPECT_TRUE(all_ok(results)) << describe_failures(results);
  EXPECT_TRUE(describe_failures(results).empty());
}

TEST(Differential, NonConeFleetAllEnginesAgree) {
  const Fleet fleet = ClassicCowPath(3, 1, /*mirrored=*/true).build_fleet(64);
  const std::vector<DifferentialResult> results =
      run_differentials(fleet, 1, window16());
  EXPECT_TRUE(all_ok(results)) << describe_failures(results);
}

TEST(Differential, BatchThreadsBitIdenticalAcrossManyCounts) {
  const Fleet fleet = ProportionalAlgorithm(7, 3).build_fleet(64);
  std::vector<CrBatchJob> jobs;
  for (int g = 0; g < 7; ++g) jobs.push_back({&fleet, g, window16()});
  DifferentialOptions options;
  options.thread_counts = {1, 2, 3, 8, 16};
  const DifferentialResult result = diff_batch_threads(jobs, options);
  EXPECT_TRUE(result.ok()) << result.message;
  EXPECT_TRUE(result.mismatches.empty());
}

TEST(Differential, ExactVsGridProfileMatchesAtTargets) {
  // Fuzzer-style targets, repeats included, join the grid in the kernel
  // k_profile_batch vs serial k_profile race.
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  const std::vector<Real> targets = {1, -1, 2.5L, -7.25L, 16, -16,
                                     3.0000000001L, 2.5L, -7.25L, 0};
  const DifferentialResult result =
      diff_exact_vs_grid(fleet, 1, window16(), {}, targets);
  EXPECT_TRUE(result.ok()) << result.message;
  EXPECT_TRUE(result.mismatches.empty());
}

TEST(Differential, ProbeVsExactWithinDesignedGap) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  const DifferentialResult result = diff_probe_vs_exact(fleet, 2, window16());
  EXPECT_TRUE(result.ok()) << result.message;
}

TEST(Differential, ImpossibleToleranceProducesStructuredMismatch) {
  // Forcing probe_gap_tol to zero makes the designed 1e-9 probe offset a
  // "failure" — which is exactly how the mismatch report is exercised.
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  DifferentialOptions options;
  options.probe_gap_tol = 0;
  const DifferentialResult result =
      diff_probe_vs_exact(fleet, 2, window16(), options);
  ASSERT_FALSE(result.ok());
  ASSERT_FALSE(result.mismatches.empty());
  EXPECT_EQ(result.mismatches.front().field, "cr(gap)");
  EXPECT_FALSE(result.message.empty());
  EXPECT_FALSE(describe_failures({result}).empty());
}

TEST(Differential, KernelVsScalarBitIdenticalOnDenseFleet) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(64);
  const DifferentialResult result = diff_kernel_vs_scalar(fleet, 2, window16());
  EXPECT_EQ(result.name, "kernel_vs_scalar");
  EXPECT_TRUE(result.ok()) << result.message;
  EXPECT_TRUE(result.mismatches.empty());
}

TEST(Differential, KernelVsScalarBitIdenticalOnAnalyticFleet) {
  // The batched frontier sweep has a dedicated closed-form path on the
  // unbounded backend; it must be as indistinguishable as the dense one.
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_unbounded_fleet();
  const DifferentialResult result = diff_kernel_vs_scalar(fleet, 2, window16());
  EXPECT_TRUE(result.ok()) << result.message;
}

TEST(Differential, KernelVsScalarAgreesOnUndetectedProbes) {
  // An under-built fleet leaves probes undetected; the engine relaxes
  // require_finite and both paths must report the identical undetected
  // count instead of throwing.
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(4);
  CrEvalOptions eval = window16();
  eval.window_hi = 4096;  // far beyond the fleet's reach
  eval.require_finite = false;
  const DifferentialResult result = diff_kernel_vs_scalar(fleet, 1, eval);
  EXPECT_TRUE(result.ok()) << result.message;
}

TEST(Differential, GridSamplesNeverExceedCertifiedSup) {
  const Fleet fleet = ProportionalAlgorithm(4, 2).build_fleet(64);
  DifferentialOptions options;
  options.grid_points = 96;
  const DifferentialResult result =
      diff_exact_vs_grid(fleet, 2, window16(), options);
  EXPECT_TRUE(result.ok()) << result.message;
}

}  // namespace
}  // namespace verify
}  // namespace linesearch
