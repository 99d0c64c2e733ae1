// Tests for eval/batch.hpp — the parallel batched CR engine over the SoA
// kernels.  The load-bearing property is DETERMINISM: any thread count
// must reproduce the serial path bit-for-bit.
#include "eval/batch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithm.hpp"
#include "core/baselines.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace linesearch {
namespace {

/// RAII guard that sets LINESEARCH_THREADS and restores it on exit.
class ThreadsEnvGuard {
 public:
  explicit ThreadsEnvGuard(const char* value) {
    const char* old = std::getenv("LINESEARCH_THREADS");
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    setenv("LINESEARCH_THREADS", value, 1);
  }
  ~ThreadsEnvGuard() {
    if (had_value_) {
      setenv("LINESEARCH_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("LINESEARCH_THREADS");
    }
  }

 private:
  std::string saved_;
  bool had_value_ = false;
};

/// Value-exact equality for Real: same value, same zero sign, NaN equals
/// NaN.  (A raw memcmp would compare the x87 long double's padding
/// bytes, which are indeterminate.)
bool bit_identical(const Real a, const Real b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b && std::signbit(a) == std::signbit(b);
}

std::vector<CrBatchJob> table1_style_jobs(const Fleet& fleet, const int n) {
  std::vector<CrBatchJob> jobs;
  for (int f = 0; f < n; ++f) {
    jobs.push_back({&fleet, f, {.window_hi = 24}});
  }
  return jobs;
}

TEST(MeasureCrBatch, MatchesSerialMeasureCrExactly) {
  const ProportionalAlgorithm algo(5, 3);
  const Fleet fleet = algo.build_fleet(1000);
  const std::vector<CrBatchJob> jobs = table1_style_jobs(fleet, 5);

  const std::vector<CrEvalResult> batched =
      measure_cr_batch(jobs, {.threads = 8});
  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CrEvalResult serial =
        measure_cr(*jobs[i].fleet, jobs[i].f, jobs[i].options);
    EXPECT_TRUE(bit_identical(batched[i].cr, serial.cr)) << "job " << i;
    EXPECT_TRUE(bit_identical(batched[i].argmax, serial.argmax))
        << "job " << i;
    EXPECT_EQ(batched[i].probes, serial.probes);
    EXPECT_EQ(batched[i].undetected_probes, serial.undetected_probes);
  }
}

TEST(MeasureCrBatch, EnvThreadCountsAreBitIdentical) {
  // The ISSUE-mandated determinism check: LINESEARCH_THREADS=1 and =8
  // produce bit-identical cr / argmax for the whole batch.
  const ProportionalAlgorithm algo(7, 4);
  const Fleet fleet = algo.build_fleet(800);
  const std::vector<CrBatchJob> jobs = table1_style_jobs(fleet, 7);

  std::vector<CrEvalResult> one;
  {
    const ThreadsEnvGuard env("1");
    one = measure_cr_batch(jobs);  // threads = 0 -> env
  }
  std::vector<CrEvalResult> eight;
  {
    const ThreadsEnvGuard env("8");
    eight = measure_cr_batch(jobs);
  }
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(bit_identical(one[i].cr, eight[i].cr)) << "job " << i;
    EXPECT_TRUE(bit_identical(one[i].argmax, eight[i].argmax))
        << "job " << i;
  }
}

TEST(MeasureCrBatch, MatchesScalarReferenceScanBitwise) {
  // The independent reference: the scalar probe scan over direct Fleet
  // queries, which shares no code with the kernel the batch runs.
  const ProportionalAlgorithm algo(5, 2);
  const Fleet fleet = algo.build_fleet(600);
  const std::vector<CrBatchJob> jobs = table1_style_jobs(fleet, 5);
  const std::vector<CrEvalResult> batched =
      measure_cr_batch(jobs, {.threads = 4});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const int f = jobs[i].f;
    const CrEvalResult scalar = detail::measure_cr_with(
        fleet, f, jobs[i].options,
        [&fleet, f](const Real x) { return fleet.detection_time(x, f); });
    EXPECT_TRUE(bit_identical(batched[i].cr, scalar.cr)) << i;
    EXPECT_TRUE(bit_identical(batched[i].argmax, scalar.argmax)) << i;
    EXPECT_TRUE(bit_identical(batched[i].cr_positive, scalar.cr_positive))
        << i;
    EXPECT_TRUE(bit_identical(batched[i].cr_negative, scalar.cr_negative))
        << i;
    EXPECT_EQ(batched[i].probes, scalar.probes) << i;
  }
}

TEST(MeasureCrBatch, FaultBudgetConvenienceOverload) {
  const ProportionalAlgorithm algo(3, 1);
  const Fleet fleet = algo.build_fleet(500);
  const std::vector<CrEvalResult> results =
      measure_cr_batch(fleet, {0, 1, 2}, {.window_hi = 16});
  ASSERT_EQ(results.size(), 3u);
  // More faults -> larger measured CR (order statistic grows with f).
  EXPECT_LE(results[0].cr, results[1].cr);
  EXPECT_LE(results[1].cr, results[2].cr);
}

TEST(MeasureCrBatch, RejectsNullFleet) {
  EXPECT_THROW((void)measure_cr_batch({CrBatchJob{}}), PreconditionError);
}

TEST(MeasureCrBatch, PropagatesUndetectedErrors) {
  // require_finite jobs throw through the parallel loop like the serial
  // path does.
  const ProportionalAlgorithm algo(3, 1);
  const Fleet fleet = algo.build_fleet(4);
  const std::vector<CrBatchJob> jobs{
      {&fleet, 1, {.window_hi = 4096, .require_finite = true}}};
  EXPECT_THROW((void)measure_cr_batch(jobs, {.threads = 4}), NumericError);
}

TEST(KProfileBatch, MatchesSerialKProfile) {
  const ProportionalAlgorithm algo(3, 1);
  const Fleet fleet = algo.build_fleet(400);
  std::vector<Real> positions;
  for (int i = 1; i <= 200; ++i) {
    positions.push_back(0.25L * static_cast<Real>(i) *
                        (i % 2 == 0 ? 1 : -1));
  }
  const std::vector<Real> serial = k_profile(fleet, 1, positions);
  const std::vector<Real> batched =
      k_profile_batch(fleet, 1, positions, {.threads = 8});
  ASSERT_EQ(serial.size(), batched.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(bit_identical(serial[i], batched[i])) << "position " << i;
  }
}

/// k_profile_batch at each thread count must reproduce serial k_profile
/// entry for entry, bitwise.
void expect_profile_matches_serial(const Fleet& fleet, const int f,
                                   const std::vector<Real>& positions) {
  const std::vector<Real> serial = k_profile(fleet, f, positions);
  for (const int threads : {1, 3, 8}) {
    const std::vector<Real> batched =
        k_profile_batch(fleet, f, positions, {.threads = threads});
    ASSERT_EQ(batched.size(), serial.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(bit_identical(serial[i], batched[i]))
          << "position " << i << " at " << threads << " threads";
    }
  }
}

TEST(KProfileBatch, InterleavedSignsKeepInputOrder) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(300);
  std::vector<Real> positions;
  for (int i = 1; i <= 97; ++i) {
    // Irregular sign pattern and non-monotone magnitudes, so the slot
    // map back to input order is really exercised.
    const Real magnitude = 1 + 0.37L * static_cast<Real>((i * 31) % 97);
    positions.push_back(i % 3 == 0 ? -magnitude : magnitude);
  }
  expect_profile_matches_serial(fleet, 2, positions);
}

TEST(KProfileBatch, ExactDuplicatePositions) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(200);
  const std::vector<Real> positions = {2.5L,  -4.0L, 2.5L, 7.0L, -4.0L,
                                       2.5L,  1.0L,  1.0L, -1.0L, 7.0L,
                                       -4.0L, 33.0L, 33.0L};
  expect_profile_matches_serial(fleet, 1, positions);
}

TEST(KProfileBatch, PositionsPastDenseExtentAreUndetected) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(16);
  const std::vector<Real> positions = {3.0L, -5.0L, 4096.0L, -4096.0L,
                                       1e6L, 2.0L};
  expect_profile_matches_serial(fleet, 1, positions);
  const std::vector<Real> batched =
      k_profile_batch(fleet, 1, positions, {.threads = 3});
  EXPECT_EQ(batched[2], kInfinity);
  EXPECT_EQ(batched[3], kInfinity);
  EXPECT_EQ(batched[4], kInfinity);
}

TEST(KProfileBatch, FaultBudgetAtLeastFleetSizeIsAllInfinite) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  const std::vector<Real> positions = {1.0L, -2.0L, 9.5L, -30.0L};
  for (const int f : {3, 4, 10}) {
    expect_profile_matches_serial(fleet, f, positions);
    for (const Real entry :
         k_profile_batch(fleet, f, positions, {.threads = 8})) {
      EXPECT_EQ(entry, kInfinity) << "f = " << f;
    }
  }
}

TEST(KProfileBatch, AnalyticUnboundedFleet) {
  const Fleet fleet = ProportionalAlgorithm(5, 3).build_unbounded_fleet();
  std::vector<Real> positions;
  for (Real x = 1; x < 5000; x *= 1.7L) {
    positions.push_back(x);
    positions.push_back(-x * 1.01L);
  }
  expect_profile_matches_serial(fleet, 3, positions);
}

TEST(KProfileBatch, FewerPositionsThanThreads) {
  const Fleet fleet = ProportionalAlgorithm(5, 2).build_fleet(100);
  expect_profile_matches_serial(fleet, 2, {-3.25L});
  expect_profile_matches_serial(fleet, 2, {6.0L, -1.5L});
}

TEST(KProfileBatch, RejectsZeroPositionAndNegativeFaultBudget) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  for (const int threads : {1, 3, 8}) {
    EXPECT_THROW(
        (void)k_profile_batch(fleet, 1, {1.0L, 0.0L}, {.threads = threads}),
        PreconditionError);
    EXPECT_THROW(
        (void)k_profile_batch(fleet, -1, {1.0L}, {.threads = threads}),
        PreconditionError);
  }
}

TEST(KProfileBatch, RejectsNaNPosition) {
  // The kernel sorts each slice by position, and NaN has no place in
  // that order, so it is refused up front.
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  for (const int threads : {1, 3, 8}) {
    EXPECT_THROW((void)k_profile_batch(fleet, 1, {2.0L, std::nanl("")},
                                       {.threads = threads}),
                 PreconditionError);
  }
}

TEST(KProfileBatch, ConcurrentCallersShareOneFleet) {
  // TSAN-facing stress test: 8 threads run pooled k_profile_batch calls
  // over one shared fleet and an overlapping position set (the kernel
  // sweeps only read the fleet).  Run under -fsanitize=thread in the CI
  // tsan job.
  const ProportionalAlgorithm algo(5, 3);
  const Fleet fleet = algo.build_fleet(500);

  std::vector<Real> positions;
  for (int i = 1; i <= 400; ++i) {
    positions.push_back(1 + 0.11L * static_cast<Real>(i % 97));
    positions.push_back(-(1 + 0.07L * static_cast<Real>(i % 89)));
  }

  std::vector<std::vector<Real>> per_thread(8);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    workers.emplace_back([&fleet, &positions, &per_thread, t] {
      per_thread[t] = k_profile_batch(fleet, 3, positions, {.threads = 2});
    });
  }
  for (std::thread& w : workers) w.join();

  const std::vector<Real> serial = k_profile(fleet, 3, positions);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (const std::vector<Real>& mine : per_thread) {
      ASSERT_TRUE(bit_identical(mine[i], serial[i])) << "position " << i;
    }
  }
}

TEST(MeasureCrBatch, EmptyJobListYieldsEmptyResults) {
  EXPECT_TRUE(measure_cr_batch({}).empty());
  EXPECT_TRUE(measure_cr_batch({}, {.threads = 8}).empty());
}

TEST(MeasureCrBatch, MoreThreadsThanJobsStaysBitIdentical) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  std::vector<CrBatchJob> jobs = {{&fleet, 0, {.window_hi = 16}},
                                  {&fleet, 1, {.window_hi = 16}}};
  const std::vector<CrEvalResult> serial =
      measure_cr_batch(jobs, {.threads = 1});
  for (const int threads : {4, 16, 64}) {
    const std::vector<CrEvalResult> parallel =
        measure_cr_batch(jobs, {.threads = threads});
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(bit_identical(parallel[i].cr, serial[i].cr));
      EXPECT_TRUE(bit_identical(parallel[i].argmax, serial[i].argmax));
      EXPECT_EQ(parallel[i].probes, serial[i].probes);
    }
  }
}

TEST(KProfileBatch, EmptyPositionsYieldEmptyProfile) {
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_fleet(64);
  EXPECT_TRUE(k_profile_batch(fleet, 1, {}).empty());
  EXPECT_TRUE(k_profile_batch(fleet, 1, {}, {.threads = 8}).empty());
}

}  // namespace
}  // namespace linesearch
