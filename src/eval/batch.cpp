#include "eval/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "eval/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace linesearch {

std::vector<CrEvalResult> measure_cr_batch(const std::vector<CrBatchJob>& jobs,
                                           const BatchOptions& batch) {
  for (const CrBatchJob& job : jobs) {
    expects(job.fleet != nullptr, "measure_cr_batch: null fleet in job");
  }
  LS_OBS_SPAN("eval.batch.run");
  LS_OBS_COUNT("eval.batch.jobs", jobs.size());
  return parallel_map(
      jobs.size(),
      [&jobs](const std::size_t i) {
        const CrBatchJob& job = jobs[i];
        return measure_cr(*job.fleet, job.f, job.options);
      },
      batch.threads);
}

std::vector<CrEvalResult> measure_cr_batch(const Fleet& fleet,
                                           const std::vector<int>& fault_budgets,
                                           const CrEvalOptions& options,
                                           const BatchOptions& batch) {
  std::vector<CrBatchJob> jobs;
  jobs.reserve(fault_budgets.size());
  for (const int f : fault_budgets) {
    jobs.push_back({&fleet, f, options});
  }
  return measure_cr_batch(jobs, batch);
}

std::vector<Real> k_profile_batch(const Fleet& fleet, const int f,
                                  const std::vector<Real>& positions,
                                  const BatchOptions& batch) {
  expects(f >= 0, "k_profile_batch: f must be >= 0");
  for (const Real x : positions) {
    expects(x != 0, "k_profile_batch: positions must be non-zero");
    // The kernel sorts positions; NaN has no place in that order.
    expects(!std::isnan(x), "k_profile_batch: positions must not be NaN");
  }
  std::vector<Real> profile(positions.size());
  const std::size_t slices = std::min(
      static_cast<std::size_t>(resolve_thread_count(batch.threads)),
      positions.size());
  parallel_for(
      slices,
      [&](const std::size_t s) {
        const std::size_t begin = s * positions.size() / slices;
        const std::size_t end = (s + 1) * positions.size() / slices;
        std::vector<std::uint32_t> slots;
        const kernels::ProbeBatch probes = kernels::build_position_batch(
            positions.data() + begin, end - begin, slots);
        kernels::VisitColumns columns;
        kernels::fill_visit_columns(fleet, f, probes, columns);
        for (std::size_t j = 0; j < probes.size(); ++j) {
          // The division k_profile does: detection_time(x, f) / |x|.
          profile[begin + slots[j]] =
              columns.detection[j] / probes.magnitudes[j];
        }
      },
      static_cast<int>(slices));
  return profile;
}

}  // namespace linesearch
