// tools/dense_grid.hpp — the dense A(7, 4) CR sweep, defined once for
// stats_main's `dense` workload and bench_perf's BM_DenseCrSweep*.
#pragma once

#include <vector>

#include "core/algorithm.hpp"
#include "eval/batch.hpp"
#include "sim/fleet.hpp"

namespace linesearch::tools {

/// The dense (materialized) A(7, 4) fleet the sweep measures.
inline Fleet dense_sweep_fleet() {
  return ProportionalAlgorithm(7, 4).build_fleet(2000);
}

/// Every fault budget of `fleet` crossed with three windows, 16 interior
/// samples each: the grid shape bench_fig5/analysis sweeps evaluate for
/// real.  The jobs point at `fleet`, which must outlive them.
inline std::vector<CrBatchJob> dense_cr_jobs(const Fleet& fleet) {
  std::vector<CrBatchJob> jobs;
  for (int f = 0; f < static_cast<int>(fleet.size()); ++f) {
    for (const Real window : {12.0L, 24.0L, 48.0L}) {
      jobs.push_back(
          {&fleet, f, {.window_hi = window, .interior_samples = 16}});
    }
  }
  return jobs;
}

}  // namespace linesearch::tools
