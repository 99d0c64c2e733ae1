// eval/kernels.hpp — structure-of-arrays kernels behind measure_cr.
//
// The scalar probe scan (eval/cr_eval detail::measure_cr_with) asks the
// fleet one detection time per probe; every such query allocates a times
// vector, walks every robot's segment list from the start, and goes
// through a std::function oracle.  The kernels here restructure the same
// computation as three flat passes over parallel arrays:
//
//   1. ProbeBatch — probe classification fused into one emission pass
//      (magnitudes and side tags in parallel arrays, both half-lines,
//      scan order);
//   2. VisitColumns — per-robot first-visit rows at the position-sorted
//      probes (both half-lines in one sorted array), each filled by ONE
//      frontier sweep (ScheduleSource::first_visit_times_into) into a
//      reused row and streamed straight into the per-probe (f+1)-st
//      order statistic — a bounded-buffer selection over the cheaper
//      side of the statistic, never materializing the visit matrix;
//   3. the unchanged supremum scan over the precomputed columns.
//
// Bit-identity contract: measure_cr_kernel(fleet, f, options) equals
// detail::measure_cr_with with the direct Fleet::detection_time oracle
// on EVERY result field, bitwise, in both the SIMD and the scalar
// fallback build (util/simd.hpp).  The contract is enforced by the
// scalar-vs-SIMD differential engine (verify/differential) and the
// kernel test suite; the speed comes from eliminating per-probe heap
// allocation and per-probe segment walks, with LS_SIMD_LOOP annotating
// the elementwise passes.
#pragma once

#include <cstdint>
#include <vector>

#include "eval/cr_eval.hpp"
#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch::kernels {

/// SoA probe layout: parallel arrays over BOTH half-lines, side +1
/// first.  For a CR scan the order is the scalar scan's emission order
/// and magnitudes are window-clamped and exact-deduplicated per side;
/// an explicit position batch may repeat magnitudes.
struct ProbeBatch {
  std::vector<Real> magnitudes;    ///< |x| per probe, emission order
  std::vector<std::int8_t> sides;  ///< +1 / -1, parallel to magnitudes
  std::size_t positive_count = 0;  ///< probes [0, positive_count) are side +1

  [[nodiscard]] std::size_t size() const noexcept { return magnitudes.size(); }
};

/// Fused probe emission for both half-lines (one
/// detail::probe_magnitudes pass per side, concatenated with side tags).
[[nodiscard]] ProbeBatch build_probe_batch(const Fleet& fleet,
                                           const CrEvalOptions& options);

/// Probe batch over explicit non-zero signed positions (the k_profile
/// shape): positive positions first, then negative, each side in input
/// order.  `slots` receives the input index of every probe, so entry j
/// of the batch answers positions[slots[j]].
[[nodiscard]] ProbeBatch build_position_batch(
    const Real* positions, std::size_t count,
    std::vector<std::uint32_t>& slots);

/// SoA visit-time columns for a probe batch.  `detection` is the result
/// (parallel to the batch arrays, emission order); the remaining members
/// are reusable working storage so a sweep amortizes its allocations.
struct VisitColumns {
  std::vector<Real> detection;  ///< T_{f+1} per probe, emission order

  std::vector<std::uint32_t> order;  ///< slice permutation, position-sorted
  std::vector<Real> sorted_x;        ///< signed positions, ascending
  std::vector<Real> first_visits;    ///< one robot's visit row, reused
  std::vector<Real> selection;       ///< per-probe order-statistic scratch
};

/// Fill columns.detection with the worst-case detection time of every
/// probe in `batch`: bit-identical to Fleet::detection_time(side *
/// magnitude, f) per probe, computed with ONE frontier sweep per robot
/// covering both half-lines of the position-sorted batch, streamed
/// through a bounded-buffer order-statistic selection.
void fill_visit_columns(const Fleet& fleet, int f, const ProbeBatch& batch,
                        VisitColumns& columns);

/// The SoA fast path behind measure_cr: identical contract, identical
/// result fields (bitwise), identical obs counters.
[[nodiscard]] CrEvalResult measure_cr_kernel(const Fleet& fleet, int f,
                                             const CrEvalOptions& options);

/// True when the kernels were compiled with `#pragma omp simd`
/// (LINESEARCH_SIMD=ON); false in the scalar fallback build.
[[nodiscard]] bool simd_compiled() noexcept;

}  // namespace linesearch::kernels
