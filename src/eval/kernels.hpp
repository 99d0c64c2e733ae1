// eval/kernels.hpp — structure-of-arrays kernels behind measure_cr.
//
// The scalar probe scan (eval/cr_eval detail::measure_cr_with) asks the
// fleet one detection time per probe; every such query allocates a times
// vector, walks every robot's segment list from the start, and goes
// through a std::function oracle.  The kernels here restructure the same
// computation as flat passes over parallel arrays:
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
// measure_cr_kernel runs steps 1-2 in two passes and evaluates only the
// interior samples that can move the supremum:
//
//   * pass 1 emits each side's anchors — window ends, turning points,
//     right-limits tau*(1+1e-9) — and gives every inter-turn piece
//     (lo, hi] its k interior samples as a counted run {lo, hi, k, s_1},
//     without building them, whenever the samples are provably unique
//     (s_1 above every probe emitted so far, the last sample below hi,
//     all in window, spacing > 1e-15*hi); other pieces are built and
//     deduplicated exactly as detail::probe_magnitudes does.  One fill
//     evaluates the anchors, hi included (a run's hi is always the next
//     turn's own anchor);
//   * pass 2 builds and fills, in one more call, only the runs the bound
//     below cannot rule out; a pruned sample counts toward `probes` as
//     detected.  The scan then walks anchors and runs in emission order.
//
// The bound.  For magnitudes m1 < m2 on one side, with m1 at least a
// robot's start magnitude on that side, the robot must pass m1 before
// m2, so T(m2) >= T(m1) + (m2 - m1)/v_max (v_max = the largest
// max_speed()); T(m) - m/v_max is nondecreasing, and so is its (f+1)-st
// order statistic.  Every sample x of a run with lo >= every start
// therefore has T(x)/x <= g(x) = (T(hi) - (hi - x)/v_max)/x, which is
// monotone in x and so at most max(g(s_1), g(hi)).  The run is pruned
// only when T(hi) is finite and that bound, padded by a 1e-12 relative
// slack (far above the few-ulp long-double error of either side), is
// below the running supremum of the anchors emitted before it: its
// samples can then neither raise nor tie the supremum, so cr, argmax,
// the side suprema and every counter except eval.cr.probes_evaluated
// are the same as a full scan's.  Lemma 3 says K jumps only at turning
// points, which is why nearly every run is pruned on a zig-zag fleet;
// the bound itself needs no such structure.
//
// Bit-identity contract: measure_cr_kernel(fleet, f, options) equals
// detail::measure_cr_with with the direct Fleet::detection_time oracle
// on EVERY result field, bitwise, in both the SIMD and the scalar
// fallback build (util/simd.hpp).  The contract is enforced by the
// scalar-vs-SIMD differential engine (verify/differential) and the
// kernel test suite; the speed comes from eliminating per-probe heap
// allocation and per-probe segment walks, with LS_SIMD_LOOP annotating
// the elementwise passes, and from the prune pass.
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

/// The SoA fast path behind measure_cr: identical contract, result
/// fields (bitwise) and eval.cr.* counters as the scalar scan, which
/// records no eval.cr.probes_evaluated (the probes whose detection time
/// the kernel actually computed).
[[nodiscard]] CrEvalResult measure_cr_kernel(const Fleet& fleet, int f,
                                             const CrEvalOptions& options);

/// True when the kernels were compiled with `#pragma omp simd`
/// (LINESEARCH_SIMD=ON); false in the scalar fallback build.
[[nodiscard]] bool simd_compiled() noexcept;

}  // namespace linesearch::kernels
