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
// An AnchorProfile caches the turns of one (fleet, f) pair and their
// detection times; a scan given one fills only the anchors it does not
// hold (window ends, their right-limits, uncountable samples, turns past
// its extent).  The query service keeps one per shared backend and
// budget.
//
// Bit-identity contract: measure_cr_kernel(fleet, f, options), with or
// without a profile, equals detail::measure_cr_with with the direct
// Fleet::detection_time oracle on EVERY result field, bitwise, in both
// the SIMD and the scalar
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

/// The turning points of one (fleet, fault budget) pair and their
/// detection times, cached for every scan of that pair.  By Lemma 3 a
/// CR scan is anchored at the turns and their right-limits
/// tau*(1+1e-9); both depend on the fleet and the budget alone, not on
/// the scan's window.  For each side the profile holds every raw turn
/// magnitude up to its extent, in the order turning_positions_in(side,
/// 0, extent) returns them (ascending, duplicates across robots kept),
/// with T_{budget+1} at the turn and at its right-limit, as one
/// fill_visit_columns call computed them.
///
/// A profile is immutable.  grown() copies it and fills only the turns
/// past the old extent, so a caller walking windows upward pays for
/// each turn once.  A side stops growing at kMaxTurnsPerSide turns; its
/// extent then stays at the last turn it holds, and scans past it
/// enumerate and fill the rest as they would without a profile.
/// A profile must only be passed to scans of the fleet it was built from.
class AnchorProfile {
 public:
  /// One cached turn: 48 bytes.
  struct Turn {
    Real magnitude = 0;   ///< raw turn magnitude tau
    Real time = 0;        ///< T_{budget+1} at side * tau
    Real limit_time = 0;  ///< T_{budget+1} at side * tau*(1+kLimitProbe)
  };

  /// Turns one side may hold, so a profile holds at most 96 KiB, and a
  /// service registry of 256 backends at two budgets at most 48 MiB.
  /// A(12, 11), the densest regime pair with n <= 12, has about 100
  /// turns a side out to 2^16.
  static constexpr std::size_t kMaxTurnsPerSide = 1024;

  /// One half-line's cached turns.
  struct Side {
    std::vector<Turn> turns;  ///< ascending magnitude
    Real extent = 0;      ///< every turn of magnitude <= extent is held
    bool capped = false;  ///< reached kMaxTurnsPerSide; extent is final
  };

  /// An empty profile (extent 0) for scans at fault budget `budget`.
  explicit AnchorProfile(int budget);

  /// A copy that also holds every turn up to the finite `extent` on both
  /// sides (up to the cap): one fill over the new turns only.  An extent
  /// at or below the current one returns an equal copy.
  [[nodiscard]] AnchorProfile grown(const Fleet& fleet, Real extent) const;

  /// grown(fleet, extent) whose one fill also computes T_{budget+1} at
  /// the `extra` probes: extra_times receives them in batch order.  A
  /// caller that needs both the new turns and a few other probes sweeps
  /// each robot once.
  [[nodiscard]] AnchorProfile grown(const Fleet& fleet, Real extent,
                                    const ProbeBatch& extra,
                                    std::vector<Real>& extra_times) const;

  [[nodiscard]] int budget() const noexcept { return budget_; }
  /// The largest extent the profile was grown to.
  [[nodiscard]] Real extent() const noexcept { return extent_; }
  [[nodiscard]] const Side& side(int side) const noexcept {
    return side > 0 ? positive_ : negative_;
  }
  /// True when growing to `magnitude` would add nothing: each side
  /// holds every turn up to it, or is capped.
  [[nodiscard]] bool reaches(Real magnitude) const noexcept;

 private:
  int budget_ = 0;
  Real extent_ = 0;
  Side positive_;
  Side negative_;
};

/// Probe times filled ahead of a scan, matched by side and exact
/// magnitude: a growing miss fills its window ends together with the
/// profile's new turns (AnchorProfile::grown with extra probes), so its
/// scan needs no fill of its own.
struct KnownProbes {
  ProbeBatch probes;
  std::vector<Real> times;  ///< parallel to probes
};

/// The anchors of a scan over [window_lo, window_hi] that no turn
/// covers: per side, window_lo, its right-limit and window_hi.
[[nodiscard]] ProbeBatch window_end_probes(Real window_lo, Real window_hi);

/// The SoA fast path behind measure_cr: identical contract, result
/// fields (bitwise) and eval.cr.* counters as the scalar scan, which
/// records no eval.cr.probes_evaluated (the probes whose detection time
/// the kernel actually computed).
///
/// With a profile (built from `fleet` at budget f), pass 1 takes the
/// window's turns from the profile instead of turning_positions_in, and
/// every anchor whose magnitude bit-equals a cached turn or right-limit
/// takes the cached time; one fill covers the rest (window ends and
/// their right-limits, uncountable samples, turns past the extent).
/// The result is bitwise the profile-free one, since a detection time
/// depends on the signed position alone; eval.cr.probes_evaluated then
/// counts only the filled probes.  Anchors among `known` (profile path
/// only) take its times instead of a fill.
[[nodiscard]] CrEvalResult measure_cr_kernel(
    const Fleet& fleet, int f, const CrEvalOptions& options,
    const AnchorProfile* profile = nullptr,
    const KnownProbes* known = nullptr);

/// True when the kernels were compiled with `#pragma omp simd`
/// (LINESEARCH_SIMD=ON); false in the scalar fallback build.
[[nodiscard]] bool simd_compiled() noexcept;

}  // namespace linesearch::kernels
