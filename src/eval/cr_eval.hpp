// eval/cr_eval.hpp — empirical competitive-ratio measurement.
//
// For an arbitrary fleet with fault budget f, the competitive ratio is
// sup over |x| >= 1 of K(x) = T_{f+1}(x)/|x|.  By Lemma 3, K is
// decreasing between turning points and jumps UP just after each turning
// point, so the supremum is approached as a right-limit at turning-point
// magnitudes.  The evaluator therefore probes, on each half-line:
//   * tau * (1 + eps) just past every turning-point magnitude tau inside
//     the window (the discontinuity right-limits),
//   * the window endpoints, and
//   * a few interior samples per inter-turn interval (safety net for
//     non-zig-zag fleets whose K need not obey Lemma 3).
// All probes use the fleet's exact detection_time; the only approximation
// is the eps offset (relative 1e-9).
//
// measure_cr runs the scan on the SoA kernels (eval/kernels), which
// evaluate a piece's interior samples only when a speed bound anchored
// at the piece's upper turn cannot prove them below the running
// supremum — so the safety net costs almost nothing where Lemma 3
// holds, and still catches every sample that could matter where it
// does not.  The result (probe count included) is the full scan's.
// The scalar scan stays as detail::measure_cr_with, parameterized over
// the detection oracle: driven by direct Fleet::detection_time queries
// it evaluates every probe and is the reference the kernel must match
// bit for bit.  The batch engine
// (eval/batch.hpp) is a parallel_map over measure_cr.
#pragma once

#include <functional>
#include <vector>

#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch {

namespace kernels {
class AnchorProfile;
}  // namespace kernels

/// Options for measure_cr.
struct CrEvalOptions {
  Real window_lo = 1;   ///< smallest target magnitude (the paper fixes 1)
  Real window_hi = 64;  ///< largest target magnitude probed
  int interior_samples = 4;  ///< extra probes per inter-turn interval
  bool require_finite = true; ///< throw if any probe is undetected
};

/// Result of an empirical CR measurement.
struct CrEvalResult {
  Real cr = 0;        ///< max of K over all probes
  Real argmax = 0;    ///< signed probe position attaining it
  int probes = 0;     ///< number of evaluated placements
  Real cr_positive = 0;  ///< supremum restricted to x > 0
  Real cr_negative = 0;  ///< supremum restricted to x < 0
  /// Probes whose detection never happens (only reachable with
  /// require_finite == false).  A half-line whose EVERY probe is
  /// undetected reports its side supremum — and hence cr — as kInfinity
  /// rather than silently pretending the side costs nothing.
  int undetected_probes = 0;
};

/// Measure sup K(x) over window_lo <= |x| <= window_hi.
/// The fleet must have been built to an extent comfortably beyond
/// window_hi (enough that T_{f+1} is realized inside the horizon); with
/// require_finite the evaluator throws NumericError if it ever sees an
/// undetected probe, which is the symptom of an under-built fleet.
/// An optional anchor profile of (fleet, f) supplies cached turn
/// detection times (eval/kernels); the result is bitwise the same.
[[nodiscard]] CrEvalResult measure_cr(
    const Fleet& fleet, int f, const CrEvalOptions& options = {},
    const kernels::AnchorProfile* profile = nullptr);

/// The profile K(x) sampled at explicit positions (for Figure-4-style
/// plots); entries are detection_time(x, f)/|x|.
[[nodiscard]] std::vector<Real> k_profile(const Fleet& fleet, int f,
                                          const std::vector<Real>& positions);

namespace detail {

/// Detection-time oracle: must agree bit-for-bit with
/// Fleet::detection_time(x, f) of the fleet being measured.
using DetectionOracle = std::function<Real(Real x)>;

/// The probe magnitudes measure_cr evaluates on one half-line (exposed
/// for the kernels and tests).
[[nodiscard]] std::vector<Real> probe_magnitudes(const Fleet& fleet,
                                                 int side,
                                                 const CrEvalOptions& options);

/// The probe scan behind measure_cr, parameterized over the oracle.
[[nodiscard]] CrEvalResult measure_cr_with(const Fleet& fleet, int f,
                                           const CrEvalOptions& options,
                                           const DetectionOracle& oracle);

}  // namespace detail

}  // namespace linesearch
