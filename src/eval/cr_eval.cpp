#include "eval/cr_eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "eval/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace linesearch {
namespace detail {

// Collect the probe magnitudes for one half-line.
std::vector<Real> probe_magnitudes(const Fleet& fleet, const int side,
                                   const CrEvalOptions& options) {
  // Windowed turning enumeration: exact on dense fleets (same filter the
  // scan used to apply itself) and the only finite query on unbounded
  // (analytic) fleets.  The slack band just below window_lo admits a
  // turning point whose RIGHT-LIMIT lands inside the window; the turn
  // itself (and any probe derived from it) is clamped below.
  std::vector<Real> turns = fleet.turning_positions_in(
      side, options.window_lo * (1 - tol::kRelative), options.window_hi);
  turns.push_back(options.window_lo);
  turns.push_back(options.window_hi);
  std::sort(turns.begin(), turns.end());
  turns.erase(std::unique(turns.begin(), turns.end(),
                          [](const Real a, const Real b) {
                            return approx_equal(a, b);
                          }),
              turns.end());

  // The Lemma-3 right-limits tau*(1+eps) for ALL turns, one fused
  // elementwise pass over the turn grid instead of a multiply inside the
  // emission loop.
  std::vector<Real> limits(turns.size());
  {
    const Real* tau = turns.data();
    Real* limit = limits.data();
    const std::size_t count = turns.size();
    LS_SIMD_LOOP
    for (std::size_t i = 0; i < count; ++i) {
      limit[i] = tau[i] * (1 + tol::kLimitProbe);
    }
  }

  // Every probe must stay inside [window_lo, window_hi]: turns from the
  // slack band (and interior samples toward them) would otherwise leak
  // probes strictly below window_lo, silently widening the measurement
  // window the caller asked for.
  const auto in_window = [&](const Real magnitude) {
    return magnitude >= options.window_lo && magnitude <= options.window_hi;
  };

  std::vector<Real> probes;
  probes.reserve(turns.size() *
                 (2 + static_cast<std::size_t>(
                          std::max(options.interior_samples, 0))));
  for (std::size_t i = 0; i < turns.size(); ++i) {
    // Right-limit just past the turning point (the jump of Lemma 3)...
    if (in_window(limits[i])) probes.push_back(limits[i]);
    // ...the point itself...
    if (in_window(turns[i])) probes.push_back(turns[i]);
    // ...and interior samples up to the next turning point.
    if (i + 1 < turns.size() && options.interior_samples > 0) {
      const Real lo = turns[i];
      const Real hi = turns[i + 1];
      const int k = options.interior_samples;
      for (int s = 1; s <= k; ++s) {
        const Real sample = lo + (hi - lo) * static_cast<Real>(s) /
                                     static_cast<Real>(k + 1);
        if (in_window(sample)) probes.push_back(sample);
      }
    }
  }

  // Exact-duplicate pass: tau*(1+eps) can collide bit-for-bit with a
  // window endpoint or an adjacent interior sample (e.g. when tau*(1+eps)
  // rounds to the endpoint value), and the turning-point grid itself may
  // carry the same magnitude from several robots.  Evaluating such a
  // probe twice double-counts it in `probes` and makes the reported count
  // depend on rounding accidents.  Keep the FIRST occurrence only —
  // order is preserved, so the argmax (first strict maximum) is
  // untouched.  Exact equality only: approx-equal probes (the point vs
  // its right-limit) are exactly the distinction the limit probes exist
  // to test.  A (value, index)-sorted permutation finds every duplicate
  // run in O(P log P); the first element of a run is the first
  // occurrence, so the kept set — and the output order — match the old
  // quadratic std::find scan exactly.
  const std::size_t count = probes.size();
  std::vector<std::uint32_t> by_value(count);
  std::iota(by_value.begin(), by_value.end(), 0U);
  std::sort(by_value.begin(), by_value.end(),
            [&](const std::uint32_t p, const std::uint32_t q) {
              if (probes[p] != probes[q]) return probes[p] < probes[q];
              return p < q;
            });
  std::vector<char> keep(count, 1);
  for (std::size_t i = 1; i < count; ++i) {
    if (probes[by_value[i]] == probes[by_value[i - 1]]) {
      keep[by_value[i]] = 0;
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (keep[i]) probes[kept++] = probes[i];
  }
  probes.resize(kept);
  return probes;
}

CrEvalResult measure_cr_with(const Fleet& fleet, const int f,
                             const CrEvalOptions& options,
                             const DetectionOracle& oracle) {
  expects(f >= 0, "measure_cr: f must be >= 0");
  expects(options.window_lo > 0, "measure_cr: window_lo must be positive");
  expects(options.window_hi > options.window_lo,
          "measure_cr: window_hi must exceed window_lo");
  LS_OBS_SPAN("eval.cr.scan");

  CrEvalResult result;
  Real pos_best_x = 0;
  Real neg_best_x = 0;
  // Counters are accumulated locally and recorded once per scan below:
  // per-probe relaxed adds are cheap but not free, and this loop is the
  // library's hottest (the sums are identical either way).
  std::uint64_t refinements = 0;
  for (const int side : {+1, -1}) {
    Real best = 0;
    Real best_x = 0;
    bool any_detected = false;
    Real first_undetected_x = 0;
    for (const Real magnitude : probe_magnitudes(fleet, side, options)) {
      const Real x = static_cast<Real>(side) * magnitude;
      const Real time = oracle(x);
      ++result.probes;
      if (std::isinf(time)) {
        if (options.require_finite) {
          throw NumericError(
              "measure_cr: undetected probe — fleet extent too small for "
              "the measurement window");
        }
        ++result.undetected_probes;
        if (first_undetected_x == 0) first_undetected_x = x;
        continue;
      }
      any_detected = true;
      const Real ratio = time / magnitude;
      if (ratio > best) {
        best = ratio;
        best_x = x;
        ++refinements;
      }
    }
    // A half-line where NO probe is ever detected has sup K = infinity
    // (the target there is simply never found); reporting 0 would be a
    // silently optimistic lie.
    if (!any_detected && first_undetected_x != 0) {
      best = kInfinity;
      best_x = first_undetected_x;
    }
    if (side > 0) {
      result.cr_positive = best;
      pos_best_x = best_x;
    } else {
      result.cr_negative = best;
      neg_best_x = best_x;
    }
  }
  // Overall worst case.  Tie-break is pinned: when both half-lines attain
  // the same supremum, the POSITIVE side's witness wins — independent of
  // the side evaluation order above.
  if (result.cr_negative > result.cr_positive) {
    result.cr = result.cr_negative;
    result.argmax = neg_best_x;
  } else {
    result.cr = result.cr_positive;
    result.argmax = pos_best_x;
  }
  LS_OBS_COUNT("eval.cr.probes", result.probes);
  LS_OBS_COUNT("eval.cr.undetected_probes", result.undetected_probes);
  LS_OBS_COUNT("eval.cr.supremum_refinements", refinements);
  LS_OBS_OBSERVE("eval.cr.probes_per_scan", result.probes,
                 {16, 64, 256, 1024, 4096});
  return result;
}

}  // namespace detail

CrEvalResult measure_cr(const Fleet& fleet, const int f,
                        const CrEvalOptions& options,
                        const kernels::AnchorProfile* profile) {
  // SoA fast path (eval/kernels): same probes, same scan, detection
  // times batched through one frontier sweep per robot.  The scalar
  // reference below it stays reachable through detail::measure_cr_with
  // with a direct oracle — the scalar-vs-SIMD differential holds the two
  // bit-identical.
  return kernels::measure_cr_kernel(fleet, f, options, profile);
}

std::vector<Real> k_profile(const Fleet& fleet, const int f,
                            const std::vector<Real>& positions) {
  expects(f >= 0, "k_profile: f must be >= 0");
  std::vector<Real> profile;
  profile.reserve(positions.size());
  for (const Real x : positions) {
    expects(x != 0, "k_profile: positions must be non-zero");
    profile.push_back(fleet.detection_time(x, f) / std::fabs(x));
  }
  return profile;
}

}  // namespace linesearch
