#include "eval/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace linesearch::kernels {

bool simd_compiled() noexcept { return kSimdCompiled; }

ProbeBatch build_probe_batch(const Fleet& fleet,
                             const CrEvalOptions& options) {
  ProbeBatch batch;
  for (const int side : {+1, -1}) {
    const std::vector<Real> magnitudes =
        detail::probe_magnitudes(fleet, side, options);
    if (side > 0) batch.positive_count = magnitudes.size();
    batch.magnitudes.insert(batch.magnitudes.end(), magnitudes.begin(),
                            magnitudes.end());
    batch.sides.insert(batch.sides.end(), magnitudes.size(),
                       static_cast<std::int8_t>(side));
  }
  return batch;
}

ProbeBatch build_position_batch(const Real* positions,
                                const std::size_t count,
                                std::vector<std::uint32_t>& slots) {
  ProbeBatch batch;
  batch.magnitudes.reserve(count);
  batch.sides.reserve(count);
  slots.clear();
  slots.reserve(count);
  for (const int side : {+1, -1}) {
    for (std::size_t i = 0; i < count; ++i) {
      if ((positions[i] > 0) != (side > 0)) continue;
      batch.magnitudes.push_back(std::fabs(positions[i]));
      batch.sides.push_back(static_cast<std::int8_t>(side));
      slots.push_back(static_cast<std::uint32_t>(i));
    }
    if (side > 0) batch.positive_count = batch.size();
  }
  return batch;
}

void fill_visit_columns(const Fleet& fleet, const int f,
                        const ProbeBatch& batch, VisitColumns& columns) {
  expects(f >= 0, "fill_visit_columns: f must be >= 0");
  const std::size_t robots = fleet.size();
  const std::size_t total = batch.size();
  columns.detection.assign(total, kInfinity);
  const auto k = static_cast<std::size_t>(f);
  // Mirrors Fleet::detection_time: with fewer than f+1 robots every
  // probe stays undetected.
  if (k >= robots || total == 0) return;

  // Position-sorted permutation over the WHOLE batch.  Each side is
  // sorted by magnitude separately (the emission order is nearly
  // sorted, which std::sort digests well; sorting the concatenated
  // signed positions directly would hand introsort an organ-pipe input
  // that degenerates to heapsort), then the negative side is reversed
  // into place: descending magnitude = ascending signed position.
  // Magnitudes are positive; ties (repeated positions in an explicit
  // position batch) may land in either order, which is harmless: tied
  // probes share one signed position and hence one detection time.
  const Real* magnitudes = batch.magnitudes.data();
  const std::int8_t* sides = batch.sides.data();
  const std::size_t positives = batch.positive_count;
  columns.order.resize(total);
  std::uint32_t* order = columns.order.data();
  std::iota(order, order + total, 0U);
  const auto by_magnitude = [magnitudes](const std::uint32_t p,
                                         const std::uint32_t q) {
    return magnitudes[p] < magnitudes[q];
  };
  // iota seeded batch order, so positive-probe indices occupy
  // order[0, positives) and negative-probe indices the rest.
  std::sort(order, order + positives, by_magnitude);
  std::sort(order + positives, order + total, by_magnitude);
  std::reverse(order + positives, order + total);
  // Negatives come first on the signed line; rotate them to the front.
  std::rotate(order, order + positives, order + total);
  columns.sorted_x.resize(total);
  for (std::size_t p = 0; p < total; ++p) {
    // Same product the scalar scan feeds its oracle.
    const std::uint32_t i = order[p];
    columns.sorted_x[p] = static_cast<Real>(sides[i]) * magnitudes[i];
  }

  // Per-probe (f+1)-st order statistic, streamed: ONE frontier sweep
  // per robot answers both half-lines at once (the sweep's coverage
  // interval grows both ways from the start, walking the segment list a
  // single time with early exit) into a single reused row, and the row
  // is folded into the selection scratch before the next robot sweeps.
  // The robots x probes visit matrix is never materialized.
  //
  // The selection keeps a sorted scratch of each probe's
  // min(k + 1, robots - k) extreme values — whichever side of the order
  // statistic is cheaper — and reads the answer off its edge.  Like
  // nth_element, this returns the k-th smallest VALUE of the probe's
  // multiset with no arithmetic on the times, so any exact selection
  // algorithm (this one, nth_element, analysis/stats kth_smallest) is
  // bit-identical.
  const bool from_below = k + 1 <= robots - k;
  const std::size_t limit = from_below ? k + 1 : robots - k;
  columns.first_visits.resize(total);
  columns.selection.resize(limit * total);
  Real* row = columns.first_visits.data();
  Real* scratch = columns.selection.data();
  // Row r's fill level is uniformly min(r, limit) across every probe's
  // scratch (the contiguous `limit` entries at p * limit) — no
  // per-probe counters.
  for (std::size_t r = 0; r < robots; ++r) {
    fleet.robot(r).first_visit_times_into(columns.sorted_x.data(), total, row);
    const std::size_t filled = r < limit ? r : limit;
    if (from_below) {
      // scratch = the `limit` smallest seen, ascending; answer is the
      // last entry (rank k).
      for (std::size_t p = 0; p < total; ++p) {
        Real* s = scratch + p * limit;
        const Real time = row[p];
        std::size_t at;
        if (filled < limit) {
          at = filled;
        } else if (time < s[limit - 1]) {
          at = limit - 1;
        } else {
          continue;
        }
        while (at > 0 && s[at - 1] > time) {
          s[at] = s[at - 1];
          --at;
        }
        s[at] = time;
      }
    } else {
      // scratch = the `limit` largest seen, ascending; the first entry
      // has rank robots - limit = k.
      for (std::size_t p = 0; p < total; ++p) {
        Real* s = scratch + p * limit;
        const Real time = row[p];
        std::size_t at;
        if (filled < limit) {
          at = filled;
          while (at > 0 && s[at - 1] > time) {
            s[at] = s[at - 1];
            --at;
          }
        } else if (time > s[0]) {
          at = 0;
          while (at + 1 < limit && s[at + 1] < time) {
            s[at] = s[at + 1];
            ++at;
          }
        } else {
          continue;
        }
        s[at] = time;
      }
    }
  }
  const std::size_t answer_at = from_below ? limit - 1 : 0;
  for (std::size_t p = 0; p < total; ++p) {
    columns.detection[columns.order[p]] = scratch[p * limit + answer_at];
  }
}

CrEvalResult measure_cr_kernel(const Fleet& fleet, const int f,
                               const CrEvalOptions& options) {
  // Same preconditions, span, counters and scan semantics as
  // detail::measure_cr_with — only the detection times are precomputed
  // in bulk instead of queried one probe at a time.
  expects(f >= 0, "measure_cr: f must be >= 0");
  expects(options.window_lo > 0, "measure_cr: window_lo must be positive");
  expects(options.window_hi > options.window_lo,
          "measure_cr: window_hi must exceed window_lo");
  LS_OBS_SPAN("eval.cr.scan");

  const ProbeBatch batch = build_probe_batch(fleet, options);
  // Reused across calls on each thread so the robots x probes matrix is
  // allocated once per thread, not once per scan.  Results are written
  // before they are read each call, so reuse cannot leak state.
  static thread_local VisitColumns columns;
  fill_visit_columns(fleet, f, batch, columns);

  CrEvalResult result;
  Real pos_best_x = 0;
  Real neg_best_x = 0;
  std::uint64_t refinements = 0;
  for (const int side : {+1, -1}) {
    const std::size_t begin = side > 0 ? 0 : batch.positive_count;
    const std::size_t end = side > 0 ? batch.positive_count : batch.size();
    Real best = 0;
    Real best_x = 0;
    bool any_detected = false;
    Real first_undetected_x = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Real magnitude = batch.magnitudes[i];
      const Real x = static_cast<Real>(side) * magnitude;
      const Real time = columns.detection[i];
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

}  // namespace linesearch::kernels
