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

AnchorProfile::AnchorProfile(const int budget) : budget_(budget) {
  expects(budget >= 0, "AnchorProfile: budget must be >= 0");
}

bool AnchorProfile::reaches(const Real magnitude) const noexcept {
  return (positive_.capped || positive_.extent >= magnitude) &&
         (negative_.capped || negative_.extent >= magnitude);
}

AnchorProfile AnchorProfile::grown(const Fleet& fleet,
                                   const Real extent) const {
  static thread_local std::vector<Real> no_times;
  return grown(fleet, extent, ProbeBatch{}, no_times);
}

AnchorProfile AnchorProfile::grown(const Fleet& fleet, const Real extent,
                                   const ProbeBatch& extra,
                                   std::vector<Real>& extra_times) const {
  // An infinite extent would never end an unbounded fleet's turn walk.
  expects(std::isfinite(extent), "AnchorProfile: extent must be finite");
  AnchorProfile next = *this;
  next.extent_ = std::max(extent_, extent);
  // The new turns of both sides and the extra probes in one batch: per
  // side, the turns, then their right-limits, then the side's extras.
  static thread_local ProbeBatch batch;
  static thread_local VisitColumns columns;
  batch.magnitudes.clear();
  batch.sides.clear();
  batch.positive_count = 0;
  std::size_t added[2] = {0, 0};  // [side > 0]
  std::size_t extra_begin[2] = {0, 0};  // [side > 0]: batch slot
  for (const int side : {+1, -1}) {
    const auto side_extras = [&](const std::size_t at) {
      extra_begin[side > 0] = at;
      const std::size_t lo = side > 0 ? 0 : extra.positive_count;
      const std::size_t hi = side > 0 ? extra.positive_count : extra.size();
      batch.magnitudes.insert(batch.magnitudes.end(),
                              extra.magnitudes.begin() + lo,
                              extra.magnitudes.begin() + hi);
      batch.sides.insert(batch.sides.end(), hi - lo,
                         static_cast<std::int8_t>(side));
      if (side > 0) batch.positive_count = batch.size();
    };
    Side& held = side > 0 ? next.positive_ : next.negative_;
    if (held.capped || extent <= held.extent) {
      side_extras(batch.size());
      continue;
    }
    std::vector<Real> fresh =
        fleet.turning_positions_in(side, held.extent, extent);
    // Magnitudes at or below the old extent are already held.
    fresh.erase(fresh.begin(), std::upper_bound(fresh.begin(), fresh.end(),
                                                held.extent));
    const std::size_t room = kMaxTurnsPerSide - held.turns.size();
    if (fresh.size() > room) {
      // Cut below the first turn that does not fit, and below every
      // copy of it, so the side still holds every turn up to its extent.
      const Real first_left_out = fresh[room];
      fresh.resize(room);
      while (!fresh.empty() && fresh.back() == first_left_out) {
        fresh.pop_back();
      }
      held.capped = true;
      if (!fresh.empty()) held.extent = fresh.back();
    } else {
      held.extent = extent;
    }
    added[side > 0] = fresh.size();
    batch.magnitudes.insert(batch.magnitudes.end(), fresh.begin(),
                            fresh.end());
    for (const Real turn : fresh) {
      batch.magnitudes.push_back(turn * (1 + tol::kLimitProbe));
    }
    batch.sides.insert(batch.sides.end(), 2 * fresh.size(),
                       static_cast<std::int8_t>(side));
    side_extras(batch.size());
  }
  extra_times.clear();
  if (batch.size() == 0) return next;
  fill_visit_columns(fleet, budget_, batch, columns);
  const Real* times = columns.detection.data();
  for (const int side : {+1, -1}) {
    const std::size_t count = added[side > 0];
    const std::size_t begin = extra_begin[side > 0];
    const Real* magnitudes = batch.magnitudes.data() + begin - 2 * count;
    const Real* turn_times = times + begin - 2 * count;
    std::vector<Turn>& turns = (side > 0 ? next.positive_ : next.negative_)
                                   .turns;
    turns.reserve(turns.size() + count);
    for (std::size_t i = 0; i < count; ++i) {
      turns.push_back({.magnitude = magnitudes[i],
                       .time = turn_times[i],
                       .limit_time = turn_times[count + i]});
    }
    const std::size_t extras =
        side > 0 ? extra.positive_count : extra.size() - extra.positive_count;
    extra_times.insert(extra_times.end(), times + begin,
                       times + begin + extras);
  }
  return next;
}

namespace {

/// Slack of the prune bound, relative to the magnitudes the bound is
/// built from: far above the few-ulp long-double error of the detection
/// times and of the bound's own arithmetic, far below any gap a real
/// supremum has over a sample it dominates.
constexpr Real kPruneSlack = 1e-12L;

/// No pass-1 slot / no pass-2 samples.
constexpr std::uint32_t kNoSlot = UINT32_MAX;

/// Interior sample s of k on (lo, hi): the expression
/// detail::probe_magnitudes emits, character for character.
Real interior_sample(const Real lo, const Real hi, const int s, const int k) {
  return lo + (hi - lo) * static_cast<Real>(s) / static_cast<Real>(k + 1);
}

/// One inter-turn piece (lo, hi] whose k interior samples are provably
/// distinct from every other probe of its side, in window and strictly
/// increasing — so the scan's dedup cannot touch them and they are kept
/// as a count instead of built.
struct SampleRun {
  Real lo = 0;
  Real hi = 0;
  Real first = 0;                 ///< the smallest sample, s_1
  int count = 0;                  ///< k
  std::uint32_t after = 0;        ///< anchor slots emitted before the run
  std::uint32_t hi_slot = kNoSlot;  ///< anchor slot of hi's own probe
  std::uint32_t begin = kNoSlot;  ///< first sample's pass-2 slot; kNoSlot
                                  ///< while pruned
};

/// Reused per-thread working set of one scan.
struct ScanScratch {
  ProbeBatch anchors;  ///< pass 1: explicit probes, deduped, emission order
  ProbeBatch samples;  ///< pass 2: samples of the runs the bound keeps
  std::vector<SampleRun> runs;  ///< both sides, emission order
  VisitColumns anchor_columns;
  VisitColumns sample_columns;
  std::vector<std::uint32_t> by_value;
  std::vector<std::uint32_t> slot_of;
  // Profile path only.
  std::vector<Real> turns;         ///< one side's window turns
  std::vector<Real> anchor_times;  ///< per anchor; NaN until known
  ProbeBatch unknown;              ///< the anchors no cached time covers
  std::vector<std::uint32_t> unknown_slots;  ///< their anchor slots
};

/// The window's turns on one side, as turning_positions_in(side, lo,
/// hi) returns them: the profile's slice, plus the fleet's own
/// enumeration past the profile's extent.  Returns the slice's first
/// cached turn.
const AnchorProfile::Turn* profile_turns(const Fleet& fleet,
                                         const AnchorProfile::Side& held,
                                         const int side, const Real lo,
                                         const Real hi,
                                         std::vector<Real>& turns) {
  const auto below = [](const AnchorProfile::Turn& turn, const Real m) {
    return turn.magnitude < m;
  };
  const auto above = [](const Real m, const AnchorProfile::Turn& turn) {
    return m < turn.magnitude;
  };
  const auto begin =
      std::lower_bound(held.turns.begin(), held.turns.end(), lo, below);
  const auto end = hi < held.extent
                       ? std::upper_bound(begin, held.turns.end(), hi, above)
                       : held.turns.end();
  turns.clear();
  for (auto turn = begin; turn != end; ++turn) {
    turns.push_back(turn->magnitude);
  }
  if (hi > held.extent) {
    const std::vector<Real> beyond =
        fleet.turning_positions_in(side, std::max(lo, held.extent), hi);
    turns.insert(turns.end(),
                 std::upper_bound(beyond.begin(), beyond.end(), held.extent),
                 beyond.end());
  }
  return std::to_address(begin);
}

/// Pass 1 for one half-line: the emission of detail::probe_magnitudes
/// with every countable piece replaced by a SampleRun, appended to
/// scratch.anchors / scratch.runs and deduplicated exactly like the
/// scalar emission (first occurrence kept, exact equality).  With a
/// profile side, the turns come from the profile and each anchor's
/// cached time, if any, goes to scratch.anchor_times (NaN otherwise).
void emit_side(const Fleet& fleet, const int side,
               const CrEvalOptions& options,
               const AnchorProfile::Side* held, ScanScratch& scratch) {
  const Real slack_lo = options.window_lo * (1 - tol::kRelative);
  std::vector<Real> own_turns;
  // Cached turns at and past `cursor` (profile path only).
  const AnchorProfile::Turn* cursor = nullptr;
  const AnchorProfile::Turn* cached_end = nullptr;
  if (held != nullptr) {
    cursor = profile_turns(fleet, *held, side, slack_lo, options.window_hi,
                           scratch.turns);
    cached_end = held->turns.data() + held->turns.size();
  } else {
    own_turns = fleet.turning_positions_in(side, slack_lo, options.window_hi);
  }
  std::vector<Real>& turns = held != nullptr ? scratch.turns : own_turns;
  turns.push_back(options.window_lo);
  turns.push_back(options.window_hi);
  std::sort(turns.begin(), turns.end());
  turns.erase(std::unique(turns.begin(), turns.end(),
                          [](const Real a, const Real b) {
                            return approx_equal(a, b);
                          }),
              turns.end());
  const auto in_window = [&](const Real magnitude) {
    return magnitude >= options.window_lo && magnitude <= options.window_hi;
  };

  ProbeBatch& anchors = scratch.anchors;
  const std::size_t side_begin = anchors.size();
  const std::size_t runs_begin = scratch.runs.size();
  // Largest magnitude emitted so far on this side, samples included.
  Real emitted_max = 0;
  const auto push = [&](const Real magnitude, const Real cached_time) {
    anchors.magnitudes.push_back(magnitude);
    anchors.sides.push_back(static_cast<std::int8_t>(side));
    if (held != nullptr) scratch.anchor_times.push_back(cached_time);
    emitted_max = std::max(emitted_max, magnitude);
  };
  // Cached times of turns[i] and of its right-limit: `cursor` walks the
  // profile's ascending turns alongside the ascending window turns.  A
  // window end bit-equal to a cached turn is found the same way.  One
  // bit-equal to a cached right-limit tau*(1+1e-9) is dropped by the
  // approx-dedup above in favour of tau, whose right-limit probe takes
  // the cached time; should it survive, it is filled like any other.
  Real turn_time = kNaN;
  Real limit_time = kNaN;
  const auto look_up = [&](const Real turn) {
    turn_time = kNaN;
    limit_time = kNaN;
    while (cursor != cached_end && cursor->magnitude < turn) ++cursor;
    if (cursor != cached_end && cursor->magnitude == turn) {
      turn_time = cursor->time;
      limit_time = cursor->limit_time;
    }
  };
  const int k = options.interior_samples;
  SampleRun* open_run = nullptr;  // the run whose hi is the next turn
  for (std::size_t i = 0; i < turns.size(); ++i) {
    look_up(turns[i]);
    const Real limit = turns[i] * (1 + tol::kLimitProbe);
    if (in_window(limit)) push(limit, limit_time);
    if (in_window(turns[i])) {
      if (open_run != nullptr) {
        open_run->hi_slot = static_cast<std::uint32_t>(anchors.size());
      }
      push(turns[i], turn_time);
    }
    open_run = nullptr;
    if (i + 1 == turns.size() || k <= 0) continue;
    const Real lo = turns[i];
    const Real hi = turns[i + 1];
    const Real first = interior_sample(lo, hi, 1, k);
    const Real last = interior_sample(lo, hi, k, k);
    // The samples are monotone in s, and the spacing check (far above
    // their rounding error) makes them strictly increasing; so all of
    // them are distinct, in window, above every earlier probe and below
    // hi, and every later probe is >= hi.
    const bool countable = first > emitted_max && last < hi &&
                           first >= options.window_lo &&
                           last <= options.window_hi &&
                           (hi - lo) / static_cast<Real>(k + 1) >
                               Real{1e-15L} * hi;
    if (countable) {
      scratch.runs.push_back({.lo = lo,
                              .hi = hi,
                              .first = first,
                              .count = k,
                              .after = static_cast<std::uint32_t>(
                                  anchors.size())});
      open_run = &scratch.runs.back();
      emitted_max = last;
    } else {
      for (int s = 1; s <= k; ++s) {
        const Real sample = interior_sample(lo, hi, s, k);
        if (in_window(sample)) push(sample, kNaN);
      }
    }
  }

  // Exact first-occurrence dedup of the side's explicit probes, the
  // sorted-permutation pass of detail::probe_magnitudes.  Run samples
  // take no part: they are distinct from everything by construction.
  const std::size_t count = anchors.size() - side_begin;
  Real* magnitudes = anchors.magnitudes.data() + side_begin;
  std::vector<std::uint32_t>& by_value = scratch.by_value;
  by_value.resize(count);
  std::iota(by_value.begin(), by_value.end(), 0U);
  std::sort(by_value.begin(), by_value.end(),
            [magnitudes](const std::uint32_t p, const std::uint32_t q) {
              if (magnitudes[p] != magnitudes[q]) {
                return magnitudes[p] < magnitudes[q];
              }
              return p < q;
            });
  // slot_of[j] = the deduped slot of explicit probe j (kNoSlot when it
  // is a repeat); slot_of[count] closes the range for runs at the end.
  std::vector<std::uint32_t>& slot_of = scratch.slot_of;
  slot_of.assign(count + 1, 0);
  for (std::size_t j = 1; j < count; ++j) {
    if (magnitudes[by_value[j]] == magnitudes[by_value[j - 1]]) {
      slot_of[by_value[j]] = kNoSlot;
    }
  }
  Real* times = held != nullptr ? scratch.anchor_times.data() + side_begin
                                : nullptr;
  std::uint32_t kept = 0;
  for (std::size_t j = 0; j < count; ++j) {
    if (slot_of[j] == kNoSlot) continue;
    slot_of[j] = kept;
    if (times != nullptr) times[kept] = times[j];
    magnitudes[kept++] = magnitudes[j];
  }
  slot_of[count] = kept;
  anchors.magnitudes.resize(side_begin + kept);
  anchors.sides.resize(side_begin + kept);
  if (held != nullptr) scratch.anchor_times.resize(side_begin + kept);
  // Rebase each run onto absolute deduped slots.  `after` counts the
  // kept probes before the run: the first kept slot at or past it.
  for (std::size_t r = runs_begin; r < scratch.runs.size(); ++r) {
    SampleRun& run = scratch.runs[r];
    std::size_t j = run.after - side_begin;
    while (slot_of[j] == kNoSlot) ++j;
    run.after = static_cast<std::uint32_t>(side_begin + slot_of[j]);
    if (run.hi_slot != kNoSlot) {
      const std::uint32_t slot = slot_of[run.hi_slot - side_begin];
      run.hi_slot = slot == kNoSlot
                        ? kNoSlot
                        : static_cast<std::uint32_t>(side_begin + slot);
    }
  }
}

/// The time `known` holds for (side, magnitude), or NaN.
Real known_time(const KnownProbes& known, const std::int8_t side,
                const Real magnitude) {
  for (std::size_t i = 0; i < known.probes.size(); ++i) {
    if (known.probes.sides[i] == side &&
        known.probes.magnitudes[i] == magnitude) {
      return known.times[i];
    }
  }
  return kNaN;
}

/// Profile path of pass 1: fill the anchors whose scratch.anchor_times
/// entry is still NaN (no cached time) in one call and store their
/// times; scratch.unknown_slots lists them.  Anchors among `known` take
/// its times instead.
void fill_unknown_anchors(const Fleet& fleet, const int f,
                          const KnownProbes* known, ScanScratch& scratch) {
  const ProbeBatch& anchors = scratch.anchors;
  ProbeBatch& unknown = scratch.unknown;
  std::vector<std::uint32_t>& slots = scratch.unknown_slots;
  unknown.magnitudes.clear();
  unknown.sides.clear();
  unknown.positive_count = 0;
  slots.clear();
  for (std::size_t a = 0; a < anchors.size(); ++a) {
    if (known != nullptr && std::isnan(scratch.anchor_times[a])) {
      scratch.anchor_times[a] =
          known_time(*known, anchors.sides[a], anchors.magnitudes[a]);
    }
    if (std::isnan(scratch.anchor_times[a])) {
      unknown.magnitudes.push_back(anchors.magnitudes[a]);
      unknown.sides.push_back(anchors.sides[a]);
      slots.push_back(static_cast<std::uint32_t>(a));
    }
    if (a + 1 == anchors.positive_count) {
      unknown.positive_count = slots.size();
    }
  }
  if (slots.empty()) return;
  fill_visit_columns(fleet, f, unknown, scratch.anchor_columns);
  for (std::size_t u = 0; u < slots.size(); ++u) {
    scratch.anchor_times[slots[u]] = scratch.anchor_columns.detection[u];
  }
}

}  // namespace

ProbeBatch window_end_probes(const Real window_lo, const Real window_hi) {
  // The products pass 1 emits for the window ends.
  ProbeBatch ends;
  for (const int side : {+1, -1}) {
    for (const Real magnitude :
         {window_lo, window_lo * (1 + tol::kLimitProbe), window_hi}) {
      ends.magnitudes.push_back(magnitude);
      ends.sides.push_back(static_cast<std::int8_t>(side));
    }
    if (side > 0) ends.positive_count = ends.size();
  }
  return ends;
}

CrEvalResult measure_cr_kernel(const Fleet& fleet, const int f,
                               const CrEvalOptions& options,
                               const AnchorProfile* profile,
                               const KnownProbes* known) {
  // Same preconditions, span, counters and scan semantics as
  // detail::measure_cr_with.  The detection times are precomputed in
  // bulk instead of queried one probe at a time, and the interior
  // samples of a piece are evaluated only when the prune bound cannot
  // prove that none of them moves the supremum (see kernels.hpp).
  expects(f >= 0, "measure_cr: f must be >= 0");
  expects(options.window_lo > 0, "measure_cr: window_lo must be positive");
  expects(options.window_hi > options.window_lo,
          "measure_cr: window_hi must exceed window_lo");
  expects(profile == nullptr || profile->budget() == f,
          "measure_cr: anchor profile built for another fault budget");
  LS_OBS_SPAN("eval.cr.scan");

  // Reused across calls on each thread so the working arrays are
  // allocated once per thread, not once per scan.  Every member is
  // rewritten before it is read each call, so reuse cannot leak state.
  static thread_local ScanScratch scratch;
  ProbeBatch& anchors = scratch.anchors;
  ProbeBatch& samples = scratch.samples;
  std::vector<SampleRun>& runs = scratch.runs;
  anchors.magnitudes.clear();
  anchors.sides.clear();
  samples.magnitudes.clear();
  samples.sides.clear();
  runs.clear();
  scratch.anchor_times.clear();

  // Pass 1: anchors (window ends, turns, right-limits, uncountable
  // samples) of both sides in one fill — with a profile, a fill of only
  // the anchors it holds no time for.
  emit_side(fleet, +1, options,
            profile != nullptr ? &profile->side(+1) : nullptr, scratch);
  anchors.positive_count = anchors.size();
  const std::size_t positive_runs = runs.size();
  emit_side(fleet, -1, options,
            profile != nullptr ? &profile->side(-1) : nullptr, scratch);
  if (profile == nullptr) {
    fill_visit_columns(fleet, f, anchors, scratch.anchor_columns);
  } else {
    fill_unknown_anchors(fleet, f, known, scratch);
  }
  const std::vector<Real>& anchor_times =
      profile == nullptr ? scratch.anchor_columns.detection
                         : scratch.anchor_times;

  // Pass 2: the prune bound per run (kernels.hpp derives it), then one
  // fill for the survivors.  A pruned run's samples have
  // T(x)/x <= max(g(s_1), g(hi)) < the supremum of the anchors before
  // it, with g(x) = (T(hi) - (hi - x)/v_max)/x, and T(x) <= T(hi) < inf
  // keeps them all detected.
  Real v_max = 0;
  Real start_reach[2] = {0, 0};  // [side > 0]: max start magnitude on side
  for (RobotId r = 0; r < fleet.size(); ++r) {
    v_max = std::max(v_max, fleet.robot(r).max_speed());
    const Real start = fleet.robot(r).start_position();
    start_reach[start > 0] = std::max(start_reach[start > 0],
                                      std::fabs(start));
  }
  for (const int side : {+1, -1}) {
    // Running supremum of the anchors before the current run; runs are
    // in emission order, so the side's anchors are folded in once.
    std::size_t folded = side > 0 ? 0 : anchors.positive_count;
    Real supremum = 0;
    const std::size_t runs_begin = side > 0 ? 0 : positive_runs;
    const std::size_t runs_end =
        side > 0 ? positive_runs : runs.size();
    for (std::size_t r = runs_begin; r < runs_end; ++r) {
      SampleRun& run = runs[r];
      for (; folded < run.after; ++folded) {
        const Real time = anchor_times[folded];
        if (std::isinf(time)) continue;
        supremum = std::max(supremum, time / anchors.magnitudes[folded]);
      }
      if (v_max > 0 && run.hi_slot != kNoSlot &&
          run.lo >= start_reach[side > 0]) {
        const Real t_hi = anchor_times[run.hi_slot];
        if (std::isfinite(t_hi)) {
          const Real slack = kPruneSlack * (t_hi + run.hi / v_max);
          const Real at_first =
              (t_hi - (run.hi - run.first) / v_max + slack) / run.first;
          const Real at_hi = (t_hi + slack) / run.hi;
          if (std::max(at_first, at_hi) < supremum) continue;
        }
      }
      run.begin = static_cast<std::uint32_t>(samples.size());
      for (int s = 1; s <= run.count; ++s) {
        samples.magnitudes.push_back(
            interior_sample(run.lo, run.hi, s, run.count));
      }
      samples.sides.insert(samples.sides.end(),
                           static_cast<std::size_t>(run.count),
                           static_cast<std::int8_t>(side));
    }
    if (side > 0) samples.positive_count = samples.size();
  }
  if (samples.size() > 0) {
    fill_visit_columns(fleet, f, samples, scratch.sample_columns);
  }
  const std::vector<Real>& sample_times = scratch.sample_columns.detection;

  // The unchanged supremum scan, in emission order: anchors up to each
  // run, then the run's samples (or, pruned, just their count).
  CrEvalResult result;
  Real pos_best_x = 0;
  Real neg_best_x = 0;
  std::uint64_t refinements = 0;
  for (const int side : {+1, -1}) {
    Real best = 0;
    Real best_x = 0;
    bool any_detected = false;
    Real first_undetected_x = 0;
    const auto visit = [&](const Real magnitude, const Real time) {
      const Real x = static_cast<Real>(side) * magnitude;
      ++result.probes;
      if (std::isinf(time)) {
        if (options.require_finite) {
          throw NumericError(
              "measure_cr: undetected probe — fleet extent too small for "
              "the measurement window");
        }
        ++result.undetected_probes;
        if (first_undetected_x == 0) first_undetected_x = x;
        return;
      }
      any_detected = true;
      const Real ratio = time / magnitude;
      if (ratio > best) {
        best = ratio;
        best_x = x;
        ++refinements;
      }
    };
    std::size_t a = side > 0 ? 0 : anchors.positive_count;
    const std::size_t anchors_end =
        side > 0 ? anchors.positive_count : anchors.size();
    const std::size_t runs_begin = side > 0 ? 0 : positive_runs;
    const std::size_t runs_end =
        side > 0 ? positive_runs : runs.size();
    for (std::size_t r = runs_begin; r <= runs_end; ++r) {
      const std::size_t until = r < runs_end ? runs[r].after : anchors_end;
      for (; a < until; ++a) visit(anchors.magnitudes[a], anchor_times[a]);
      if (r == runs_end) break;
      const SampleRun& run = runs[r];
      if (run.begin == kNoSlot) {
        // Pruned: detected, and below the running supremum.
        result.probes += run.count;
        any_detected = true;
        continue;
      }
      for (int s = 0; s < run.count; ++s) {
        visit(samples.magnitudes[run.begin + s],
              sample_times[run.begin + s]);
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
  LS_OBS_COUNT("eval.cr.probes_evaluated",
               (profile == nullptr ? anchors.size()
                                   : scratch.unknown_slots.size()) +
                   samples.size());
  LS_OBS_COUNT("eval.cr.undetected_probes", result.undetected_probes);
  LS_OBS_COUNT("eval.cr.supremum_refinements", refinements);
  LS_OBS_OBSERVE("eval.cr.probes_per_scan", result.probes,
                 {16, 64, 256, 1024, 4096});
  return result;
}

}  // namespace linesearch::kernels
