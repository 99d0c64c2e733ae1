// verify/differential.hpp — pit independent evaluator paths against each
// other on the same instance.
//
// The library computes sup K(x) = T_{f+1}(x)/|x| through four routes
// that share no implementation beyond the Fleet queries:
//
//   scalar probe scan  (eval/cr_eval detail::measure_cr_with, direct
//                       Fleet::detection_time oracle)
//   SoA kernel scan    (eval/kernels: measure_cr, and eval/batch at any
//                       thread count)
//   certified suprema  (eval/exact, probe-free)
//   dense grid sweep   (eval/batch k_profile over a geometric grid)
//
// Differential engines demand the right relation between each pair:
// bit-identical where the contract is exact (scalar vs kernel, thread
// counts), tolerance-bounded where an epsilon is part of
// the design (probe scan sits 1e-9 below the certified sup; a finite
// grid sits at or below it).  A mismatch produces a structured report
// naming the job, the field and both values, so a fuzzer failure is
// immediately actionable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "eval/batch.hpp"
#include "eval/cr_eval.hpp"
#include "sim/faults.hpp"
#include "sim/fleet.hpp"
#include "svc/query.hpp"
#include "util/real.hpp"

namespace linesearch {
namespace verify {

/// One field that disagreed between two paths.
struct FieldMismatch {
  std::size_t job = 0;    ///< index into the compared job/position list
  std::string field;      ///< "cr", "argmax", "probes", ...
  Real lhs = 0;           ///< value on the reference path
  Real rhs = 0;           ///< value on the path under test
};

/// Outcome of one differential engine.
struct DifferentialResult {
  std::string name;
  bool applicable = true;
  bool passed = true;
  std::string message;
  std::vector<FieldMismatch> mismatches;

  [[nodiscard]] bool ok() const noexcept { return !applicable || passed; }
};

/// Tolerances for the non-exact comparisons.
struct DifferentialOptions {
  /// Max relative gap certified sup may sit ABOVE the probe scan (the
  /// probe misses the sup by ~kLimitProbe; generous default covers
  /// non-zig-zag fleets whose K jumps are steeper).
  Real probe_gap_tol = 1e-6L;
  /// Slack for "a sample can never exceed the sup" directions (pure
  /// long-double round-off).
  Real sample_tol = 1e-15L;
  /// Grid density per side for the dense-sweep cross-check.
  int grid_points = 64;
  /// Thread counts the batch engine is raced at (first is reference).
  std::vector<int> thread_counts = {1, 2, 3, 8};
};

/// Batch engine vs the scalar reference scan (detail::measure_cr_with
/// over direct Fleet::detection_time queries) and vs itself across
/// thread counts: every CrEvalResult field bit-identical.
[[nodiscard]] DifferentialResult diff_batch_threads(
    const std::vector<CrBatchJob>& jobs, const DifferentialOptions& options = {});

/// Probe scan vs certified suprema: measured <= certified (a probe is a
/// sample of the sup) and certified - measured <= probe_gap_tol relative.
[[nodiscard]] DifferentialResult diff_probe_vs_exact(
    const Fleet& fleet, int f, const CrEvalOptions& eval,
    const DifferentialOptions& options = {});

/// Dense geometric K(x) grid vs certified suprema: every grid sample
/// <= certified sup (within round-off).  The kernel k_profile_batch must
/// also match serial k_profile bitwise on the grid and on `targets`
/// (non-zero entries; repeats allowed).
[[nodiscard]] DifferentialResult diff_exact_vs_grid(
    const Fleet& fleet, int f, const CrEvalOptions& eval,
    const DifferentialOptions& options = {},
    const std::vector<Real>& targets = {});

/// Dense vs analytic backend: build the strategy both ways and demand
/// (a) the shared waypoint prefix (up to 64 entries per robot) is
/// bit-identical and (b) measure_cr over the window agrees field by
/// field, bitwise.  Inapplicable when the strategy has no analytic path.
/// Callers should pass a power-of-two extent: straight-line (ray)
/// trajectories reproduce dense visit arithmetic exactly only then.
[[nodiscard]] DifferentialResult diff_dense_vs_analytic(
    const SearchStrategy& strategy, Real extent, int f,
    const CrEvalOptions& eval);

/// The A(n, f) controllers executed in a World under a crash-stop
/// FaultInjector: crash_times[i] is robot i's crash time (kInfinity =
/// healthy).  The crash-executed fleet diff_crash_injected races.
[[nodiscard]] Fleet execute_crash_schedule(
    int n, int f, Real extent, const std::vector<Real>& crash_times);

/// Crash-injected World run vs analytic truncation: execute the A(n, f)
/// controllers under a crash-stop FaultInjector, independently truncate
/// a CLEAN run at the same crash times (sim/faults truncate_at_crashes),
/// and demand (a) every robot's waypoint stream is value-identical and
/// (b) measure_cr over the window (require_finite off) agrees field by
/// field, bitwise.  crash_times[i] = kInfinity means robot i is healthy.
[[nodiscard]] DifferentialResult diff_crash_injected(
    int n, int f, Real extent, const std::vector<Real>& crash_times,
    const CrEvalOptions& eval);

/// Byzantine quorum cost, three independent routes on one instance:
/// execute the A(n, f) controllers in a World (lies never alter motion,
/// only claims), feed the executed fleet's claim stream — honest robots
/// claiming truthfully, `plan`'s liars fabricating — through the runtime
/// arbiter (runtime/arbitration), and demand per target
///   (a) the arbiter's confirm time at the true target is
///       value_identical to the analytic per-liar-set quorum
///       byzantine_quorum_time(fleet, x, plan.liar, f),
///   (b) no falsely claimed position is ever confirmed,
///   (c) arbitrating the WORST liar set (the f earliest visitors,
///       silent) lands exactly on the order statistic
///       detection_time(x, 2f), and
///   (d) the quorum CR scan (budget 2f) cannot tell the executed fleet
///       from the schedule builder's, field by field, bitwise.
/// Targets that collide with a fabricated claim position are skipped in
/// (a) — a lie that accidentally tells the truth may legitimately
/// accelerate confirmation.
[[nodiscard]] DifferentialResult diff_byzantine(
    int n, int f, Real extent, const LiePlan& plan,
    const std::vector<Real>& targets, const CrEvalOptions& eval);

/// Chaos wire round trip vs the library: answer `query` through the
/// resilient client (svc/client) talking to an in-process QueryServer
/// across svc/chaos's deterministic fault injector at `chaos_seed`
/// (garbage bytes, split/merged frames, stalls, mid-request
/// disconnects — all pure functions of the seed), and demand the
/// response line be BYTE-identical to the offline library's rendering
/// `render_response(id, evaluate_query_direct(query))` on every call.
/// Three calls run back to back (ids 1..3) so retries cross cache-warm
/// and cache-cold server states.  The first response is then parsed
/// back and every QueryResult field must be value_identical to the
/// library's (a lossy codec renders both sides alike).  chaos_seed = 0
/// is the documented clean channel: the server-query fuzz kind, the
/// 41-pair wire grid, and the shrinker's first move.  This is the
/// never-a-wrong-answer contract: the client either returns the
/// server's intended bytes or a structured failure — and with
/// fault-free connections guaranteed every clean_every-th attempt, a
/// structured failure here is itself a bug.
[[nodiscard]] DifferentialResult diff_chaos_vs_library(
    const svc::CrQuery& query, std::uint64_t chaos_seed, int fault_cap = 3);

/// Exact expectation engine (eval/expectation) vs a seeded Monte-Carlo
/// realization of the SAME per-visit fault model (eval/montecarlo
/// mc_expected_detection_time), on the unbounded A(n, f) backend at the
/// fuzzer's adversarial targets.  Per target:
///   * closed_vs_lazy: the closed form agrees within rel_tol with the
///     lazy merge (detail::expected_detection_time_lazy) wherever the
///     lazy pass settled on a contracting window before any visit time
///     left Real range;
///   * p == 0: expected_detection_time collapses to the fault-free first
///     visit, bit for bit (no sampling involved);
///   * p past the ladder threshold kappa^(-1/n): the engine must report
///     divergence (kInfinity), never a finite number;
///   * convergent p: the exact value dominates the first visit time, and
///     — only while the series' VARIANCE also converges comfortably
///     (p^(2n) kappa^4 <= 0.8; nearer the threshold the sample mean is
///     heavy-tailed and its CLT band meaningless) — the seeded MC mean
///     must sit within a wide CLT band of it.
/// Targets at 0 are skipped.
[[nodiscard]] DifferentialResult diff_expectation_vs_montecarlo(
    int n, int f, Real p, const std::vector<Real>& targets,
    std::uint64_t seed = 0x5eed0bab01234567ULL, int trials = 400);

/// diff_expectation_vs_montecarlo's near-threshold variant, named
/// expectation_near_threshold: the same checks at p = threshold(n, f) *
/// (1 - 1e-4), a pure function of (n, f).  There the series needs tens
/// of thousands of periods and the lazy merge runs its ladder out of
/// Real range before it settles, so closed_vs_lazy applies only where
/// the lazy pass converged (rarely; on no fuzz target of seeds 1-2000);
/// `finite` and `first_visit_bound` always apply, and the MC band never
/// does (the sample variance diverges this close).  An oracle that does
/// not lean on the closed form bounds the value from below instead: at
/// p_mid = threshold * (1 - 1e-2) the lazy merge must settle
/// (mid_lazy_converged) and agree with the closed form
/// (mid_closed_vs_lazy), and since E[T(x)] strictly increases in p the
/// near-threshold value must exceed it (increasing_in_p).  A failure
/// message carries the p it failed at.
[[nodiscard]] DifferentialResult diff_expectation_near_threshold(
    int n, int f, const std::vector<Real>& targets);

/// SoA kernel path (eval/kernels measure_cr_kernel, which prunes the
/// interior samples that cannot move the supremum) vs the scalar
/// reference scan driven by direct Fleet queries, which evaluates every
/// probe: every CrEvalResult field bit-identical — at `eval`, at
/// interior_samples 0, 16 and 64, and on unbounded fleets also at
/// `eval` with window_hi * 2^8 (mismatch job = variant index, in that
/// order).  Unbounded fleets add two jobs: one shared anchor profile
/// grown to the 2^8-times wider window, read at that window and then at
/// `eval`, as the query service scans its backends.  Then every
/// batched per-probe detection time of the full
/// probe expansion bit-identical to Fleet::detection_time at the same
/// signed position.  This is the differential that licenses the prune
/// pass and the batched columns.
[[nodiscard]] DifferentialResult diff_kernel_vs_scalar(
    const Fleet& fleet, int f, const CrEvalOptions& eval);

/// Run the fleet-level engines (batch_threads, probe_vs_exact,
/// exact_vs_grid, kernel_vs_scalar) on one (fleet, f, window) instance.
/// `targets` adds fuzzer-chosen positions to exact_vs_grid's profile
/// check.
[[nodiscard]] std::vector<DifferentialResult> run_differentials(
    const Fleet& fleet, int f, const CrEvalOptions& eval,
    const std::vector<Real>& targets = {},
    const DifferentialOptions& options = {});

/// True iff every result is ok.
[[nodiscard]] bool all_ok(const std::vector<DifferentialResult>& results);

/// One line per failed engine, empty when all ok.
[[nodiscard]] std::string describe_failures(
    const std::vector<DifferentialResult>& results);

}  // namespace verify
}  // namespace linesearch
