// Golden behavioural counters: for every feasible (n, f) regime pair
// with n <= 12 (41 pairs, the same grid core/golden_analytic_test
// pins), a batched CR evaluation of the unbounded analytic A(n, f) fleet
// must reproduce the committed event counts EXACTLY — probe count and
// the analytic backend's window/visit query counts.  A diff here means the evaluator's work
// profile changed: maybe a real optimisation, maybe an accidental
// complexity regression — either way it must be reviewed and the
// fixture regenerated deliberately:
//
//   LS_OBS_GOLDEN_REGEN=1 tests/obs_test --gtest_filter='ObsGolden*'
//
// The fixture is compared as a serialized string (byte for byte), so
// the expected side is built with the same JsonWriter that wrote the
// file — no JSON parser needed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/game.hpp"
#include "core/algorithm.hpp"
#include "eval/batch.hpp"
#include "eval/expectation.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "svc/query.hpp"
#include "runtime/arbitration.hpp"
#include "sim/faults.hpp"
#include "util/jsonio.hpp"

namespace linesearch {
namespace {

std::uint64_t value_of(const std::vector<obs::MetricSnapshot>& snaps,
                       const std::string& name) {
  for (const obs::MetricSnapshot& snap : snaps) {
    if (snap.name == name) return snap.value;
  }
  return 0;
}

std::vector<std::pair<int, int>> regime_pairs_up_to_12() {
  // All (n, f) with f >= 1 and f < n < 2f+2 and n <= 12: 41 pairs.
  std::vector<std::pair<int, int>> pairs;
  for (int f = 1; f <= 11; ++f) {
    for (int n = f + 1; n <= std::min(12, 2 * f + 1); ++n) {
      pairs.emplace_back(n, f);
    }
  }
  return pairs;
}

/// Event counts of one pair's evaluation, read from the registry.
struct PairCounters {
  int n = 0;
  int f = 0;
  std::uint64_t probes = 0;
  std::uint64_t window_queries = 0;
  std::uint64_t visit_queries = 0;
  std::uint64_t lie_placements = 0;
  std::uint64_t claims_made = 0;
  std::uint64_t claims_refuted = 0;
  std::uint64_t quorum_reached = 0;
  std::uint64_t expectation_evaluations = 0;
  std::uint64_t expectation_divergent = 0;
  std::uint64_t expectation_visits = 0;
  std::uint64_t expectation_scans = 0;
  std::uint64_t probabilistic_queries = 0;
};

/// The registry's deterministic metrics, minus the batch layer's own
/// eval.batch.* names, one line per metric.
std::string deterministic_work_profile() {
  std::string out;
  for (const obs::MetricSnapshot& snap :
       obs::deterministic_subset(obs::Registry::instance().snapshot())) {
    if (snap.name.find("eval.batch.") != std::string::npos) continue;
    out += snap.name + ' ' + std::to_string(snap.value) + ' ' +
           std::to_string(snap.count) + ' ' + std::to_string(snap.sum);
    for (const std::uint64_t bucket : snap.buckets) {
      out += ' ' + std::to_string(bucket);
    }
    out += '\n';
  }
  return out;
}

PairCounters evaluate_pair(const int n, const int f) {
  const ProportionalAlgorithm algo(n, f);
  const Fleet fleet = algo.build_unbounded_fleet();
  // Two fault budgets over the shared fleet, the sweep shape of a
  // Table-1 row.  The batch leg must do exactly the work of the two
  // serial measure_cr calls it stands for.
  const std::vector<CrBatchJob> jobs{
      {&fleet, f, {.window_lo = 1, .window_hi = 16}},
      {&fleet, f - 1, {.window_lo = 1, .window_hi = 16}}};
  obs::Registry::instance().reset();
  for (const CrBatchJob& job : jobs) {
    (void)measure_cr(*job.fleet, job.f, job.options);
  }
  const std::string serial = deterministic_work_profile();
  obs::Registry::instance().reset();
  (void)measure_cr_batch(jobs, {.threads = 1});
  EXPECT_EQ(deterministic_work_profile(), serial)
      << "n=" << n << " f=" << f
      << ": the batch leg's counters differ from serial measure_cr";
  // Byzantine leg: one serial lie-placement game round plus one
  // arbitrated claim stream per pair, so the fixture also pins the
  // adversary.lie_placements and runtime.claims_* counters (the claim
  // arbiter's behaviour, not just the evaluator's).  The lie plan is a
  // pure function of (n, f), the game of the fleet — both deterministic.
  GameOptions game_options;
  game_options.keep_outcomes = false;
  (void)play_byzantine_game(fleet, f, comfortable_alpha(n, 0.8L),
                            game_options);
  const LiePlan plan = random_lie_plan(
      1000u + static_cast<std::uint64_t>(16 * n + f),
      static_cast<std::size_t>(n), {.max_liars = f});
  (void)arbitrate(fleet, f, collect_claims(fleet, 5, plan));
  // Probabilistic leg: one expected-CR scan routed through the query
  // layer at a p convergent for EVERY pair (0.25 sits below the grid's
  // minimum ladder threshold, ~0.63 at (3, 1)), plus one certified-
  // divergent point evaluation past this pair's OWN threshold — so the
  // fixture pins both the convergent work profile (visit counts of the
  // geometric summation) and a nonzero divergence count per pair.
  svc::CrQuery query;
  query.n = n;
  query.f = f;
  query.window_hi = 16;
  query.regime = svc::FaultRegime::kProbabilistic;
  query.fault_p = 0.25L;
  (void)svc::evaluate_query_direct(query);
  ExpectationOptions divergent;
  divergent.p = (expectation_convergence_threshold(n, f) + 1) / 2;
  (void)expected_detection_time(fleet, 2, divergent);
  const std::vector<obs::MetricSnapshot> snaps =
      obs::Registry::instance().snapshot();
  PairCounters counters;
  counters.n = n;
  counters.f = f;
  counters.probes = value_of(snaps, "eval.cr.probes");
  counters.window_queries = value_of(snaps, "sim.analytic.window_queries");
  counters.visit_queries = value_of(snaps, "sim.analytic.visit_queries");
  counters.lie_placements = value_of(snaps, "adversary.lie_placements");
  counters.claims_made = value_of(snaps, "runtime.claims_made");
  counters.claims_refuted = value_of(snaps, "runtime.claims_refuted");
  counters.quorum_reached = value_of(snaps, "runtime.quorum_reached");
  counters.expectation_evaluations =
      value_of(snaps, "eval.expectation.evaluations");
  counters.expectation_divergent =
      value_of(snaps, "eval.expectation.divergent");
  counters.expectation_visits = value_of(snaps, "eval.expectation.visits");
  counters.expectation_scans = value_of(snaps, "eval.expectation.scans");
  counters.probabilistic_queries =
      value_of(snaps, "svc.probabilistic_queries");
  return counters;
}

std::string serialize(const std::vector<PairCounters>& pairs) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  // Schema /2 added the Byzantine leg (lie_placements + claims_*);
  // schema /3 adds the probabilistic leg: the expectation engine's
  // eval.expectation.* work profile and the query layer's
  // svc.probabilistic_queries count per pair; schema /4 drops the
  // visit-cache fields (lookups, inserts, hits) with the cache itself;
  // schema /5 redefines expectation_visits as the series terms the lazy
  // merge consumed (it was the size of the last capped merged list);
  // schema /6 counts only the head terms the closed form sums before
  // its exact tail on these ladder fleets, and visit_queries drops the
  // cursors the lazy merge opened.
  json.field("schema", "linesearch-golden-obs/6");
  json.field("window_lo", 1);
  json.field("window_hi", 16);
  json.key("pairs").begin_array();
  for (const PairCounters& pair : pairs) {
    json.begin_object();
    json.field("n", pair.n);
    json.field("f", pair.f);
    json.field("probes", pair.probes);
    json.field("window_queries", pair.window_queries);
    json.field("visit_queries", pair.visit_queries);
    json.field("lie_placements", pair.lie_placements);
    json.field("claims_made", pair.claims_made);
    json.field("claims_refuted", pair.claims_refuted);
    json.field("quorum_reached", pair.quorum_reached);
    json.field("expectation_evaluations", pair.expectation_evaluations);
    json.field("expectation_divergent", pair.expectation_divergent);
    json.field("expectation_visits", pair.expectation_visits);
    json.field("expectation_scans", pair.expectation_scans);
    json.field("probabilistic_queries", pair.probabilistic_queries);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
  return out.str();
}

TEST(ObsGoldenCounters, AllRegimePairsMatchFixture) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "observability compiled out (LINESEARCH_OBS=OFF)";
  }
  const auto regime_pairs = regime_pairs_up_to_12();
  ASSERT_EQ(regime_pairs.size(), 41u);

  std::vector<PairCounters> pairs;
  pairs.reserve(regime_pairs.size());
  for (const auto& [n, f] : regime_pairs) {
    pairs.push_back(evaluate_pair(n, f));
    // Sanity independent of the fixture: the scan probed something.
    const PairCounters& counters = pairs.back();
    EXPECT_GT(counters.probes, 0u) << "n=" << n << " f=" << f;
    EXPECT_GT(counters.lie_placements, 0u) << "n=" << n << " f=" << f;
    EXPECT_GT(counters.claims_made, 0u) << "n=" << n << " f=" << f;
    EXPECT_GT(counters.expectation_evaluations, 0u)
        << "n=" << n << " f=" << f;
    EXPECT_GT(counters.expectation_divergent, 0u)
        << "n=" << n << " f=" << f;
    EXPECT_EQ(counters.expectation_scans, 1u) << "n=" << n << " f=" << f;
    EXPECT_EQ(counters.probabilistic_queries, 1u)
        << "n=" << n << " f=" << f;
  }
  const std::string actual = serialize(pairs);

  const std::string path = LS_OBS_GOLDEN_FIXTURE;
  if (std::getenv("LS_OBS_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing fixture " << path
      << " — regenerate with LS_OBS_GOLDEN_REGEN=1";
  std::ostringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), actual)
      << "behavioural counters diverged from the committed fixture; if "
         "the change is intended, regenerate with LS_OBS_GOLDEN_REGEN=1";
}

}  // namespace
}  // namespace linesearch
