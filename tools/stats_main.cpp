// tools/stats_main — run instrumented workloads and dump the obs metric
// registry as JSON (schema "linesearch-stats/1").
//
// The observability layer's counters are deterministic for any thread
// count (docs/observability.md), so two invocations
//
//   stats_main --workload=dense --threads=1
//   stats_main --workload=dense --threads=8
//
// must print bit-identical "metrics" arrays once the non-deterministic
// wall-clock entries are filtered (--deterministic-only drops them in
// the output itself).  That makes this binary both a debugging lens
// ("how many probes did that sweep really run?") and a quick manual
// determinism check outside the test suite.
//
// Usage: stats_main [--workload=NAME] [--threads=N] [--json=PATH]
//                   [--deterministic-only]
// where NAME is one row of kWorkloads below, or `all` (the default).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "adversary/game.hpp"
#include "adversary/placements.hpp"
#include "core/algorithm.hpp"
#include "core/lower_bound.hpp"
#include "dense_grid.hpp"
#include "eval/batch.hpp"
#include "eval/cr_eval.hpp"
#include "eval/expectation.hpp"
#include "eval/validation.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "runtime/arbitration.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/world.hpp"
#include "sim/faults.hpp"
#include "svc/query.hpp"
#include "util/cli.hpp"
#include "util/jsonio.hpp"
#include "util/parallel.hpp"
#include "verify/fuzz.hpp"

namespace {

using namespace linesearch;

/// The dense A(7, 4) sweep bench_perf's BM_DenseCrSweep* time
/// (tools/dense_grid.hpp).
void run_dense(const int threads) {
  const Fleet fleet = tools::dense_sweep_fleet();
  (void)measure_cr_batch(tools::dense_cr_jobs(fleet), {.threads = threads});
}

/// Unbounded analytic A(12, 11) swept over 2^20 — every visit query and
/// window enumeration comes from closed forms.
void run_analytic(int /*threads*/) {
  const ProportionalAlgorithm algo(12, 11);
  const Fleet fleet = algo.build_unbounded_fleet();
  (void)measure_cr(fleet, 11, {.window_hi = 1048576});
}

/// One Theorem-2 adversarial round against A(3, 1).
void run_game(const int threads) {
  const Real alpha = comfortable_alpha(3, 0.8L);
  const Fleet fleet =
      ProportionalAlgorithm(3, 1).build_fleet(largest_placement(alpha) * 4);
  GameOptions options;
  options.threads = threads;
  (void)play_theorem2_game(fleet, 1, alpha, options);
}

/// Online execution: 5 proportional controllers driven by the world.
void run_runtime(int /*threads*/) {
  (void)run_proportional_controllers(5, 2, 1000);
}

/// A small deterministic fuzz corpus (seeds 1..16).
void run_fuzz(int /*threads*/) { (void)verify::run_corpus(1, 16); }

/// Crash -> detect -> re-plan -> re-measure over the regime grid
/// (runtime/supervisor.hpp); populates the runtime.replans and
/// runtime.crash_truncations counters.
void run_degraded(int /*threads*/) {
  DegradedSweepOptions options;
  options.n_max = 6;
  options.max_crashes = 2;
  (void)degraded_mode_sweep(options);
}

/// Byzantine quorum pipeline: one lie-placement game round against
/// A(3, 1) plus one arbitrated run under a seeded lie plan
/// (runtime/arbitration); populates adversary.lie_placements and the
/// runtime.claims_* counters.
void run_byzantine_workload(const int threads) {
  const Real alpha = comfortable_alpha(3, 0.8L);
  const Fleet fleet =
      ProportionalAlgorithm(3, 1).build_fleet(largest_placement(alpha) * 4);
  GameOptions options;
  options.threads = threads;
  (void)play_byzantine_game(fleet, 1, alpha, options);
  const LiePlan plan = random_lie_plan(2024, 3, {});
  (void)run_byzantine(3, 1, 64, 5, plan);
}

/// The stateless query layer over the n <= 6 regime grid: one cold pass
/// (backend builds + evaluations) and one warm pass (cache hits);
/// populates the svc.* counters.
void run_service(int /*threads*/) {
  svc::QueryService service;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [n, f] : proportional_regime_pairs(6)) {
      svc::CrQuery query;
      query.n = n;
      query.f = f;
      query.window_hi = 32;
      (void)service.evaluate(query);
    }
  }
}

/// The probabilistic expected-CR engine: one sweep over the n <= 6
/// regime grid times a convergent p grid, one query-layer scan (cold +
/// warm), and one certified-divergent point past (3, 1)'s ladder
/// threshold; populates the eval.expectation.* work profile and
/// svc.probabilistic_queries.
void run_probabilistic(int /*threads*/) {
  ExpectationSweepOptions sweep;
  sweep.n_max = 6;
  sweep.p_count = 3;
  sweep.p_max = 0.4L;
  (void)expectation_sweep(sweep);
  svc::QueryService service;
  for (int pass = 0; pass < 2; ++pass) {
    svc::CrQuery query;
    query.n = 3;
    query.f = 1;
    query.window_hi = 16;
    query.regime = svc::FaultRegime::kProbabilistic;
    query.fault_p = 0.25L;
    (void)service.evaluate(query);
  }
  const Fleet fleet = ProportionalAlgorithm(3, 1).build_unbounded_fleet();
  ExpectationOptions divergent;
  divergent.p = (expectation_convergence_threshold(3, 1) + 1) / 2;
  (void)expected_detection_time(fleet, 2, divergent);
}

/// One --workload name and its body.  `all` runs every row in order.
struct Workload {
  const char* name;
  void (*run)(int threads);
};

constexpr Workload kWorkloads[] = {
    {"dense", run_dense},
    {"analytic", run_analytic},
    {"game", run_game},
    {"runtime", run_runtime},
    {"degraded", run_degraded},
    {"byzantine", run_byzantine_workload},
    {"service", run_service},
    {"probabilistic", run_probabilistic},
    {"fuzz", run_fuzz},
};

/// Every workload name, then "all", joined by `separator`.
std::string workload_names(const char* separator) {
  std::string out;
  for (const Workload& workload : kWorkloads) {
    out += workload.name;
    out += separator;
  }
  return out + "all";
}

}  // namespace

int main(const int argc, const char* const* argv) {
  std::string workload = "all";
  std::string json_path;  // empty: stdout
  int threads = 0;
  bool deterministic_only = false;

  CliParser cli("stats_main",
                "run instrumented workloads and dump the obs metric "
                "registry as JSON");
  cli.add_option("workload", &workload, "NAME",
                 workload_names("|") + " (default all)");
  cli.add_option("threads", &threads, "N",
                 "worker threads (0 = LINESEARCH_THREADS / hardware)");
  cli.add_option("json", &json_path, "PATH",
                 "write the report here instead of stdout");
  cli.add_flag("deterministic-only", &deterministic_only,
               "drop wall-clock (non-deterministic) metrics");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << '\n' << cli.usage();
    return 2;
  }

  const bool all = workload == "all";
  const auto selected = [&](const Workload& row) {
    return all || workload == row.name;
  };
  if (std::none_of(std::begin(kWorkloads), std::end(kWorkloads), selected)) {
    std::cerr << "stats_main: unknown --workload '" << workload
              << "' (valid: " << workload_names(", ") << ")\n"
              << cli.usage();
    return 2;
  }

  obs::Registry::instance().reset();
  for (const Workload& row : kWorkloads) {
    if (selected(row)) row.run(threads);
  }

  std::ofstream file;
  if (!json_path.empty()) file.open(json_path);
  std::ostream& out = json_path.empty() ? std::cout : file;

  JsonWriter json(out);
  json.begin_object();
  json.field("schema", "linesearch-stats/1");
  json.field("workload", workload);
  json.field("threads", static_cast<int>(resolve_thread_count(threads)));
  json.field("enabled", obs::kEnabled);
  json.field("deterministic_only", deterministic_only);
  json.key("metrics");
  obs::write_metrics_array(json, deterministic_only);
  json.end_object();
  out << '\n';
  return 0;
}
