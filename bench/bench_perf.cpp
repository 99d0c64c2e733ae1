// bench_perf — google-benchmark microbenchmarks of the library's hot
// kernels (experiment P1): trajectory construction, first-visit queries,
// fault-aware detection, empirical CR evaluation, root solving and the
// adversarial game.  These quantify the cost of the exact-math substrate
// (no discretization) that all reproductions run on.  Narrow a run with
// google-benchmark's own flags, e.g. --benchmark_filter=BM_ByzantineSweep.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adversary/game.hpp"
#include "adversary/placements.hpp"
#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "core/lower_bound.hpp"
#include "dense_grid.hpp"
#include "eval/batch.hpp"
#include "eval/byzantine.hpp"
#include "eval/cr_eval.hpp"
#include "eval/exact.hpp"
#include "eval/expectation.hpp"
#include "eval/kernels.hpp"
#include "eval/validation.hpp"
#include "runtime/injector.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/world.hpp"
#include "sim/serialize.hpp"
#include "sim/zigzag.hpp"
#include "star/search.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "util/jsonio.hpp"
#include "util/parallel.hpp"

namespace {

using namespace linesearch;

void BM_ZigzagConstruction(benchmark::State& state) {
  const Real coverage = static_cast<Real>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_origin_zigzag(
        {.beta = 3, .first_turn = 1, .min_coverage = coverage}));
  }
}
BENCHMARK(BM_ZigzagConstruction)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_FleetConstruction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const ProportionalAlgorithm algo(n, n - 1);  // beta = 3 family
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.build_fleet(1000));
  }
}
BENCHMARK(BM_FleetConstruction)->Arg(2)->Arg(8)->Arg(32);

void BM_FirstVisitQuery(benchmark::State& state) {
  const Trajectory t = make_origin_zigzag(
      {.beta = 3, .first_turn = 1, .min_coverage = 1e6L});
  Real x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.first_visit_time(x));
    x = (x < 9e5L) ? x * 1.37L : 1;
  }
}
BENCHMARK(BM_FirstVisitQuery);

void BM_DetectionTime(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int f = n - 1;
  const ProportionalAlgorithm algo(n, f);
  const Fleet fleet = algo.build_fleet(10000);
  Real x = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.detection_time(x, f));
    x = (x < 9e3L) ? x * 1.37L : 1;
  }
}
BENCHMARK(BM_DetectionTime)->Arg(3)->Arg(11)->Arg(41);

void BM_MeasureCr(benchmark::State& state) {
  const ProportionalAlgorithm algo(5, 3);
  const Fleet fleet = algo.build_fleet(2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_cr(fleet, 3, {.window_hi = 32}));
  }
}
BENCHMARK(BM_MeasureCr);

// Both dense sweeps time tools/dense_grid.hpp's A(7, 4) grid, the one
// stats_main's `dense` workload counts.
void BM_DenseCrSweepSerial(benchmark::State& state) {
  const Fleet fleet = tools::dense_sweep_fleet();
  const std::vector<CrBatchJob> jobs = tools::dense_cr_jobs(fleet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_cr_batch(jobs, {.threads = 1}));
  }
}
BENCHMARK(BM_DenseCrSweepSerial)->Unit(benchmark::kMillisecond);

void BM_DenseCrSweepParallel(benchmark::State& state) {
  // Compare against BM_DenseCrSweepSerial for the speedup; the results
  // are verified identical (cr and argmax) before any timing happens.
  const Fleet fleet = tools::dense_sweep_fleet();
  const std::vector<CrBatchJob> jobs = tools::dense_cr_jobs(fleet);
  const std::vector<CrEvalResult> serial =
      measure_cr_batch(jobs, {.threads = 1});
  const std::vector<CrEvalResult> parallel =
      measure_cr_batch(jobs, {.threads = 0});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (parallel[i].cr != serial[i].cr ||
        parallel[i].argmax != serial[i].argmax) {
      state.SkipWithError("parallel batch diverged from serial");
      return;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_cr_batch(jobs, {.threads = 0}));
  }
  state.counters["threads"] =
      static_cast<double>(resolve_thread_count(0));
}
BENCHMARK(BM_DenseCrSweepParallel)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_AnalyticFleetConstruction(benchmark::State& state) {
  // Counterpart of BM_FleetConstruction: the analytic backend's O(1)
  // per-robot state makes construction independent of the horizon.
  const int n = static_cast<int>(state.range(0));
  const ProportionalAlgorithm algo(n, n - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.build_unbounded_fleet());
  }
}
BENCHMARK(BM_AnalyticFleetConstruction)->Arg(2)->Arg(8)->Arg(32);

void BM_AnalyticCrSweep(benchmark::State& state) {
  // measure_cr over a 2^20 window on the unbounded analytic fleet: the
  // probe grid and every visit query come from closed forms, no dense
  // ladder is ever materialized.
  const ProportionalAlgorithm algo(12, 11);
  const Fleet fleet = algo.build_unbounded_fleet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure_cr(fleet, 11, {.window_hi = 1048576}));
  }
}
BENCHMARK(BM_AnalyticCrSweep)->Unit(benchmark::kMillisecond);

void BM_KernelCrScalar(benchmark::State& state) {
  // Scalar reference scan: one direct Fleet::detection_time query per
  // probe (allocation + full segment walk each).  Compare against
  // BM_KernelCrSoA for the SoA kernel speedup.
  const ProportionalAlgorithm algo(7, 4);
  const Fleet fleet = algo.build_fleet(2000);
  const CrEvalOptions options{.window_hi = 48, .interior_samples = 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::measure_cr_with(
        fleet, 4, options,
        [&fleet](const Real x) { return fleet.detection_time(x, 4); }));
  }
}
BENCHMARK(BM_KernelCrScalar)->Unit(benchmark::kMillisecond);

void BM_KernelCrSoA(benchmark::State& state) {
  // The SoA kernel path on the identical scan (bit-identical result).
  const ProportionalAlgorithm algo(7, 4);
  const Fleet fleet = algo.build_fleet(2000);
  const CrEvalOptions options{.window_hi = 48, .interior_samples = 16};
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::measure_cr_kernel(fleet, 4, options));
  }
  state.counters["simd"] = kernels::simd_compiled() ? 1 : 0;
}
BENCHMARK(BM_KernelCrSoA)->Unit(benchmark::kMillisecond);

void BM_Theorem2Root(benchmark::State& state) {
  int n = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(theorem2_alpha(n));
    n = (n < 4096) ? n * 2 : 2;
  }
}
BENCHMARK(BM_Theorem2Root);

void BM_ClosedFormCr(benchmark::State& state) {
  int f = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm_cr(2 * f + 1, f));
    f = (f < 1000) ? f + 1 : 1;
  }
}
BENCHMARK(BM_ClosedFormCr);

void BM_CertifiedCr(benchmark::State& state) {
  const ProportionalAlgorithm algo(5, 3);
  const Fleet fleet = algo.build_fleet(2000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(certified_cr(fleet, 3, {.window_hi = 32}));
  }
}
BENCHMARK(BM_CertifiedCr);

void BM_SerializeRoundTrip(benchmark::State& state) {
  const ProportionalAlgorithm algo(5, 3);
  const Fleet fleet = algo.build_fleet(10000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet_from_csv(fleet_to_csv(fleet)));
  }
}
BENCHMARK(BM_SerializeRoundTrip);

void BM_OnlineExecution(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run_proportional_controllers(n, n - 1, 1000));
  }
}
BENCHMARK(BM_OnlineExecution)->Arg(3)->Arg(11);

void BM_InjectedExecution(benchmark::State& state) {
  // Fault-injected online execution vs BM_OnlineExecution's clean run:
  // the injector's per-directive overhead (crash clipping, speed caps,
  // drop bookkeeping) on a mixed random plan.
  const int n = static_cast<int>(state.range(0));
  const auto injector = FaultInjector::random(
      2024, static_cast<std::size_t>(n),
      {.fault_probability = 0.5L, .horizon = 100});
  for (auto _ : state) {
    std::vector<ControllerPtr> team;
    for (int robot = 0; robot < n; ++robot) {
      team.push_back(std::make_unique<ProportionalController>(
          n, n - 1, robot, 1000));
    }
    benchmark::DoNotOptimize(World().execute_team(team, injector));
  }
}
BENCHMARK(BM_InjectedExecution)->Arg(3)->Arg(11);

void BM_DegradedSweep(benchmark::State& state) {
  // The full crash -> detect -> re-plan -> re-measure pipeline over the
  // regime grid.
  DegradedSweepOptions options;
  options.n_max = static_cast<int>(state.range(0));
  options.max_crashes = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(degraded_mode_sweep(options));
  }
}
BENCHMARK(BM_DegradedSweep)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_ByzantineSweep(benchmark::State& state) {
  // The quorum-CR scan of every regime pair against the arXiv:1611.08209
  // closed form (run it alone with --benchmark_filter=BM_ByzantineSweep).
  ByzantineSweepOptions options;
  options.n_max = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(byzantine_sweep(options));
  }
}
BENCHMARK(BM_ByzantineSweep)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_ProbabilisticSweep(benchmark::State& state) {
  // The exact expected-CR engine over the regime grid times a p grid.
  // Every row here is a closed-form geometric-ladder summation — no
  // Monte Carlo.
  ExpectationSweepOptions options;
  options.n_max = static_cast<int>(state.range(0));
  options.p_count = 3;
  options.p_max = 0.4L;
  for (auto _ : state) {
    benchmark::DoNotOptimize(expectation_sweep(options));
  }
}
BENCHMARK(BM_ProbabilisticSweep)
    ->Arg(4)
    ->Arg(6)
    ->Unit(benchmark::kMillisecond);

void BM_ServiceQuery(benchmark::State& state) {
  // One NDJSON request through the in-process wire path (parse ->
  // canonicalize -> service -> render).  Arg(0) runs with the result LRU
  // on (steady-state hits), Arg(1) with caching off (every request
  // re-evaluates) — the gap is what the cache buys per query.
  const bool no_cache = state.range(0) != 0;
  svc::QueryServerOptions options;
  options.service.cache_results = !no_cache;
  svc::QueryServer server(options);
  const std::string request =
      R"({"id": 1, "op": "cr", "n": 5, "f": 2, "window_hi": 16})";
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_line(request));
  }
  state.counters["cache"] = no_cache ? 0 : 1;
}
BENCHMARK(BM_ServiceQuery)->Arg(0)->Arg(1);

void BM_SnapshotRoundTrip(benchmark::State& state) {
  // One crash-safe warm restart (svc/snapshot): save a warmed result
  // cache, restore it into a fresh server and replay the hot set.  The
  // cache is warmed once, outside the timed loop, over the n <= 8 regime
  // grid at a window wide enough that a miss would dwarf a hit; a
  // restored cache that misses shows up as a hit_rate below 1.
  std::vector<std::string> requests;
  for (const auto& [n, f] : proportional_regime_pairs(8)) {
    std::ostringstream request;
    request << R"({"id": )" << requests.size() + 1
            << R"(, "op": "cr", "n": )" << n << R"(, "f": )" << f
            << R"(, "window_hi": 4096, "interior_samples": 64})";
    requests.push_back(request.str());
  }
  svc::QueryServer warmed;
  for (const std::string& request : requests) {
    benchmark::DoNotOptimize(warmed.handle_line(request));
  }
  const std::string path = (std::filesystem::temp_directory_path() /
                            "linesearch-bench-snapshot-round-trip")
                               .string();
  double hit_rate = 0;
  for (auto _ : state) {
    (void)svc::save_snapshot(warmed.service(), path);
    svc::QueryServer restored;
    if (!svc::load_snapshot(restored.service(), path).ok) {
      state.SkipWithError("snapshot restore was rejected");
      break;
    }
    for (const std::string& request : requests) {
      benchmark::DoNotOptimize(restored.handle_line(request));
    }
    const svc::QueryService::Stats stats = restored.service().stats();
    hit_rate = static_cast<double>(stats.cache_hits) /
               static_cast<double>(stats.queries);
  }
  std::filesystem::remove(path);
  state.counters["entries"] = static_cast<double>(requests.size());
  state.counters["hit_rate"] = hit_rate;
}
BENCHMARK(BM_SnapshotRoundTrip)->Unit(benchmark::kMillisecond);

/// The server side of BM_SocketRoundTrip: an in-process QueryServer on
/// a temporary AF_UNIX path, with the hot keys already in its cache.
struct SocketRoundTripServer {
  explicit SocketRoundTripServer(const int connections)
      : path((std::filesystem::temp_directory_path() /
              ("linesearch-bench-rt-" + std::to_string(::getpid()) +
               ".sock"))
                 .string()),
        server([connections] {
          // One pool worker per connection: a connection holds its
          // worker for as long as it stays open.
          svc::QueryServerOptions options;
          options.threads = connections;
          return options;
        }()) {
    for (const auto& [n, f] : proportional_regime_pairs(5)) {
      std::ostringstream fields;
      fields << R"(, "op": "cr", "n": )" << n << R"(, "f": )" << f
             << R"(, "window_hi": 64})";
      hot_keys.push_back(fields.str());
      (void)server.handle_line(R"({"id": 1)" + hot_keys.back());
    }
    accept_loop = std::thread([this] { server.serve(path); });
    svc::SocketTransport probe(path);
    while (!probe.connect()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~SocketRoundTripServer() {
    server.stop();
    accept_loop.join();
  }

  std::string path;
  svc::QueryServer server;
  std::vector<std::string> hot_keys;  ///< each request line after its id
  std::thread accept_loop;
};

std::unique_ptr<SocketRoundTripServer> socket_round_trip_server;

void BM_SocketRoundTrip(benchmark::State& state) {
  // Lock-step calls of real QueryClients over SocketTransport against
  // an in-process QueryServer, one connection per benchmark thread, all
  // on cache hits: the transport and wire codec, no scan.  At 8
  // connections on a 4-vCPU host the threads oversubscribe the CPUs,
  // which is where a read that spins before it parks could cost.
  const SocketRoundTripServer& shared = *socket_round_trip_server;
  svc::QueryClient client(svc::ClientOptions{.socket_path = shared.path});
  long long id = 1;
  std::size_t key = static_cast<std::size_t>(state.thread_index());
  long long failed = 0;
  for (auto _ : state) {
    const std::string& hot = shared.hot_keys[key++ % shared.hot_keys.size()];
    if (!client.call_line(R"({"id": )" + std::to_string(id++) + hot).ok) {
      ++failed;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["failed"] = static_cast<double>(failed);
}
BENCHMARK(BM_SocketRoundTrip)
    ->Setup([](const benchmark::State& state) {
      socket_round_trip_server =
          std::make_unique<SocketRoundTripServer>(state.threads());
    })
    ->Teardown([](const benchmark::State&) {
      socket_round_trip_server.reset();
    })
    ->Threads(1)
    ->Threads(2)
    ->Threads(8)
    ->UseRealTime();

/// What BM_WireDecode times on one line.
enum class WireDecode {
  kRequest,          ///< svc::parse_request
  kResponse,         ///< svc::classify_response
  kParseJsonTree,    ///< parse_json, the tree the wire decoders once built
};

void BM_WireDecode(benchmark::State& state, const WireDecode decode,
                   const bool response_line) {
  // An svc_hot request line and the hit response it draws.  The
  // parse_json rows time the tree decode of the same lines, the path
  // parse_request and the client's classification replaced.
  svc::CrQuery query;
  query.n = 7;
  query.f = 4;
  query.window_hi = 1024;
  query.interior_samples = 4;
  const std::string request = svc::render_request(12345, query);
  svc::QueryServer server;
  const std::string response = server.handle_line(request);
  const std::string& line = response_line ? response : request;
  for (auto _ : state) {
    switch (decode) {
      case WireDecode::kRequest:
        benchmark::DoNotOptimize(svc::parse_request(line));
        break;
      case WireDecode::kResponse:
        benchmark::DoNotOptimize(svc::classify_response(line, 12345));
        break;
      case WireDecode::kParseJsonTree:
        benchmark::DoNotOptimize(parse_json(line));
        break;
    }
  }
  state.counters["bytes"] = static_cast<double>(line.size());
}
BENCHMARK_CAPTURE(BM_WireDecode, request, WireDecode::kRequest, false);
BENCHMARK_CAPTURE(BM_WireDecode, request_parse_json,
                  WireDecode::kParseJsonTree, false);
BENCHMARK_CAPTURE(BM_WireDecode, response, WireDecode::kResponse, true);
BENCHMARK_CAPTURE(BM_WireDecode, response_parse_json,
                  WireDecode::kParseJsonTree, true);

void BM_AdversarialGame(benchmark::State& state) {
  const int n = 3, f = 1;
  const Real alpha = comfortable_alpha(n, 0.8L);
  const ProportionalAlgorithm algo(n, f);
  const Fleet fleet = algo.build_fleet(largest_placement(alpha) * 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(play_theorem2_game(fleet, f, alpha));
  }
}
BENCHMARK(BM_AdversarialGame);

void BM_StarDetection(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const StarFleet fleet = star_proportional(m, m + 1, 1.3L, 5000);
  Real d = 1;
  int ray = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.detection_time({ray, d}, 1));
    d = (d < 4e3L) ? d * 1.37L : 1;
    ray = (ray + 1) % m;
  }
}
BENCHMARK(BM_StarDetection)->Arg(3)->Arg(5);

}  // namespace

BENCHMARK_MAIN();
