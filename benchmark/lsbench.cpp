// lsbench — the end-to-end and per-layer benchmark of linesearch.
//
//   lsbench --workload svc_hot --seed 1 --seconds 15 --trace 0
//   lsbench --workload svc_hot --seed 1 --seconds 15 --trace 1 --spans s.json
//   lsbench --host
//
// --trace 0 measures the end-to-end metrics of one workload; --trace 1
// runs the traced profile of the same seeded inputs and reports the
// per-layer metrics (README.md has both catalogues).  The last line of
// stdout is the JSON result {"correct", "attempted", "failed",
// "metrics"}; a readable table goes to stderr.  Exit status: 0 when every
// answer was right, 1 when one was wrong or the run failed, 2 on a usage
// error.
#include <sched.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checker.hpp"
#include "eval/kernels.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "server_process.hpp"
#include "spans.hpp"
#include "svc_load.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace lsbench {
namespace {

/// Set-ups per measured run; setup_s is their median.  A set-up of
/// svc_hot, svc_cold or batch_sweep takes 5-30 ms, so 21 of them cost
/// under a second; one of svc_mixed takes about 0.6 s, so it gets 5.
int setups(const Workload workload) {
  return workload == Workload::kSvcMixed ? 5 : 21;
}
/// Workers of the correctness gate's reference evaluations.
constexpr int kGateThreads = 4;
/// Client calls per second one connection could make at most (a 5 us
/// round trip, about a tenth of the measured one).  A traced run reserves
/// this many spans per traced second for each connection; only the pages
/// it writes become resident.
constexpr double kMaxCallsPerSecond = 200000;

/// Requests a traced run replays in process: enough for svc_mixed's
/// cache to fill and evict, few enough that the doubled miss work of
/// svc_cold and svc_mixed stays within a few seconds.
int replay_requests(const Workload workload) {
  switch (workload) {
    case Workload::kSvcHot: return 10000;
    case Workload::kSvcCold: return 1500;
    case Workload::kSvcMixed: return 12000;
    case Workload::kBatchSweep: break;
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void count(const LoadPhase& phase) {
    attempted += phase.calls;
    failed += phase.failed;
  }
  void add(const std::string& name, const double value,
           const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::logic_error("metric " + name + " has no finite value");
    }
    metrics.push_back({name, value, unit});
  }
};

double seconds_since(const std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double ratio(const std::uint64_t part, const std::uint64_t whole) {
  return static_cast<double>(part) / static_cast<double>(whole);
}

/// A socket path relative to the working directory: AF_UNIX paths are
/// limited to 107 bytes, whatever the checkout's absolute path.
std::string socket_path(const int spawn) {
  return "lsbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(spawn) + ".sock";
}

/// A serve_main child with the closed-loop load on it, warmed up.
struct Served {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<SvcLoad> load;
};

Served serve(const Workload workload, const KeyTable& table,
             const std::uint64_t seed, const int spawn, Report& report) {
  Served served;
  served.server = std::make_unique<ServerProcess>(
      LSBENCH_SERVE_MAIN, socket_path(spawn), kServerThreads);
  served.load = std::make_unique<SvcLoad>(served.server->socket_path(),
                                          workload, table, seed);
  report.count(served.load->warm_up());
  return served;
}

/// Drain the server, then run the correctness gate over every reply.
DrainCounters finish(Served& served, Report& report) {
  served.load->disconnect();
  const DrainCounters drain = served.server->stop();
  report.failed += check_replies(served.load->logs(), kGateThreads);
  return drain;
}

Report measure_service(const Workload workload, const std::uint64_t seed,
                       const int seconds) {
  const KeyTable table = make_key_table(workload, seed);
  Report report;
  std::vector<double> setup_s;
  Served served;
  for (int spawn = 0; spawn < setups(workload); ++spawn) {
    if (served.server) {
      served.load->disconnect();
      (void)served.server->stop();
    }
    const std::int64_t start = now_ns();
    served = serve(workload, table, seed, spawn, report);
    setup_s.push_back(seconds_since(start));
  }
  const LoadPhase window = served.load->run_for(seconds);
  report.count(window);
  const double rss = served.server->peak_rss_mib();
  (void)finish(served, report);

  report.add("qps", static_cast<double>(window.calls) / window.seconds, "1/s");
  report.add("p50_us", percentile(window.latency_us, 50), "us");
  report.add("p90_us", percentile(window.latency_us, 90), "us");
  report.add("setup_s", percentile(setup_s, 50), "s");
  report.add("peak_rss_mb", rss, "MiB");
  return report;
}

Report measure_batch(const std::uint64_t seed, const int seconds) {
  Report report;
  std::vector<double> setup_s;
  std::unique_ptr<const BatchInputs> inputs;
  BatchOutputs warm;
  for (int setup = 0; setup < setups(Workload::kBatchSweep); ++setup) {
    inputs.reset();
    const std::int64_t start = now_ns();
    inputs = std::make_unique<const BatchInputs>(seed);
    warm = run_batch_call(*inputs, kBatchThreads);
    setup_s.push_back(seconds_since(start));
  }
  const BatchOutputs reference = reference_outputs(*inputs);
  ++report.attempted;
  if (!same_outputs(warm, reference)) ++report.failed;
  const LoadPhase window = run_batch_loop(*inputs, reference, seconds);
  report.count(window);

  report.add("qps",
             kJobsPerBatchCall * static_cast<double>(window.calls) /
                 window.seconds,
             "1/s");
  report.add("p50_us", percentile(window.latency_us, 50), "us");
  report.add("p90_us", percentile(window.latency_us, 90), "us");
  report.add("setup_s", percentile(setup_s, 50), "s");
  report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  return report;
}

/// Untraced and traced phases of one closed loop.
struct TracedLoad {
  LoadPhase untraced;
  LoadPhase traced;

  /// traced / untraced p50 - 1.
  [[nodiscard]] double overhead() const {
    return percentile(traced.latency_us, 50) /
               percentile(untraced.latency_us, 50) -
           1;
  }
};

/// `seconds` of a closed loop in kTraceSlices alternating untraced and
/// traced slices, so neither kind always runs on the warmer system.
/// `run(slice_seconds, traced)` runs one slice.
template <typename Run>
TracedLoad alternate(const double seconds, const Run& run, Report& report) {
  constexpr int kTraceSlices = 4;
  TracedLoad load;
  for (int slice = 0; slice < kTraceSlices; ++slice) {
    const bool traced = slice % 2 == 1;
    const LoadPhase part = run(seconds / kTraceSlices, traced);
    report.count(part);
    merge_into(traced ? load.traced : load.untraced, part);
  }
  return load;
}

/// The service stack under one workload's stream: alternating untraced
/// and traced closed-loop slices on one server, then its drain counters.
struct ServiceProfile {
  TracedLoad load;
  DrainCounters drain;
  std::vector<SpanBuffer> client_spans;
};

/// Spans one closed loop may record in `seconds` of alternating slices:
/// the traced slices cover half of it.
std::size_t traced_capacity(const double seconds) {
  return static_cast<std::size_t>(seconds / 2 * kMaxCallsPerSecond);
}

ServiceProfile profile_service(const Workload workload, const KeyTable& table,
                               const std::uint64_t seed, const double seconds,
                               Report& report) {
  ServiceProfile profile;
  profile.client_spans.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    profile.client_spans.emplace_back("client" + std::to_string(c),
                                      traced_capacity(seconds));
  }
  Served served = serve(workload, table, seed, 0, report);
  profile.load = alternate(
      seconds,
      [&](const double slice, const bool traced) {
        return served.load->run_for(slice,
                                    traced ? &profile.client_spans : nullptr);
      },
      report);
  profile.drain = finish(served, report);
  return profile;
}

Report profile(const Workload workload, const std::uint64_t seed,
               const int seconds, const std::string& spans_path) {
  Report report;
  const auto inputs = std::make_unique<const BatchInputs>(seed);
  const BatchOutputs reference = reference_outputs(*inputs);
  SpanBuffer batch_spans("batch",
                         traced_capacity(seconds) + 3 * kBatchProbeReps);

  // The service rows come from the workload's own stream.  batch_sweep
  // never reaches the service, but a traced run reports every per-layer
  // metric, so its service rows come from svc_hot's stream; its
  // trace.overhead is that of its own batch calls.
  const Workload svc_workload = is_service(workload) ? workload
                                                     : Workload::kSvcHot;
  const KeyTable table = make_key_table(svc_workload, seed);
  ServiceProfile svc;
  double trace_overhead = 0;
  if (is_service(workload)) {
    svc = profile_service(workload, table, seed, seconds, report);
    trace_overhead = svc.load.overhead();
  } else {
    ++report.attempted;
    if (!same_outputs(run_batch_call(*inputs, kBatchThreads), reference)) {
      ++report.failed;
    }
    trace_overhead =
        alternate(
            seconds,
            [&](const double slice, const bool traced) {
              return run_batch_loop(*inputs, reference, slice,
                                    traced ? &batch_spans : nullptr);
            },
            report)
            .overhead();
    svc = profile_service(svc_workload, table, seed, seconds / 4.0, report);
  }

  const int replayed = replay_requests(svc_workload);
  SpanBuffer replay_spans(
      "replay",
      static_cast<std::size_t>((replayed + kRevisits) * kSpansPerReplay));
  const ReplayResult replay =
      replay_handle_line(svc_workload, table, seed, replayed, replay_spans);
  report.attempted += replay.requests;
  report.failed += replay.mismatches;

  SpanBuffer probe_spans("probe", 16 * kKernelSamples);
  const KernelProbe kernels = probe_kernels(seed, probe_spans);
  report.attempted += kernels.samples;
  report.failed += kernels.mismatches;

  report.attempted += 3 * kBatchProbeReps;
  report.failed += probe_batch(*inputs, reference, batch_spans);

  const std::vector<const SpanBuffer*> buffers = {
      &svc.client_spans[0], &svc.client_spans[1], &replay_spans, &probe_spans,
      &batch_spans};
  // A full buffer drops spans, and the medians over it would be partial.
  for (const SpanBuffer* buffer : buffers) {
    if (buffer->dropped() > 0) {
      throw std::runtime_error("span buffer " + buffer->label() +
                               " dropped " +
                               std::to_string(buffer->dropped()) + " spans");
    }
  }

  const std::vector<const SpanBuffer*> client = {&svc.client_spans[0],
                                                 &svc.client_spans[1]};
  const std::vector<const SpanBuffer*> replay_buffer = {&replay_spans};
  const std::vector<const SpanBuffer*> probe_buffer = {&probe_spans};
  const std::vector<const SpanBuffer*> batch_buffer = {&batch_spans};
  const auto replayed_us = [&](const char* name) {
    return median_self_us(replay_buffer, name);
  };
  const auto probed_us = [&](const char* name) {
    return median_self_us(probe_buffer, name);
  };
  const auto batch_ms = [&](const char* name) {
    return median_self_us(batch_buffer, name) / 1e3;
  };

  const double call_us = median_self_us(client, "client.call");
  const double handle_us = replayed_us("server.handle_line");
  report.add("client.call_us", call_us, "us");
  report.add("client.attempts_per_call",
             ratio(svc.load.untraced.attempts + svc.load.traced.attempts,
                   svc.load.untraced.calls + svc.load.traced.calls),
             "attempts/call");
  report.add("server.handle_line_us", handle_us, "us");
  report.add("server.transport_us", call_us - handle_us, "us");
  report.add("server.parse_us", replayed_us("server.parse"), "us");
  report.add("server.render_us", replayed_us("server.render"), "us");
  report.add("server.rejected_share",
             ratio(svc.drain.rejected, svc.drain.requests), "ratio");
  report.add("query.canonicalize_us", replayed_us("query.canonicalize"), "us");
  report.add("query.key_us", replayed_us("query.key"), "us");
  report.add("query.evaluate_hit_us", replayed_us("query.evaluate_hit"), "us");
  report.add("query.evaluate_miss_us", replayed_us("query.evaluate_miss"),
             "us");
  report.add("query.hit_rate", ratio(svc.drain.cache_hits, svc.drain.requests),
             "ratio");
  report.add("query.coalesced_share",
             ratio(svc.drain.coalesced, svc.drain.requests), "ratio");
  report.add("query.evictions_per_kreq",
             1e3 * ratio(replay.stats.evictions, replay.requests), "1/kreq");
  report.add("query.backend_builds",
             static_cast<double>(replay.stats.backend_builds), "count");
  report.add("sim.build_unbounded_us", probed_us("sim.build_unbounded"), "us");
  report.add("sim.build_dense_us", probed_us("sim.build_dense"), "us");
  report.add("kernels.scan_us_narrow", probed_us("kernels.scan_narrow"), "us");
  report.add("kernels.scan_us_wide", probed_us("kernels.scan_wide"), "us");
  report.add("kernels.probes_per_scan", kernels.probes_per_scan, "count");
  report.add("byzantine.scan_us", probed_us("byzantine.scan"), "us");
  report.add("expectation.scan_us", probed_us("expectation.scan"), "us");
  report.add("crash.scan_us", probed_us("crash.scan"), "us");
  const double serial_ms = batch_ms("batch.serial");
  const double pooled_ms = batch_ms("batch.pooled");
  report.add("batch.serial_ms", serial_ms, "ms");
  report.add("batch.pooled_ms", pooled_ms, "ms");
  report.add("batch.kernel_serial_ms", batch_ms("batch.kernel_serial"), "ms");
  report.add("batch.speedup", serial_ms / pooled_ms, "x");
  report.add("trace.overhead", trace_overhead, "ratio");

  const double stages_us = percentile(replay.handle_stages_us, 50);
  std::fprintf(stderr,
               "lsbench: replayed stages parse + evaluate + render, median "
               "%.3f us vs handle_line %.3f us (%+.1f%%)\n",
               stages_us, handle_us, 100 * (stages_us / handle_us - 1));

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    write_spans_json(out, workload_name(workload), seed, buffers);
    if (!out) throw std::runtime_error("cannot write " + spans_path);
  }
  return report;
}

std::string number(const double value) {
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return error == std::errc{} ? std::string(buffer, end) : "0";
}

void print(const Report& report) {
  for (const Metric& metric : report.metrics) {
    std::fprintf(stderr, "  %-28s %16.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  std::fprintf(stderr, "  attempted %llu, failed %llu\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed));
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted) +
          ", \"failed\": " + std::to_string(report.failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

void print_host() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  std::cout << "{\"nproc\": " << nproc << ", \"compiler\": \""
            << LSBENCH_COMPILER << "\", \"build_type\": \""
            << LSBENCH_BUILD_TYPE << "\", \"LINESEARCH_SIMD\": "
            << (linesearch::kernels::simd_compiled() ? "true" : "false")
            << ", \"LINESEARCH_OBS\": "
            << (linesearch::obs::kEnabled ? "true" : "false")
            << ", \"server_threads\": " << kServerThreads
            << ", \"client_connections\": " << kConnections
            << ", \"batch_threads\": " << kBatchThreads << "}" << std::endl;
}

}  // namespace
}  // namespace lsbench

int main(const int argc, const char* const* argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  int seconds = 15;
  int trace = 0;
  std::string spans_path;
  bool host = false;

  linesearch::CliParser cli(
      "lsbench", "end-to-end and per-layer benchmark of linesearch");
  cli.add_option("workload", &workload_name, "NAME",
                 "svc_hot | svc_cold | svc_mixed | batch_sweep");
  cli.add_option("seed", &seed, "N", "input seed (default 1)");
  cli.add_option("seconds", &seconds, "S",
                 "measured window per run (default 15)", 1);
  cli.add_option("trace", &trace, "0|1",
                 "1 = traced run reporting the per-layer metrics");
  cli.add_option("spans", &spans_path, "PATH",
                 "traced run: write every span here as JSON");
  cli.add_flag("host", &host, "print the host block as JSON and exit");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << '\n' << cli.usage();
    return 2;
  }
  if (host) {
    lsbench::print_host();
    return 0;
  }
  const std::optional<lsbench::Workload> workload =
      lsbench::workload_from_name(workload_name);
  if (!workload || trace < 0 || trace > 1) {
    std::cerr << "lsbench: need --workload NAME and --trace 0|1\n"
              << cli.usage();
    return 2;
  }

  try {
    const lsbench::Report report =
        trace == 1 ? lsbench::profile(*workload, seed, seconds, spans_path)
        : lsbench::is_service(*workload)
            ? lsbench::measure_service(*workload, seed, seconds)
            : lsbench::measure_batch(seed, seconds);
    std::fprintf(stderr, "lsbench: %s seed %llu, %s\n", workload_name.c_str(),
                 static_cast<unsigned long long>(seed),
                 trace == 1 ? "per-layer (traced)" : "end-to-end");
    lsbench::print(report);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& failure) {
    std::cerr << "lsbench: " << failure.what() << '\n';
    return 1;
  }
}
