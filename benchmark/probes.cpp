#include "probes.hpp"

#include <deque>
#include <string>
#include <vector>

#include "checker.hpp"
#include "core/algorithm.hpp"
#include "eval/byzantine.hpp"
#include "eval/expectation.hpp"
#include "sim/faults.hpp"
#include "svc/server.hpp"

namespace lsbench {

namespace svc = linesearch::svc;

LoadPhase run_batch_loop(const BatchInputs& inputs,
                         const BatchOutputs& reference, const double seconds,
                         SpanBuffer* spans) {
  LoadPhase phase;
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last = start;
  while (last < deadline) {
    const std::int64_t call_start = now_ns();
    const BatchOutputs out =
        run_batch_call(inputs, kBatchThreads, spans,
                       static_cast<std::int64_t>(phase.calls));
    last = now_ns();
    phase.latency_us.push_back(static_cast<double>(last - call_start) / 1e3);
    ++phase.calls;
    ++phase.attempts;
    if (!same_outputs(out, reference)) ++phase.failed;
  }
  phase.seconds = static_cast<double>(last - start) / 1e9;
  return phase;
}

ReplayResult replay_handle_line(const Workload workload, const KeyTable& table,
                                const std::uint64_t seed, const int requests,
                                SpanBuffer& spans) {
  // serve_main's default cache options.  Both instances see the same
  // sequence, so at every request their caches hold the same keys.
  svc::QueryServer server;
  svc::QueryService service;
  ReplayResult result;

  const auto handle = [&](const std::string& line, const std::int64_t req) {
    const std::int64_t start = now_ns();
    std::string bytes = server.handle_line(line);
    spans.add("server.handle_line", start, now_ns(), req);
    return bytes;
  };
  const auto staged = [&](const std::string& line, const std::int64_t req) {
    const svc::QueryService::Stats before = service.stats();
    const std::int32_t root = spans.open("replay", req);
    const std::int64_t parse_start = now_ns();
    const svc::WireRequest request = svc::parse_request(line);
    const std::int64_t canonicalize_start = now_ns();
    const svc::CrQuery canonical = svc::canonicalize_query(request.query);
    const std::int64_t key_start = now_ns();
    (void)svc::query_key(canonical);
    const std::int64_t evaluate_start = now_ns();
    const svc::QueryResult answer = service.evaluate(canonical);
    const std::int64_t render_start = now_ns();
    std::string bytes = svc::render_response(request.id, answer);
    const std::int64_t end = now_ns();
    spans.add("server.parse", parse_start, canonicalize_start, req, root);
    spans.add("query.canonicalize", canonicalize_start, key_start, req, root);
    spans.add("query.key", key_start, evaluate_start, req, root);
    const std::int32_t evaluate =
        spans.add("query.evaluate", evaluate_start, render_start, req, root);
    spans.add("server.render", render_start, end, req, root);
    spans.close(root);
    result.handle_stages_us.push_back(
        static_cast<double>((canonicalize_start - parse_start) +
                            (end - evaluate_start)) /
        1e3);
    const svc::QueryService::Stats after = service.stats();
    spans.rename(evaluate, after.cache_hits > before.cache_hits
                               ? "query.evaluate_hit"
                           : after.coalesced > before.coalesced
                               ? "query.evaluate_coalesced"
                               : "query.evaluate_miss");
    return bytes;
  };
  // Alternate which path goes first, so neither always finds the
  // processor caches warmed by the other.
  const auto replay_one = [&](const std::string& line,
                              const std::int64_t req) {
    std::string real;
    std::string replayed;
    if (req % 2 == 0) {
      real = handle(line, req);
      replayed = staged(line, req);
    } else {
      replayed = staged(line, req);
      real = handle(line, req);
    }
    if (real != replayed) ++result.mismatches;
  };

  std::vector<RequestStream> streams;
  for (int c = 0; c < kConnections; ++c) {
    streams.emplace_back(workload, table, seed, c);
  }
  std::deque<std::string> recent;
  std::string line;
  for (int i = 0; i < requests; ++i) {
    (void)streams[static_cast<std::size_t>(i % kConnections)].next(i + 1,
                                                                    line);
    replay_one(line, i + 1);
    recent.push_back(line);
    if (recent.size() > kRevisits) recent.pop_front();
  }
  result.requests = static_cast<std::uint64_t>(requests);
  result.stats = service.stats();
  std::int64_t req = requests;
  for (const std::string& again : recent) replay_one(again, ++req);
  return result;
}

KernelProbe probe_kernels(const std::uint64_t seed, SpanBuffer& spans) {
  struct Sample {
    svc::CrQuery query;
    const char* scan;
  };
  linesearch::SplitMix64 rng(stream_seed(seed, 6));
  std::vector<Sample> samples;
  for (int i = 0; i < kKernelSamples; ++i) {
    samples.push_back({cold_query(rng, false, 8, 10), "kernels.scan_narrow"});
    samples.push_back({cold_query(rng, false, 14, 16), "kernels.scan_wide"});
    samples.push_back({cold_query(rng, true), "byzantine.scan"});
    samples.push_back(
        {mixed_query(rng, svc::FaultRegime::kCrash), "crash.scan"});
    samples.push_back({mixed_query(rng, svc::FaultRegime::kProbabilistic),
                       "expectation.scan"});
  }

  KernelProbe probe;
  std::vector<double> probes;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const svc::CrQuery query = svc::canonicalize_query(samples[i].query);
    const auto req = static_cast<std::int64_t>(i);
    const bool crash = query.regime == svc::FaultRegime::kCrash;
    const linesearch::ProportionalAlgorithm algorithm(query.n, query.f,
                                                      query.beta);
    const std::int32_t root = spans.open("probe", req);
    const std::int64_t build_start = now_ns();
    const linesearch::Fleet backend =
        crash ? algorithm.build_fleet(4 * query.window_hi)
              : algorithm.build_unbounded_fleet();
    const std::int64_t scan_start = now_ns();
    spans.add(crash ? "sim.build_dense" : "sim.build_unbounded", build_start,
              scan_start, req, root);

    const linesearch::CrEvalOptions options{
        .window_lo = query.window_lo,
        .window_hi = query.window_hi,
        .interior_samples = query.interior_samples,
        .require_finite = query.regime == svc::FaultRegime::kNone};
    linesearch::CrEvalResult scan;
    switch (query.regime) {
      case svc::FaultRegime::kNone:
        scan = linesearch::measure_cr(backend, query.f, options);
        break;
      case svc::FaultRegime::kByzantine: {
        const linesearch::ByzantineCrResult quorum =
            linesearch::measure_byzantine_cr(backend, query.f, options);
        scan.cr = quorum.cr;
        scan.argmax = quorum.argmax;
        scan.probes = quorum.probes;
        break;
      }
      case svc::FaultRegime::kCrash:
        scan = linesearch::measure_cr(
            linesearch::truncate_at_crashes(backend, query.crash_times),
            query.f, options);
        break;
      case svc::FaultRegime::kProbabilistic:
        scan = linesearch::measure_expected_cr(
            backend, {.p = query.fault_p, .eval = options});
        break;
    }
    spans.add(samples[i].scan, scan_start, now_ns(), req, root);
    spans.close(root);

    if (query.regime == svc::FaultRegime::kNone) {
      probes.push_back(scan.probes);
    }
    const svc::QueryResult direct = svc::evaluate_query_direct(query);
    if (direct.cr != scan.cr || direct.argmax != scan.argmax ||
        direct.probes != scan.probes) {
      ++probe.mismatches;
    }
  }
  probe.samples = samples.size();
  probe.probes_per_scan = percentile(probes, 50);
  return probe;
}

std::uint64_t probe_batch(const BatchInputs& inputs,
                          const BatchOutputs& reference, SpanBuffer& spans) {
  std::uint64_t mismatches = 0;
  const auto timed = [&](const char* name, const int rep, const auto& call) {
    const std::int64_t start = now_ns();
    const BatchOutputs out = call();
    spans.add(name, start, now_ns(), rep);
    if (!same_outputs(out, reference)) ++mismatches;
  };
  for (int rep = 0; rep < kBatchProbeReps; ++rep) {
    timed("batch.serial", rep, [&] { return run_batch_call(inputs, 1); });
    timed("batch.pooled", rep,
          [&] { return run_batch_call(inputs, kBatchThreads); });
    timed("batch.kernel_serial", rep,
          [&] { return reference_outputs(inputs); });
  }
  return mismatches;
}

}  // namespace lsbench
