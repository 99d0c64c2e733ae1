// probes.hpp — the in-process parts of lsbench: batch_sweep's closed loop
// and the layer probes of a traced run.  Every probe times calls to a
// layer's public functions from outside; nothing in the library is
// instrumented for it.
#pragma once

#include <cstdint>
#include <vector>

#include "spans.hpp"
#include "svc/query.hpp"
#include "svc_load.hpp"
#include "workloads.hpp"

namespace lsbench {

/// batch_sweep's closed loop: pooled batch calls until `seconds` pass,
/// every result checked against `reference`.  With `spans`, each call is
/// traced (run_batch_call).
[[nodiscard]] LoadPhase run_batch_loop(const BatchInputs& inputs,
                                       const BatchOutputs& reference,
                                       double seconds,
                                       SpanBuffer* spans = nullptr);

struct ReplayResult {
  std::uint64_t requests = 0;    ///< replayed, before the revisit pass
  std::uint64_t mismatches = 0;  ///< replayed bytes != handle_line bytes
  /// The replay service's counters, before the revisit pass.
  linesearch::svc::QueryService::Stats stats;
  /// Per replayed request: parse + evaluate + render, the stages that
  /// make up handle_line (evaluate repeats canonicalize and key inside).
  std::vector<double> handle_stages_us;
};

/// Spans per replayed request: handle_line, the replay root, 5 stages.
inline constexpr int kSpansPerReplay = 7;
/// Requests the revisit pass re-asks at the end of a replay.
inline constexpr int kRevisits = 256;

/// Replay the first `requests` of a service workload's stream (its
/// connections interleaved, warm-up first) in process, twice per line:
/// QueryServer::handle_line, timed as one span, and handle_line's public
/// parts — parse_request, canonicalize_query, query_key,
/// QueryService::evaluate, render_response — timed as stages on a second
/// service that sees the same sequence.  Each evaluate is classified
/// hit / coalesced / miss from QueryService::Stats deltas.  The replay
/// ends by re-asking its last kRevisits requests, so the hit path is
/// timed even on svc_cold, whose stream never repeats a key.
[[nodiscard]] ReplayResult replay_handle_line(Workload workload,
                                              const KeyTable& table,
                                              std::uint64_t seed,
                                              int requests, SpanBuffer& spans);

struct KernelProbe {
  std::uint64_t samples = 0;
  std::uint64_t mismatches = 0;  ///< composed answer != evaluate_query_direct
  double probes_per_scan = 0;    ///< median over the kNone scans
};

/// Samples per kind in the kernel probe.
inline constexpr int kKernelSamples = 48;

/// Time each part of evaluate_query_direct — the backend build, then
/// measure_cr / measure_byzantine_cr / truncate_at_crashes + measure_cr /
/// measure_expected_cr — on a seeded sample of miss keys: kNone keys of
/// svc_cold's distribution narrowed to window_hi <= 2^10 and >= 2^14,
/// feasible kByzantine keys of svc_cold, crash and probabilistic keys of
/// svc_mixed.  The sample is the same for every workload.
[[nodiscard]] KernelProbe probe_kernels(std::uint64_t seed, SpanBuffer& spans);

/// Repetitions of each batch probe variant.
inline constexpr int kBatchProbeReps = 11;

/// One batch_sweep call three ways, interleaved kBatchProbeReps times:
/// batch.serial (threads = 1), batch.pooled (threads = kBatchThreads) and
/// batch.kernel_serial (plain measure_cr and k_profile, no visit cache).
/// Returns how many outputs differ from `reference`.
[[nodiscard]] std::uint64_t probe_batch(const BatchInputs& inputs,
                                        const BatchOutputs& reference,
                                        SpanBuffer& spans);

}  // namespace lsbench
