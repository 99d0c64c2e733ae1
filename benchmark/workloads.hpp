// workloads.hpp — the four lsbench workloads and their seeded inputs.
//
// Every input is a pure function of the --seed argument: the key tables,
// each connection's request sequence and the batch call's positions.
// serve_main receives only the generated request lines.
//
//   svc_hot      uniform draw over 205 keys (41 regime pairs x 5 windows)
//                that fit the result LRU: transport, wire codec, cache hit.
//   svc_cold     a fresh key per request (75% kNone, 25% feasible
//                kByzantine, window_hi log-uniform in [2^8, 2^16]): the
//                miss path — backend lookup plus the measure_cr scan.
//   svc_mixed    Zipf(1.0) over 4096 keys of all four regimes, larger than
//                the LRU; both connections replay one sequence, so hits,
//                evictions and coalesced misses all occur.
//   batch_sweep  in-process measure_cr_batch / k_profile_batch calls on
//                dense fleets: eval/batch and util/parallel, no service.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eval/batch.hpp"
#include "eval/cr_eval.hpp"
#include "sim/fleet.hpp"
#include "spans.hpp"
#include "svc/query.hpp"
#include "util/rng.hpp"

namespace lsbench {

enum class Workload { kSvcHot, kSvcCold, kSvcMixed, kBatchSweep };

/// svc_hot / svc_cold / svc_mixed / batch_sweep; nullopt when unknown.
[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);
[[nodiscard]] inline bool is_service(const Workload workload) {
  return workload != Workload::kBatchSweep;
}

/// Client connections of a service workload, each a closed loop.
inline constexpr int kConnections = 2;
/// serve_main worker threads: 2 client threads + 2 workers fit 4 cores.
inline constexpr int kServerThreads = 2;
/// BatchOptions::threads of batch_sweep's pooled calls.
inline constexpr int kBatchThreads = 4;

/// A generator seed derived from the run seed, one per input stream.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// The fixed key set a service workload draws from (svc_hot, svc_mixed;
/// empty for svc_cold, whose keys never repeat).
struct KeyTable {
  std::vector<std::string> bodies;  ///< request line after `{"id":N`
  std::vector<double> zipf_cdf;     ///< svc_mixed's rank weights, cumulative
};
[[nodiscard]] KeyTable make_key_table(Workload workload, std::uint64_t seed);

/// svc_cold's fresh-key distribution, window_hi log-uniform in
/// [2^log2_lo, 2^log2_hi] (the kernel probe narrows the range).
[[nodiscard]] linesearch::svc::CrQuery cold_query(linesearch::SplitMix64& rng,
                                                  bool byzantine,
                                                  double log2_lo = 8,
                                                  double log2_hi = 16);

/// svc_mixed's key distribution within one regime.
[[nodiscard]] linesearch::svc::CrQuery mixed_query(
    linesearch::SplitMix64& rng, linesearch::svc::FaultRegime regime);

/// One connection's request sequence: its warm-up requests, then the
/// measured stream, without end.
class RequestStream {
 public:
  RequestStream(Workload workload, const KeyTable& table, std::uint64_t seed,
                int connection);

  /// Write the next request line, carrying `id`, into `line`.  Returns
  /// its key-table index, or -1 for a fresh key.
  int next(long long id, std::string& line);

  /// How many leading requests form this connection's warm-up.
  [[nodiscard]] int warmup_requests() const;

 private:
  Workload workload_;
  const KeyTable& table_;
  linesearch::SplitMix64 rng_;
  int connection_;
  long long position_ = 0;
};

/// batch_sweep's fleets and jobs.  Jobs point into the fleets, so the
/// object never moves.
struct BatchInputs {
  explicit BatchInputs(std::uint64_t seed);
  BatchInputs(const BatchInputs&) = delete;
  BatchInputs& operator=(const BatchInputs&) = delete;

  linesearch::Fleet grid_fleet;  ///< A(7, 4), dense
  linesearch::Fleet wide_a;      ///< A(12, 11), dense to 4 x 2048
  linesearch::Fleet wide_b;      ///< A(12, 10), dense to 4 x 2048
  /// Every fault budget of A(7, 4) x windows {12, 24, 48}: 21 jobs.
  std::vector<linesearch::CrBatchJob> grid_jobs;
  /// A(12, 11) at f = 11 and A(12, 10) at f = 10, window 2048.
  std::vector<linesearch::CrBatchJob> pair_jobs;
  /// 4096 seeded K(x) positions on A(7, 4), |x| log-uniform in [1, 48].
  std::vector<linesearch::Real> positions;
};

/// CR jobs one batch call answers (the K(x) profile is not counted).
inline constexpr int kJobsPerBatchCall = 23;

struct BatchOutputs {
  std::vector<linesearch::CrEvalResult> grid;
  std::vector<linesearch::CrEvalResult> pair;
  std::vector<linesearch::Real> profile;
};

/// One batch_sweep call: the two measure_cr_batch calls and the
/// k_profile_batch call, each with BatchOptions{.threads = threads}.
/// With `spans`, records a batch.call span over batch.grid, batch.pair
/// and batch.profile children.
[[nodiscard]] BatchOutputs run_batch_call(const BatchInputs& inputs,
                                          int threads,
                                          SpanBuffer* spans = nullptr,
                                          std::int64_t req = 0);

}  // namespace lsbench
