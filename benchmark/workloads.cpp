#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "core/algorithm.hpp"
#include "eval/validation.hpp"
#include "svc/client.hpp"
#include "util/error.hpp"

namespace lsbench {
namespace {

using linesearch::kInfinity;
using linesearch::Real;
using linesearch::SplitMix64;
using linesearch::svc::CrQuery;
using linesearch::svc::FaultRegime;

/// The paper's proportional-regime grid, f < n < 2f+2 for n <= 12.
const std::vector<std::pair<int, int>>& regime_pairs() {
  static const std::vector<std::pair<int, int>> pairs =
      linesearch::proportional_regime_pairs(12);
  return pairs;
}

/// The pairs with n <= 8: the expectation engine's cost grows fast with
/// n, and n <= 8 is the grid its own sweep (expectation_sweep) uses.
const std::vector<std::pair<int, int>>& small_pairs() {
  static const std::vector<std::pair<int, int>> pairs =
      linesearch::proportional_regime_pairs(8);
  return pairs;
}

template <typename T>
const T& pick(SplitMix64& rng, const std::vector<T>& items) {
  return items[rng.next() % items.size()];
}

Real log_uniform(SplitMix64& rng, const double log2_lo, const double log2_hi) {
  return std::exp2(rng.uniform(log2_lo, log2_hi));
}

CrQuery pair_query(const std::pair<int, int>& pair, const FaultRegime regime,
                   const Real window_hi, const int interior_samples) {
  CrQuery query;
  query.n = pair.first;
  query.f = pair.second;
  query.regime = regime;
  query.window_hi = window_hi;
  query.interior_samples = interior_samples;
  return query;
}

/// Request line of `query` after its `{"id":N` prefix.
std::string request_body(const CrQuery& query) {
  const std::string line = linesearch::svc::render_request(0, query);
  const std::string prefix = "{\"id\":0";
  linesearch::expects(line.rfind(prefix, 0) == 0,
                      "lsbench: unexpected request rendering: " + line);
  return line.substr(prefix.size());
}

/// svc_hot: 5 windows per regime pair, 205 kNone keys.  The LRU shards
/// by regime pair and no shard receives more than 128 of them, so one
/// pass fills the cache and nothing is evicted afterwards.
KeyTable hot_table() {
  KeyTable table;
  for (const auto& pair : regime_pairs()) {
    for (const Real window : {64.0L, 256.0L, 1024.0L, 4096.0L, 16384.0L}) {
      table.bodies.push_back(
          request_body(pair_query(pair, FaultRegime::kNone, window, 4)));
    }
  }
  return table;
}

constexpr int kMixedKeys = 4096;

/// svc_mixed: 4096 distinct keys, regimes none / byzantine / crash /
/// probabilistic at 40 / 15 / 15 / 30 percent, in seeded random order;
/// key i has Zipf(1.0) weight 1 / (i + 1).
KeyTable mixed_table(const std::uint64_t seed) {
  SplitMix64 rng(stream_seed(seed, 1));
  std::vector<FaultRegime> regimes;
  const std::pair<FaultRegime, int> shares[] = {
      {FaultRegime::kByzantine, 614},
      {FaultRegime::kCrash, 614},
      {FaultRegime::kProbabilistic, 1229}};
  for (const auto& [regime, count] : shares) {
    regimes.insert(regimes.end(), count, regime);
  }
  regimes.resize(kMixedKeys, FaultRegime::kNone);
  for (std::size_t i = regimes.size() - 1; i > 0; --i) {
    std::swap(regimes[i], regimes[rng.next() % (i + 1)]);
  }

  KeyTable table;
  std::unordered_set<std::string> seen;
  for (const FaultRegime regime : regimes) {
    std::string body = request_body(mixed_query(rng, regime));
    while (!seen.insert(body).second) {
      body = request_body(mixed_query(rng, regime));
    }
    table.bodies.push_back(std::move(body));
  }
  double total = 0;
  for (int rank = 1; rank <= kMixedKeys; ++rank) {
    total += 1.0 / rank;
    table.zipf_cdf.push_back(total);
  }
  return table;
}

}  // namespace

std::optional<Workload> workload_from_name(const std::string_view name) {
  for (const Workload workload : {Workload::kSvcHot, Workload::kSvcCold,
                                  Workload::kSvcMixed, Workload::kBatchSweep}) {
    if (name == workload_name(workload)) return workload;
  }
  return std::nullopt;
}

const char* workload_name(const Workload workload) {
  switch (workload) {
    case Workload::kSvcHot: return "svc_hot";
    case Workload::kSvcCold: return "svc_cold";
    case Workload::kSvcMixed: return "svc_mixed";
    case Workload::kBatchSweep: return "batch_sweep";
  }
  return "unknown";
}

std::uint64_t stream_seed(const std::uint64_t seed,
                          const std::uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  return mix.next();
}

KeyTable make_key_table(const Workload workload, const std::uint64_t seed) {
  switch (workload) {
    case Workload::kSvcHot: return hot_table();
    case Workload::kSvcMixed: return mixed_table(seed);
    case Workload::kSvcCold:
    case Workload::kBatchSweep: break;
  }
  return {};
}

CrQuery cold_query(SplitMix64& rng, const bool byzantine,
                   const double log2_lo, const double log2_hi) {
  // Feasible Byzantine pairs sit on the diagonal n = 2f + 1.
  static const std::vector<std::pair<int, int>> diagonal = {
      {3, 1}, {5, 2}, {7, 3}, {9, 4}, {11, 5}};
  static const std::vector<int> interiors = {4, 16, 64};
  const auto& pair =
      byzantine ? pick(rng, diagonal) : pick(rng, regime_pairs());
  const Real window = log_uniform(rng, log2_lo, log2_hi);
  return pair_query(pair,
                    byzantine ? FaultRegime::kByzantine : FaultRegime::kNone,
                    window, pick(rng, interiors));
}

CrQuery mixed_query(SplitMix64& rng, const FaultRegime regime) {
  static const std::vector<int> interiors = {4, 16};
  static const std::vector<Real> fault_ps = {0.05L, 0.1L, 0.2L,
                                             0.3L,  0.5L, 0.7L};
  switch (regime) {
    case FaultRegime::kNone:
    case FaultRegime::kByzantine: {
      const auto& pair = pick(rng, regime_pairs());
      const Real window = log_uniform(rng, 6, 12);
      return pair_query(pair, regime, window, pick(rng, interiors));
    }
    case FaultRegime::kCrash: {
      // Crash-stop 1..f robots at times in [window, 4 * window]; each key
      // has its own window, hence its own dense backend.
      const auto& pair = pick(rng, regime_pairs());
      CrQuery query = pair_query(pair, regime, log_uniform(rng, 4, 8), 4);
      query.crash_times.assign(static_cast<std::size_t>(query.n), kInfinity);
      const int crashes = 1 + static_cast<int>(rng.next() %
                                               static_cast<unsigned>(query.f));
      for (int c = 0; c < crashes; ++c) {
        query.crash_times[rng.next() % query.crash_times.size()] =
            query.window_hi * rng.uniform(1, 4);
      }
      return query;
    }
    case FaultRegime::kProbabilistic: {
      const auto& pair = pick(rng, small_pairs());
      CrQuery query = pair_query(pair, regime, log_uniform(rng, 2, 4), 0);
      query.fault_p = pick(rng, fault_ps);
      return query;
    }
  }
  return {};
}

RequestStream::RequestStream(const Workload workload, const KeyTable& table,
                             const std::uint64_t seed, const int connection)
    // svc_mixed's connections replay ONE sequence; the others draw
    // independently per connection.
    : workload_(workload),
      table_(table),
      rng_(stream_seed(seed, workload == Workload::kSvcMixed
                                 ? 2
                                 : 10 + static_cast<std::uint64_t>(connection))),
      connection_(connection) {}

int RequestStream::warmup_requests() const {
  // svc_hot / svc_cold: the connections split one pass over the key
  // table / the regime pairs.  svc_mixed: a prefix of the stream.
  const auto share = [this](const std::size_t total) {
    return static_cast<int>((total + kConnections - 1 -
                             static_cast<std::size_t>(connection_)) /
                            kConnections);
  };
  switch (workload_) {
    case Workload::kSvcHot: return share(table_.bodies.size());
    case Workload::kSvcCold: return share(regime_pairs().size());
    case Workload::kSvcMixed: return 2048;
    case Workload::kBatchSweep: break;
  }
  return 0;
}

int RequestStream::next(const long long id, std::string& line) {
  const bool warm_up = position_ < warmup_requests();
  const auto pass_index = static_cast<std::size_t>(
      connection_ + kConnections * position_);
  ++position_;
  int key = -1;
  std::string fresh;
  switch (workload_) {
    case Workload::kSvcHot:
      key = static_cast<int>(warm_up ? pass_index
                                     : rng_.next() % table_.bodies.size());
      break;
    case Workload::kSvcMixed: {
      const double u = static_cast<double>(rng_.next() >> 11) * 0x1.0p-53 *
                       table_.zipf_cdf.back();
      key = static_cast<int>(
          std::upper_bound(table_.zipf_cdf.begin(), table_.zipf_cdf.end(), u) -
          table_.zipf_cdf.begin());
      key = std::min(key, static_cast<int>(table_.zipf_cdf.size()) - 1);
      break;
    }
    case Workload::kSvcCold:
      // Warm-up: one request per regime pair at a window (100) outside
      // the stream's range, so every stream key stays fresh.
      fresh = request_body(
          warm_up ? pair_query(regime_pairs()[pass_index], FaultRegime::kNone,
                               100, 4)
                  : cold_query(rng_, rng_.chance(0.25L)));
      break;
    case Workload::kBatchSweep: break;
  }
  line = "{\"id\":" + std::to_string(id);
  line += key >= 0 ? table_.bodies[static_cast<std::size_t>(key)] : fresh;
  return key;
}

BatchInputs::BatchInputs(const std::uint64_t seed)
    : grid_fleet(linesearch::ProportionalAlgorithm(7, 4).build_fleet(2000)),
      wide_a(linesearch::ProportionalAlgorithm(12, 11).build_fleet(4 * 2048)),
      wide_b(linesearch::ProportionalAlgorithm(12, 10).build_fleet(4 * 2048)) {
  for (int f = 0; f < static_cast<int>(grid_fleet.size()); ++f) {
    for (const Real window : {12.0L, 24.0L, 48.0L}) {
      grid_jobs.push_back(
          {&grid_fleet, f, {.window_hi = window, .interior_samples = 16}});
    }
  }
  const linesearch::CrEvalOptions wide{.window_hi = 2048,
                                       .interior_samples = 16};
  pair_jobs = {{&wide_a, 11, wide}, {&wide_b, 10, wide}};
  SplitMix64 rng(stream_seed(seed, 4));
  positions.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    const Real magnitude = log_uniform(rng, 0, std::log2(48.0));
    positions.push_back(rng.chance(0.5L) ? magnitude : -magnitude);
  }
}

BatchOutputs run_batch_call(const BatchInputs& inputs, const int threads,
                            SpanBuffer* spans, const std::int64_t req) {
  const linesearch::BatchOptions options{.threads = threads};
  BatchOutputs out;
  if (spans == nullptr) {
    out.grid = linesearch::measure_cr_batch(inputs.grid_jobs, options);
    out.pair = linesearch::measure_cr_batch(inputs.pair_jobs, options);
    out.profile = linesearch::k_profile_batch(inputs.grid_fleet, 4,
                                              inputs.positions, options);
    return out;
  }
  const std::int32_t call = spans->open("batch.call", req);
  std::int64_t start = now_ns();
  out.grid = linesearch::measure_cr_batch(inputs.grid_jobs, options);
  std::int64_t end = now_ns();
  spans->add("batch.grid", start, end, req, call);
  start = end;
  out.pair = linesearch::measure_cr_batch(inputs.pair_jobs, options);
  end = now_ns();
  spans->add("batch.pair", start, end, req, call);
  start = end;
  out.profile = linesearch::k_profile_batch(inputs.grid_fleet, 4,
                                            inputs.positions, options);
  spans->add("batch.profile", start, now_ns(), req, call);
  spans->close(call);
  return out;
}

}  // namespace lsbench
