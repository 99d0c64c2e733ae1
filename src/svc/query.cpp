#include "svc/query.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string_view>
#include <utility>

#include "core/algorithm.hpp"
#include "core/competitive.hpp"
#include "eval/expectation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "svc/server.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace linesearch::svc {
namespace {

/// Behaviour counters.  svc.queries is deterministic (one per
/// canonicalized call); the cache/coalescing/backends counters depend on
/// arrival timing under concurrency, so they carry deterministic = false
/// and the determinism tests filter them out.
struct SvcMetrics {
  obs::MetricId queries;
  obs::MetricId cache_hits;
  obs::MetricId coalesced;
  obs::MetricId evaluations;
  obs::MetricId backend_builds;
  obs::MetricId backend_hits;
  obs::MetricId profile_grows;

  static const SvcMetrics& instance() {
    static const SvcMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::instance();
      SvcMetrics m;
      m.queries = registry.counter("svc.queries");
      m.cache_hits =
          registry.counter("svc.cache_hits", /*deterministic=*/false);
      m.coalesced =
          registry.counter("svc.coalesced", /*deterministic=*/false);
      m.evaluations =
          registry.counter("svc.evaluations", /*deterministic=*/false);
      m.backend_builds =
          registry.counter("svc.backend_builds", /*deterministic=*/false);
      m.backend_hits =
          registry.counter("svc.backend_hits", /*deterministic=*/false);
      m.profile_grows =
          registry.counter("svc.profile_grows", /*deterministic=*/false);
      return m;
    }();
    return metrics;
  }
};

void bump(std::atomic<std::uint64_t>& tally) {
  tally.fetch_add(1, std::memory_order_relaxed);
}

CrEvalOptions eval_options_of(const CrQuery& query,
                              const bool require_finite) {
  CrEvalOptions options;
  options.window_lo = query.window_lo;
  options.window_hi = query.window_hi;
  options.interior_samples = query.interior_samples;
  options.require_finite = require_finite;
  return options;
}

/// Dense extent the crash regime builds to: comfortably past the probe
/// window so an UNcrashed fleet never leaves a probe undetected (any inf
/// in a crash result is then attributable to the crashes themselves).
Real crash_extent(const CrQuery& query) { return 4 * query.window_hi; }

/// Bytes of a Real that carry its value: the 80-bit extended format
/// keeps 10 in a wider slot whose padding bytes are unspecified.
constexpr std::size_t kRealBytes =
    std::numeric_limits<Real>::digits == 64 ? 10 : sizeof(Real);

void append_int(std::string& key, const int value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  key.append(bytes, sizeof value);
}

void append_real(std::string& key, const Real value) {
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  key.append(bytes, kRealBytes);
}

int take_int(std::string_view& key) {
  int value = 0;
  std::memcpy(&value, key.data(), sizeof value);
  key.remove_prefix(sizeof value);
  return value;
}

Real take_real(std::string_view& key) {
  Real value = 0;
  std::memcpy(&value, key.data(), kRealBytes);
  key.remove_prefix(kRealBytes);
  return value;
}

/// The canonical query a binary_query_key spells (the key is lossless).
CrQuery query_of_binary_key(std::string_view key) {
  CrQuery query;
  query.regime = static_cast<FaultRegime>(key.front());
  key.remove_prefix(1);
  query.n = take_int(key);
  query.f = take_int(key);
  query.interior_samples = take_int(key);
  query.beta = take_real(key);
  query.window_lo = take_real(key);
  query.window_hi = take_real(key);
  query.fault_p = take_real(key);
  while (!key.empty()) query.crash_times.push_back(take_real(key));
  return query;
}

/// The backend registry key: which immutable Fleet this query evaluates
/// against.  kNone and kByzantine share the unbounded analytic backend
/// of their (strategy, n, f, beta); kCrash needs the dense build at the
/// window's extent (truncation interpolates real waypoints).
std::string backend_key(const CrQuery& canonical) {
  const bool dense = canonical.regime == FaultRegime::kCrash;
  std::string key(1, dense ? 'd' : 'a');
  append_int(key, canonical.n);
  append_int(key, canonical.f);
  append_real(key, canonical.beta);
  if (dense) append_real(key, crash_extent(canonical));
  return key;
}

Fleet build_backend(const CrQuery& canonical) {
  const ProportionalAlgorithm algorithm(canonical.n, canonical.f,
                                        canonical.beta);
  if (canonical.regime == FaultRegime::kCrash) {
    return algorithm.build_fleet(crash_extent(canonical));
  }
  return algorithm.build_unbounded_fleet();
}

/// Which anchor profile of the backend a query scans with: slot 0 is
/// budget f (kNone), slot 1 budget 2f (kByzantine's quorum); -1 for the
/// regimes that run no measure_cr on the shared fleet.
int profile_slot(const FaultRegime regime) {
  switch (regime) {
    case FaultRegime::kNone: return 0;
    case FaultRegime::kByzantine: return 1;
    case FaultRegime::kCrash:
    case FaultRegime::kProbabilistic: break;
  }
  return -1;
}

/// The extent a miss grows its profile to: the next power of two at or
/// above window_hi (window_hi itself where that would overflow), so
/// nearby windows share one growth.
Real profile_extent(const Real window_hi) {
  int exponent = 0;
  const Real mantissa = std::frexp(window_hi, &exponent);
  const Real extent =
      std::ldexp(Real{1}, mantissa == Real{0.5L} ? exponent - 1 : exponent);
  return std::isinf(extent) ? window_hi : extent;
}

/// Measure `canonical` against its (shared or freshly built) backend.
/// This is the ONE evaluation body both the direct path and the service
/// run, so caching layers cannot change an answered bit by construction.
/// The service passes the backend's anchor profile for the query's
/// budget (and, on a miss that grew it, the window ends' times filled
/// with the growth); the direct path passes neither, and the kernel's
/// answer is bitwise the same either way.
QueryResult evaluate_on_backend(const CrQuery& canonical,
                                const Fleet& backend,
                                const kernels::AnchorProfile* profile,
                                const kernels::KnownProbes* known = nullptr) {
  QueryResult result;
  switch (canonical.regime) {
    case FaultRegime::kNone: {
      const CrEvalResult scan = kernels::measure_cr_kernel(
          backend, canonical.f,
          eval_options_of(canonical, /*require_finite=*/true), profile,
          known);
      result.cr = scan.cr;
      result.argmax = scan.argmax;
      result.cr_positive = scan.cr_positive;
      result.cr_negative = scan.cr_negative;
      result.probes = scan.probes;
      result.undetected_probes = scan.undetected_probes;
      break;
    }
    case FaultRegime::kByzantine: {
      // The quorum scan at budget 2f — field-identical to
      // measure_byzantine_cr (eval/byzantine), with the side suprema
      // preserved.  Infeasible pairs (n < 2f+1) report cr = kInfinity.
      const CrEvalResult scan = kernels::measure_cr_kernel(
          backend, 2 * canonical.f,
          eval_options_of(canonical, /*require_finite=*/false), profile,
          known);
      result.feasible = static_cast<int>(backend.size()) >=
                        2 * canonical.f + 1;
      result.probes = scan.probes;
      result.undetected_probes = scan.undetected_probes;
      result.cr_positive = scan.cr_positive;
      result.cr_negative = scan.cr_negative;
      if (result.feasible && scan.undetected_probes == 0) {
        result.cr = scan.cr;
        result.argmax = scan.argmax;
      } else {
        result.cr = kInfinity;
        result.argmax = 0;
      }
      break;
    }
    case FaultRegime::kCrash: {
      const Fleet truncated =
          truncate_at_crashes(backend, canonical.crash_times);
      const CrEvalResult scan =
          measure_cr(truncated, canonical.f,
                     eval_options_of(canonical, /*require_finite=*/false));
      result.cr = scan.cr;
      result.argmax = scan.argmax;
      result.cr_positive = scan.cr_positive;
      result.cr_negative = scan.cr_negative;
      result.probes = scan.probes;
      result.undetected_probes = scan.undetected_probes;
      break;
    }
    case FaultRegime::kProbabilistic: {
      // Expected CR at fault_p (eval/expectation) on the same unbounded
      // analytic backend kNone uses.  Divergent probes (p at or past the
      // ladder threshold) report cr = kInfinity via the non-finite
      // codec, exactly like an infeasible Byzantine quorum.
      ExpectationOptions expectation;
      expectation.p = canonical.fault_p;
      expectation.eval = eval_options_of(canonical,
                                         /*require_finite=*/false);
      const CrEvalResult scan = measure_expected_cr(backend, expectation);
      LS_OBS_COUNT("svc.probabilistic_queries", 1);
      result.cr = scan.cr;
      result.argmax = scan.argmax;
      result.cr_positive = scan.cr_positive;
      result.cr_negative = scan.cr_negative;
      result.probes = scan.probes;
      result.undetected_probes = scan.undetected_probes;
      break;
    }
  }
  return result;
}

}  // namespace

const char* fault_regime_name(const FaultRegime regime) {
  switch (regime) {
    case FaultRegime::kNone: return "none";
    case FaultRegime::kByzantine: return "byzantine";
    case FaultRegime::kCrash: return "crash";
    case FaultRegime::kProbabilistic: return "probabilistic";
  }
  return "unknown";
}

FaultRegime fault_regime_from_name(const std::string_view name) {
  if (name == "none") return FaultRegime::kNone;
  if (name == "byzantine") return FaultRegime::kByzantine;
  if (name == "crash") return FaultRegime::kCrash;
  if (name == "probabilistic") return FaultRegime::kProbabilistic;
  throw PreconditionError("svc: unknown fault regime '" + std::string(name) +
                          "' (valid: none, byzantine, crash, probabilistic)");
}

CrQuery canonicalize_query(CrQuery query) {
  expects(query.f >= 1, "svc: query needs f >= 1");
  expects(in_proportional_regime(query.n, query.f),
          "svc: (n, f) outside the proportional regime f < n < 2f+2");
  expects(query.window_lo > 0, "svc: window_lo must be positive");
  expects(query.window_hi >= query.window_lo,
          "svc: window_hi must be >= window_lo");
  expects(std::isfinite(query.window_lo) && std::isfinite(query.window_hi),
          "svc: probe window must be finite");
  expects(query.interior_samples >= 0,
          "svc: interior_samples must be >= 0");
  if (std::isnan(query.beta)) {
    // Resolve the default so "optimal beta" and "explicit beta*(n, f)"
    // canonicalize to the same key (and the same shared backend).
    query.beta = optimal_beta(query.n, query.f);
  }
  expects(std::isfinite(query.beta) && query.beta > 1,
          "svc: beta must be finite and > 1");
  if (query.regime == FaultRegime::kCrash) {
    expects(query.crash_times.size() ==
                static_cast<std::size_t>(query.n),
            "svc: crash regime needs one crash time per robot "
            "(kInfinity = healthy)");
    for (const Real t : query.crash_times) {
      expects(!std::isnan(t) && t >= 0,
              "svc: crash times must be >= 0 or kInfinity");
    }
  } else {
    expects(query.crash_times.empty(),
            "svc: crash_times only apply to the crash regime");
  }
  if (query.regime == FaultRegime::kProbabilistic) {
    expects(query.fault_p >= 0 && query.fault_p < 1,
            "svc: probabilistic regime needs 0 <= fault_p < 1");
  } else {
    expects(query.fault_p == 0,
            "svc: fault_p only applies to the probabilistic regime");
  }
  return query;
}

std::string query_key(const CrQuery& query) {
  std::string key = fault_regime_name(query.regime);
  key += '|';
  key += std::to_string(query.n) + '|' + std::to_string(query.f) + '|' +
         encode_real_field(query.beta) + '|' +
         encode_real_field(query.window_lo) + '|' +
         encode_real_field(query.window_hi) + '|' +
         std::to_string(query.interior_samples) + '|' +
         encode_real_field(query.fault_p);
  for (const Real t : query.crash_times) {
    key += '|';
    key += encode_real_field(t);
  }
  return key;
}

std::string binary_query_key(const CrQuery& query) {
  std::string key;
  key.reserve(1 + 3 * sizeof(int) +
              (4 + query.crash_times.size()) * kRealBytes);
  key += static_cast<char>(query.regime);
  append_int(key, query.n);
  append_int(key, query.f);
  append_int(key, query.interior_samples);
  append_real(key, query.beta);
  append_real(key, query.window_lo);
  append_real(key, query.window_hi);
  append_real(key, query.fault_p);
  for (const Real t : query.crash_times) append_real(key, t);
  return key;
}

std::size_t query_shard(const CrQuery& query,
                        const std::size_t shard_count) {
  expects(shard_count > 0, "svc: shard_count must be positive");
  // Deterministic spread over regime pairs: neighbouring grid pairs land
  // in different shards, every (beta, window) variant of one pair shares
  // its pair's shard.
  const std::size_t pair =
      static_cast<std::size_t>(query.n) * 31u +
      static_cast<std::size_t>(query.f);
  return pair % shard_count;
}

QueryResult evaluate_query_direct(const CrQuery& query) {
  LS_OBS_SPAN("svc.query.direct");
  const CrQuery canonical = canonicalize_query(query);
  const Fleet backend = build_backend(canonical);
  return evaluate_on_backend(canonical, backend, nullptr);
}

QueryService::QueryService(QueryServiceOptions options)
    : options_(std::move(options)) {
  expects(options_.shard_count > 0, "svc: shard_count must be positive");
  expects(options_.shard_capacity > 0,
          "svc: shard_capacity must be positive");
  expects(options_.max_backends > 0, "svc: max_backends must be positive");
  shards_.reserve(options_.shard_count);
  for (std::size_t i = 0; i < options_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

QueryService::Backend QueryService::backend_for(const std::string& key,
                                               const CrQuery& canonical) {
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  const auto it = backends_.find(key);
  if (it != backends_.end()) {
    // Touch: move to the most-recently-used end.
    backend_order_.splice(backend_order_.end(), backend_order_,
                          it->second.recency);
    obs::count(SvcMetrics::instance().backend_hits);
    bump(tallies_.backend_hits);
    return it->second.backend;
  }
  // Bound the registry: evict the least recently used backend.  In-use
  // fleets and profiles stay alive through their shared_ptrs; eviction
  // only drops the shared slot, never an object under a running
  // evaluation.
  if (backends_.size() >= options_.max_backends) {
    backends_.erase(backend_order_.front());
    backend_order_.pop_front();
  }
  Backend backend;
  backend.fleet = std::make_shared<const Fleet>(build_backend(canonical));
  backend_order_.push_back(key);
  backends_.emplace(key,
                    BackendEntry{.backend = backend,
                                 .recency = std::prev(backend_order_.end())});
  obs::count(SvcMetrics::instance().backend_builds);
  bump(tallies_.backend_builds);
  return backend;
}

void QueryService::publish_profile(
    const std::string& key, const Backend& backend, const std::size_t slot,
    std::shared_ptr<const kernels::AnchorProfile> grown) {
  obs::count(SvcMetrics::instance().profile_grows);
  bump(tallies_.profile_grows);
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  const auto it = backends_.find(key);
  if (it != backends_.end() && it->second.backend.fleet == backend.fleet) {
    std::shared_ptr<const kernels::AnchorProfile>& held =
        it->second.backend.profiles[slot];
    if (held == nullptr || held->extent() < grown->extent()) {
      held = std::move(grown);
    }
  }
}

QueryResult QueryService::compute(const CrQuery& canonical) {
  LS_OBS_SPAN("svc.query.compute");
  const std::string key = backend_key(canonical);
  const Backend backend = backend_for(key, canonical);
  obs::count(SvcMetrics::instance().evaluations);
  bump(tallies_.evaluations);
  const int slot = profile_slot(canonical.regime);
  if (slot < 0) return evaluate_on_backend(canonical, *backend.fleet, nullptr);
  const auto index = static_cast<std::size_t>(slot);
  const std::shared_ptr<const kernels::AnchorProfile>& profile =
      backend.profiles[index];
  if (profile != nullptr && profile->reaches(canonical.window_hi)) {
    return evaluate_on_backend(canonical, *backend.fleet, profile.get());
  }
  // A growing miss grows a private copy (or a fresh profile) to the next
  // power of two at or above window_hi, outside the registry lock, in one
  // fill with its own window ends, and publishes it before its scan.
  // Concurrent growers of one entry each build their own copy, and the
  // widest one published stays.
  const kernels::AnchorProfile empty(canonical.f * (slot + 1));
  kernels::KnownProbes ends{
      .probes = kernels::window_end_probes(canonical.window_lo,
                                           canonical.window_hi),
      .times = {}};
  auto grown = std::make_shared<const kernels::AnchorProfile>(
      (profile != nullptr ? *profile : empty)
          .grown(*backend.fleet, profile_extent(canonical.window_hi),
                 ends.probes, ends.times));
  publish_profile(key, backend, index, grown);
  return evaluate_on_backend(canonical, *backend.fleet, grown.get(), &ends);
}

bool QueryService::cache_lookup(const std::size_t shard_index,
                                const std::string& key, Answer& out) {
  Shard& shard = *shards_[shard_index];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) return false;
  // Touch: move to the MRU end.
  shard.order.splice(shard.order.begin(), shard.order, it->second);
  out = it->second->second;
  return true;
}

void QueryService::cache_store(const std::size_t shard_index,
                               const std::string& key, const Answer& answer) {
  Shard& shard = *shards_[shard_index];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.by_key.find(key);
  if (it != shard.by_key.end()) {
    // A coalescing race can store the same key twice; both values are
    // value-identical by the determinism contract, keep the first.
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return;
  }
  if (shard.order.size() >= options_.shard_capacity) {
    shard.by_key.erase(shard.order.back().first);
    shard.order.pop_back();
    bump(tallies_.evictions);
  }
  shard.order.emplace_front(key, answer);
  shard.by_key.emplace(key, shard.order.begin());
}

QueryService::Answer QueryService::answer(const CrQuery& query) {
  const CrQuery canonical = canonicalize_query(query);
  const std::string key = binary_query_key(canonical);
  const std::size_t shard_index =
      query_shard(canonical, options_.shard_count);
  obs::count(SvcMetrics::instance().queries);
  bump(tallies_.queries);

  Answer cached;
  if (options_.cache_results && cache_lookup(shard_index, key, cached)) {
    obs::count(SvcMetrics::instance().cache_hits);
    bump(tallies_.cache_hits);
    return cached;
  }

  std::shared_ptr<InFlight> flight;
  bool leader = true;
  if (options_.coalesce) {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
      leader = false;
    } else {
      flight = std::make_shared<InFlight>();
      inflight_.emplace(key, flight);
    }
  }

  if (!leader) {
    obs::count(SvcMetrics::instance().coalesced);
    bump(tallies_.coalesced);
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->done.wait(lock, [&flight] { return flight->finished; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->answer;
  }

  Answer fresh;
  try {
    fresh.result = compute(canonical);
    fresh.tail = std::make_shared<const std::string>(
        render_response_tail(fresh.result));
  } catch (...) {
    if (flight != nullptr) {
      {
        const std::lock_guard<std::mutex> lock(inflight_mutex_);
        inflight_.erase(key);
      }
      const std::lock_guard<std::mutex> lock(flight->mutex);
      flight->error = std::current_exception();
      flight->finished = true;
      flight->done.notify_all();
    }
    throw;
  }

  if (options_.cache_results) cache_store(shard_index, key, fresh);
  if (flight != nullptr) {
    {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      inflight_.erase(key);
    }
    const std::lock_guard<std::mutex> lock(flight->mutex);
    flight->answer = fresh;
    flight->finished = true;
    flight->done.notify_all();
  }
  return fresh;
}

QueryResult QueryService::evaluate(const CrQuery& query) {
  return answer(query).result;
}

QueryService::Stats QueryService::stats() const {
  const auto load = [](const std::atomic<std::uint64_t>& tally) {
    return tally.load(std::memory_order_relaxed);
  };
  return {.queries = load(tallies_.queries),
          .cache_hits = load(tallies_.cache_hits),
          .coalesced = load(tallies_.coalesced),
          .evaluations = load(tallies_.evaluations),
          .backend_builds = load(tallies_.backend_builds),
          .backend_hits = load(tallies_.backend_hits),
          .evictions = load(tallies_.evictions),
          .profile_grows = load(tallies_.profile_grows)};
}

std::size_t QueryService::backend_count() const {
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  return backends_.size();
}

namespace {

/// The canonical query a snapshot's decimal key spells: the inverse of
/// query_key, checked in full — every field parses, the query passes
/// canonicalize_query, and query_key spells it back byte for byte.
CrQuery query_of_key(const std::string& key) {
  std::vector<std::string> fields;
  for (std::size_t start = 0;;) {
    const std::size_t bar = key.find('|', start);
    fields.push_back(key.substr(start, bar - start));
    if (bar == std::string::npos) break;
    start = bar + 1;
  }
  expects(fields.size() >= 8, [&key] {
    return "svc: cache key has too few fields: " + key;
  });
  const auto integer = [&key](const std::string& field) {
    int value = 0;
    const char* end = field.data() + field.size();
    const auto parsed = std::from_chars(field.data(), end, value);
    expects(parsed.ec == std::errc{} && parsed.ptr == end, [&key] {
      return "svc: cache key integer field does not parse: " + key;
    });
    return value;
  };
  CrQuery query;
  query.regime = fault_regime_from_name(fields[0]);
  query.n = integer(fields[1]);
  query.f = integer(fields[2]);
  query.beta = parse_real_field(fields[3]);
  query.window_lo = parse_real_field(fields[4]);
  query.window_hi = parse_real_field(fields[5]);
  query.interior_samples = integer(fields[6]);
  query.fault_p = parse_real_field(fields[7]);
  for (std::size_t i = 8; i < fields.size(); ++i) {
    query.crash_times.push_back(parse_real_field(fields[i]));
  }
  const CrQuery canonical = canonicalize_query(query);
  expects(query_key(canonical) == key, [&key] {
    return "svc: cache key is not a canonical query's key: " + key;
  });
  return canonical;
}

}  // namespace

std::vector<QueryService::CacheEntry> QueryService::export_cache() const {
  // Copy under the shard locks, spell the decimal keys after.
  std::vector<std::pair<std::string, QueryResult>> held;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& [key, answer] : shard->order) {
      held.emplace_back(key, answer.result);
    }
  }
  std::vector<CacheEntry> entries;
  entries.reserve(held.size());
  for (const auto& [key, result] : held) {
    entries.push_back(
        CacheEntry{query_key(query_of_binary_key(key)), result});
  }
  return entries;
}

std::size_t QueryService::import_cache(const std::vector<CacheEntry>& entries) {
  // Validate every key and render every tail BEFORE touching the cache:
  // a rejected import leaves the service exactly as it was (cold, not
  // half-warm).
  struct Restored {
    std::string key;
    std::size_t shard;
    Answer answer;
  };
  std::vector<Restored> restored;
  restored.reserve(entries.size());
  for (const CacheEntry& entry : entries) {
    const CrQuery canonical = query_of_key(entry.key);
    restored.push_back(Restored{
        .key = binary_query_key(canonical),
        .shard = query_shard(canonical, options_.shard_count),
        .answer = {.result = entry.result,
                   .tail = std::make_shared<const std::string>(
                       render_response_tail(entry.result))}});
  }
  // LRU-first replay: cache_store fronts each key, so the exported
  // recency order (MRU first) is restored by inserting in reverse.
  for (std::size_t i = restored.size(); i-- > 0;) {
    cache_store(restored[i].shard, restored[i].key, restored[i].answer);
  }
  return entries.size();
}

std::size_t QueryService::cached_count() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->order.size();
  }
  return total;
}

void QueryService::clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->order.clear();
    shard->by_key.clear();
  }
  const std::lock_guard<std::mutex> lock(backends_mutex_);
  backends_.clear();
  backend_order_.clear();
}

}  // namespace linesearch::svc
