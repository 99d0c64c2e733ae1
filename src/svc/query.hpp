// svc/query.hpp — the stateless query layer in front of eval.
//
// Every CR question the library answers — plain measure_cr on A(n, f) /
// S_beta(n), the Byzantine quorum scan (eval/byzantine), crash-
// truncated fleets (sim/faults), and the expected CR under per-visit
// probabilistic faults (eval/expectation) — is expressible as one
// canonical value type, `CrQuery`.  `evaluate_query_direct` is the reference path: build
// the fleet, run the scan, return the numbers; it holds no state and two
// calls with equal canonical queries return value-identical results.
//
// `QueryService` layers the always-on machinery over that pure function
// without changing a single answered bit:
//   * a registry of immutable shared analytic backends keyed by
//     (strategy, n, f, beta) — concurrent queries against the same
//     regime pair reuse ONE Fleet, which the kernel scans read without
//     any per-fleet mutable state, so the sharing is free.  Each entry
//     also keeps the anchor profiles (eval/kernels) of its fleet at
//     budgets f and 2f, grown to the widest window seen, so a cold scan
//     takes the turns' detection times from the profile;
//   * an LRU of hot results sharded by regime pair (n, f), so a sweep
//     over the 41-pair grid keeps every pair's hot window resident
//     independently.  Entries are keyed by the binary query key and
//     keep their rendered response tail, so a hit formats no number;
//   * coalescing of identical in-flight queries: the first caller
//     computes, everyone else waits for that one result.
// The determinism contract (docs/service.md): for any cache
// configuration, thread count, and arrival order, evaluate() returns a
// result value_identical to evaluate_query_direct on the same canonical
// query.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "eval/cr_eval.hpp"
#include "eval/kernels.hpp"
#include "sim/fleet.hpp"
#include "util/real.hpp"

namespace linesearch::svc {

/// Which fault model the query runs under.
enum class FaultRegime {
  kNone,       ///< f silent (blind) faults — the paper's model
  kByzantine,  ///< f lying faults: quorum CR at budget 2f (eval/byzantine)
  kCrash,      ///< explicit crash-stop times, truncated fleet (sim/faults)
  /// Per-visit iid probe failures with probability fault_p: the expected
  /// CR (eval/expectation).  The first CONTINUOUS query parameter — every
  /// distinct p is its own cache entry inside its regime pair's shard.
  kProbabilistic,
};

/// Wire spelling of a regime ("none" / "byzantine" / "crash" /
/// "probabilistic").
[[nodiscard]] const char* fault_regime_name(FaultRegime regime);

/// Inverse of fault_regime_name; throws PreconditionError on unknown
/// names (the error message lists the valid spellings).
[[nodiscard]] FaultRegime fault_regime_from_name(std::string_view name);

/// One CR evaluation request.  The canonical key of the whole service:
/// equal canonical queries MUST produce value-identical results.
struct CrQuery {
  int n = 2;                ///< robots; requires f < n < 2f+2
  int f = 1;                ///< fault budget
  Real beta = kNaN;         ///< cone parameter; NaN = optimal beta*(n, f)
  Real window_lo = 1;       ///< probe window, as in CrEvalOptions
  Real window_hi = 64;
  int interior_samples = 4;
  FaultRegime regime = FaultRegime::kNone;
  /// kCrash only: crash_times[i] is robot i's crash-stop time
  /// (kInfinity = healthy).  Must be empty for the other regimes.
  std::vector<Real> crash_times;
  /// kProbabilistic only: per-visit failure probability in [0, 1).
  /// Must be 0 for the other regimes.
  Real fault_p = 0;
};

/// Validate and normalize a query: regime-pair check (f >= 1 and
/// f < n < 2f+2), window sanity, beta resolution (NaN -> the pair's
/// optimal beta, so "default beta" and "explicitly optimal beta" are the
/// SAME canonical query), crash-schedule shape.  Throws
/// PreconditionError on invalid input.  Every service entry point
/// canonicalizes first; keys are computed only on canonical queries.
[[nodiscard]] CrQuery canonicalize_query(CrQuery query);

/// Decimal key of a CANONICAL query (exact text encoding of every field
/// through the shared Real codec — two queries share a key iff every
/// field is value-identical).  The snapshot's spelling of a cache entry.
[[nodiscard]] std::string query_key(const CrQuery& query);

/// Binary key of a CANONICAL query, which the result LRU and the
/// in-flight map are keyed by: the regime, n, f and interior_samples,
/// then the significant bytes of beta, window_lo, window_hi, fault_p and
/// of each crash time.  Lossless, and equal for two queries iff their
/// query_keys are equal (so -0 and +0 stay distinct, as there).
[[nodiscard]] std::string binary_query_key(const CrQuery& query);

/// The shard a canonical query's results live in: regime pairs (n, f)
/// spread across `shard_count` shards, so grid sweeps keep each pair's
/// hot window resident independently of its neighbours.
[[nodiscard]] std::size_t query_shard(const CrQuery& query,
                                      std::size_t shard_count);

/// Answer of one query — a pure function of the canonical CrQuery.
struct QueryResult {
  /// Byzantine regime: n >= 2f+1 (a quorum can form at all).  Always
  /// true for the other regimes.
  bool feasible = true;
  Real cr = 0;        ///< kInfinity when infeasible or undetectable
  Real argmax = 0;
  Real cr_positive = 0;
  Real cr_negative = 0;
  int probes = 0;
  int undetected_probes = 0;
};

/// The stateless reference path: build the fleet for the query's regime
/// and measure.  kNone runs measure_cr on the unbounded analytic
/// backend; kByzantine the quorum scan at budget 2f (value-identical to
/// measure_byzantine_cr field by field); kCrash truncates a dense
/// build at the query's crash times (extent = 4 * window_hi) and
/// measures with require_finite off — an undetectable half-line reports
/// cr = kInfinity, which survives the wire via util/jsonio's codec.
/// kProbabilistic runs measure_expected_cr at fault_p on the unbounded
/// analytic backend (shared with kNone): divergent probes (p at or past
/// the ladder threshold kappa^(-1/n)) report cr = kInfinity the same
/// codec-pinned way.
[[nodiscard]] QueryResult evaluate_query_direct(const CrQuery& query);

/// Tuning knobs of the caching/coalescing layer.
struct QueryServiceOptions {
  bool cache_results = true;    ///< LRU of hot QueryResults
  std::size_t shard_count = 8;  ///< result-LRU shards over regime pairs
  std::size_t shard_capacity = 128;  ///< LRU entries per shard
  bool coalesce = true;         ///< merge identical in-flight queries
  std::size_t max_backends = 256;  ///< shared-fleet registry bound (LRU)
};

/// Thread-safe stateless-query front end: shared immutable backends +
/// sharded result LRU + in-flight coalescing.  Safe to call evaluate()
/// from any number of threads concurrently (ctest label `svc` runs the
/// proof under TSAN).
class QueryService {
 public:
  explicit QueryService(QueryServiceOptions options = {});

  /// One answer as the service holds it: the result and its response
  /// tail, every byte render_response puts after `{"id":N`.  A miss
  /// renders the tail once; the cache entry, the in-flight leader and
  /// every hit share that one string.
  struct Answer {
    QueryResult result;
    std::shared_ptr<const std::string> tail;
  };

  /// Evaluate one query through the cache/coalescing layers.  The result
  /// is value_identical to evaluate_query_direct(canonicalize_query(q))
  /// regardless of cache state, shard layout, or concurrency, and the
  /// tail is render_response_tail of that result.
  [[nodiscard]] Answer answer(const CrQuery& query);

  /// answer(query).result.
  [[nodiscard]] QueryResult evaluate(const CrQuery& query);

  /// Monotonic behaviour counters (also exported as svc.* obs metrics),
  /// as a snapshot of the live tallies.
  struct Stats {
    std::uint64_t queries = 0;      ///< evaluate() calls that canonicalized
    std::uint64_t cache_hits = 0;   ///< served from a shard LRU
    std::uint64_t coalesced = 0;    ///< waited on an identical in-flight query
    std::uint64_t evaluations = 0;  ///< actually computed (cold path)
    std::uint64_t backend_builds = 0;  ///< fleets constructed
    std::uint64_t backend_hits = 0;    ///< fleets reused from the registry
    std::uint64_t evictions = 0;       ///< LRU entries displaced
    std::uint64_t profile_grows = 0;   ///< anchor profiles grown on a miss
  };
  [[nodiscard]] Stats stats() const;

  /// Number of distinct shared backends currently registered.
  [[nodiscard]] std::size_t backend_count() const;

  /// Drop every cached result and backend (test isolation); counters
  /// keep their totals.
  void clear();

  /// One exported result-cache entry (svc/snapshot's unit of warm
  /// restart).  The decimal query_key travels with the result; it
  /// spells the whole canonical query, so a restoring service recomputes
  /// the binary key, the shard placement under ANY shard_count and the
  /// response tail.
  struct CacheEntry {
    std::string key;
    QueryResult result;
  };

  /// Every cached result, shard 0..N-1, most-recently-used first within
  /// each shard.  Safe concurrently with evaluate() (per-shard locks).
  [[nodiscard]] std::vector<CacheEntry> export_cache() const;

  /// Insert exported entries into this service's cache (existing keys
  /// keep their first value — the determinism contract makes them
  /// value-identical anyway).  Entries are replayed LRU-first so the
  /// exported recency order survives the round trip.  Returns the
  /// number of entries stored.  Throws PreconditionError on a key that
  /// is not the query_key of a canonical query.
  std::size_t import_cache(const std::vector<CacheEntry>& entries);

  /// Total results currently cached across all shards.
  [[nodiscard]] std::size_t cached_count() const;

  const QueryServiceOptions& options() const { return options_; }

 private:
  /// Result LRU shard, keyed by binary_query_key.
  struct Shard {
    std::mutex mutex;
    /// Most-recently-used at the front.
    std::list<std::pair<std::string, Answer>> order;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, Answer>>::iterator>
        by_key;
  };

  /// One leader computing a key; followers wait on `done`.
  struct InFlight {
    std::mutex mutex;
    std::condition_variable done;
    bool finished = false;
    /// The leader's exception, rethrown to every follower: the same
    /// object, so what() and Error::message() match the leader's.
    std::exception_ptr error;
    Answer answer;
  };

  /// A registered backend and its anchor-profile snapshots at budgets
  /// f and 2f (null until a miss grows them).  Registry entries are
  /// replaced, never mutated in place, under backends_mutex_; a caller
  /// holds copies of the pointers.
  struct Backend {
    std::shared_ptr<const Fleet> fleet;
    std::shared_ptr<const kernels::AnchorProfile> profiles[2];
  };
  struct BackendEntry {
    Backend backend;
    std::list<std::string>::iterator recency;  ///< in backend_order_
  };

  /// The query's backend (built and registered on first use), touched
  /// as most recently used.
  [[nodiscard]] Backend backend_for(const std::string& key,
                                    const CrQuery& canonical);
  /// Publish a miss's grown anchor profile to the registry entry `key`
  /// if it is wider than what the entry holds by then.
  void publish_profile(const std::string& key, const Backend& backend,
                       std::size_t slot,
                       std::shared_ptr<const kernels::AnchorProfile> grown);
  [[nodiscard]] QueryResult compute(const CrQuery& canonical);
  [[nodiscard]] bool cache_lookup(std::size_t shard_index,
                                  const std::string& key, Answer& out);
  void cache_store(std::size_t shard_index, const std::string& key,
                   const Answer& answer);

  QueryServiceOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex backends_mutex_;
  std::unordered_map<std::string, BackendEntry> backends_;
  /// Recency order of the backend registry, least recently used first.
  std::list<std::string> backend_order_;

  std::mutex inflight_mutex_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;

  /// Live tallies behind stats(): relaxed atomics, since each counts on
  /// its own and no reader needs them mutually consistent.
  struct Tallies {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> evaluations{0};
    std::atomic<std::uint64_t> backend_builds{0};
    std::atomic<std::uint64_t> backend_hits{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> profile_grows{0};
  };
  Tallies tallies_;
};

}  // namespace linesearch::svc
