// svc/query: canonicalization, keys, sharding, and the QueryService
// determinism contract — every cache configuration, thread count, and
// arrival order returns results value_identical to
// evaluate_query_direct.  This file (and server_test.cpp) carries the
// ctest label `svc`, so the ThreadSanitizer CI job can select exactly
// the concurrency proofs.
#include "svc/query.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "core/competitive.hpp"
#include "eval/validation.hpp"
#include "obs/metrics.hpp"
#include "svc/server.hpp"
#include "util/error.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace svc {
namespace {

using verify::value_identical;

bool same_result(const QueryResult& a, const QueryResult& b) {
  return a.feasible == b.feasible && value_identical(a.cr, b.cr) &&
         value_identical(a.argmax, b.argmax) &&
         value_identical(a.cr_positive, b.cr_positive) &&
         value_identical(a.cr_negative, b.cr_negative) &&
         a.probes == b.probes &&
         a.undetected_probes == b.undetected_probes;
}

CrQuery pair_query(const int n, const int f, const Real window_hi = 16) {
  CrQuery query;
  query.n = n;
  query.f = f;
  query.window_hi = window_hi;
  return query;
}

TEST(CrQueryCanonicalize, ResolvesDefaultBetaToTheOptimal) {
  const CrQuery canonical = canonicalize_query(pair_query(5, 2));
  EXPECT_TRUE(value_identical(canonical.beta, optimal_beta(5, 2)));

  // "default beta" and "explicitly optimal beta" are the SAME canonical
  // query — one cache entry, one backend.
  CrQuery explicit_beta = pair_query(5, 2);
  explicit_beta.beta = optimal_beta(5, 2);
  EXPECT_EQ(query_key(canonical),
            query_key(canonicalize_query(explicit_beta)));
  EXPECT_EQ(binary_query_key(canonical),
            binary_query_key(canonicalize_query(explicit_beta)));
}

TEST(CrQueryCanonicalize, RejectsInvalidInput) {
  EXPECT_THROW((void)canonicalize_query(pair_query(3, 0)),
               PreconditionError);
  // Outside the proportional regime: n >= 2f+2.
  EXPECT_THROW((void)canonicalize_query(pair_query(4, 1)),
               PreconditionError);
  CrQuery bad_window = pair_query(3, 1);
  bad_window.window_lo = 8;
  bad_window.window_hi = 2;
  EXPECT_THROW((void)canonicalize_query(bad_window), PreconditionError);
  CrQuery bad_beta = pair_query(3, 1);
  bad_beta.beta = 1;  // cone parameter must exceed 1
  EXPECT_THROW((void)canonicalize_query(bad_beta), PreconditionError);
  // Crash regime demands a full per-robot schedule...
  CrQuery crash = pair_query(3, 1);
  crash.regime = FaultRegime::kCrash;
  crash.crash_times = {1.0L, 2.0L};  // size 2 != n = 3
  EXPECT_THROW((void)canonicalize_query(crash), PreconditionError);
  // ...and the other regimes demand none.
  CrQuery stray = pair_query(3, 1);
  stray.crash_times = {1.0L, 2.0L, 3.0L};
  EXPECT_THROW((void)canonicalize_query(stray), PreconditionError);
}

TEST(CrQueryKey, SeparatesEveryField) {
  // Each query differs from the first of its group in one field only;
  // every binary key (and every decimal key) in the set is distinct.
  std::vector<CrQuery> queries;
  const auto add = [&queries](CrQuery query) {
    queries.push_back(canonicalize_query(std::move(query)));
  };
  const CrQuery base = pair_query(5, 2);
  add(base);
  add(pair_query(4, 2));                    // n
  add(pair_query(5, 3));                    // f
  add(pair_query(5, 2, 32));                // window_hi
  CrQuery changed = base;
  changed.beta = 2.5L;
  add(changed);
  changed = base;
  changed.window_lo = 2;
  add(changed);
  changed = base;
  changed.interior_samples = 5;
  add(changed);
  changed = base;
  changed.regime = FaultRegime::kByzantine;
  add(changed);
  CrQuery probabilistic = base;
  probabilistic.regime = FaultRegime::kProbabilistic;
  probabilistic.fault_p = 0.25L;
  add(probabilistic);
  probabilistic.fault_p = 0.5L;             // fault_p
  add(probabilistic);
  CrQuery crash = pair_query(3, 1);
  crash.regime = FaultRegime::kCrash;
  crash.crash_times = {1.0L, 2.0L, kInfinity};
  add(crash);
  for (std::size_t i = 0; i < crash.crash_times.size(); ++i) {
    CrQuery moved = crash;                  // each crash time
    moved.crash_times[i] = 7.0L;
    add(moved);
  }
  CrQuery swapped = crash;                  // the order of the times
  std::swap(swapped.crash_times[0], swapped.crash_times[1]);
  add(swapped);

  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (std::size_t j = i + 1; j < queries.size(); ++j) {
      EXPECT_NE(binary_query_key(queries[i]), binary_query_key(queries[j]))
          << query_key(queries[i]) << " vs " << query_key(queries[j]);
      EXPECT_NE(query_key(queries[i]), query_key(queries[j]));
    }
    EXPECT_EQ(binary_query_key(queries[i]),
              binary_query_key(canonicalize_query(queries[i])));
  }
}

TEST(CrQueryKey, SignedZeroStaysDistinctAsInTheDecimalKey) {
  // The decimal key spells -0 as "-0", so a -0 fault_p or crash time is
  // its own cache entry; the binary key keeps that split (the sign byte
  // differs).  Both entries hold the same answer.
  CrQuery plus = pair_query(3, 1);
  plus.regime = FaultRegime::kProbabilistic;
  plus.fault_p = 0.0L;
  CrQuery minus = plus;
  minus.fault_p = -0.0L;
  CrQuery crash_plus = pair_query(3, 1);
  crash_plus.regime = FaultRegime::kCrash;
  crash_plus.crash_times = {0.0L, kInfinity, kInfinity};
  CrQuery crash_minus = crash_plus;
  crash_minus.crash_times[0] = -0.0L;
  for (const auto& [a, b] : {std::pair{plus, minus},
                             std::pair{crash_plus, crash_minus}}) {
    const CrQuery ca = canonicalize_query(a);
    const CrQuery cb = canonicalize_query(b);
    EXPECT_NE(query_key(ca), query_key(cb));
    EXPECT_NE(query_key(cb).find("|-0"), std::string::npos)
        << query_key(cb);
    EXPECT_NE(binary_query_key(ca), binary_query_key(cb));
    QueryService service;
    const QueryService::Answer first = service.answer(ca);
    const QueryService::Answer second = service.answer(cb);
    EXPECT_EQ(service.stats().evaluations, 2u);
    EXPECT_TRUE(same_result(first.result, second.result));
    EXPECT_EQ(*first.tail, *second.tail);
  }
}

TEST(CrQueryShard, KeysByRegimePairWithinBounds) {
  const CrQuery a = canonicalize_query(pair_query(5, 2));
  const CrQuery b = canonicalize_query(pair_query(5, 2, 32));
  for (const std::size_t shards : {1u, 2u, 8u}) {
    EXPECT_LT(query_shard(a, shards), shards);
    // Same regime pair, different window: same shard.
    EXPECT_EQ(query_shard(a, shards), query_shard(b, shards));
  }
}

TEST(QueryResultDirect, ByzantineInfeasibleBelowQuorum) {
  // n = 4 < 2f+1 = 5: no quorum can form, cr = inf over the wire.
  CrQuery query = pair_query(4, 2);
  query.regime = FaultRegime::kByzantine;
  const QueryResult result = evaluate_query_direct(query);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(std::isinf(result.cr));

  CrQuery feasible = pair_query(5, 2);
  feasible.regime = FaultRegime::kByzantine;
  const QueryResult ok = evaluate_query_direct(feasible);
  EXPECT_TRUE(ok.feasible);
}

TEST(QueryService, LruEvictsInRecencyOrder) {
  // One shard, capacity two: the LRU order is fully observable through
  // the evaluations counter (a hit never recomputes).
  QueryServiceOptions options;
  options.shard_count = 1;
  options.shard_capacity = 2;
  options.coalesce = false;
  QueryService service(options);

  const CrQuery a = pair_query(3, 1, 8);
  const CrQuery b = pair_query(3, 1, 12);
  const CrQuery c = pair_query(3, 1, 16);

  (void)service.evaluate(a);  // order: a
  (void)service.evaluate(b);  // order: b a
  (void)service.evaluate(a);  // HIT, order: a b
  EXPECT_EQ(service.stats().cache_hits, 1u);
  (void)service.evaluate(c);  // evicts b (LRU), order: c a
  EXPECT_EQ(service.stats().evictions, 1u);

  (void)service.evaluate(a);  // still resident — the touch saved it
  EXPECT_EQ(service.stats().cache_hits, 2u);
  (void)service.evaluate(b);  // evicted: recomputes
  EXPECT_EQ(service.stats().cache_hits, 2u);
  EXPECT_EQ(service.stats().evaluations, 4u);
}

TEST(QueryService, ShardsEvictIndependently) {
  // Pairs (2, 1) and (3, 1) land on different shards of a 2-shard
  // layout ((n * 31 + f) mod 2 differs), so filling one pair's shard
  // never displaces the other's hot entry.
  QueryServiceOptions options;
  options.shard_count = 2;
  options.shard_capacity = 1;
  options.coalesce = false;
  QueryService service(options);
  ASSERT_NE(query_shard(canonicalize_query(pair_query(2, 1)), 2),
            query_shard(canonicalize_query(pair_query(3, 1)), 2));

  (void)service.evaluate(pair_query(2, 1, 8));
  (void)service.evaluate(pair_query(3, 1, 8));
  (void)service.evaluate(pair_query(3, 1, 12));  // evicts (3,1,8) only
  EXPECT_EQ(service.stats().evictions, 1u);
  (void)service.evaluate(pair_query(2, 1, 8));  // survived its neighbour
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(QueryService, SharesOneBackendAcrossWindows) {
  QueryService service;
  (void)service.evaluate(pair_query(5, 2, 8));
  (void)service.evaluate(pair_query(5, 2, 16));
  (void)service.evaluate(pair_query(5, 2, 32));
  EXPECT_EQ(service.backend_count(), 1u);
  EXPECT_EQ(service.stats().backend_builds, 1u);
  EXPECT_EQ(service.stats().backend_hits, 2u);

  service.clear();
  EXPECT_EQ(service.backend_count(), 0u);
  // Counters keep their totals across clear().
  EXPECT_EQ(service.stats().backend_builds, 1u);
}

TEST(QueryService, BackendRegistryEvictsTheLeastRecentlyUsed) {
  // A hot analytic backend touched between one-shot crash registrations
  // (each window is a new dense backend key) outlives max_backends of
  // them: it is built once, however many crash backends come and go.
  QueryServiceOptions options;
  options.cache_results = false;
  options.max_backends = 4;
  QueryService service(options);
  const CrQuery hot = pair_query(3, 1);
  constexpr int kCrashKeys = 12;
  for (int i = 0; i < kCrashKeys; ++i) {
    CrQuery crash = pair_query(3, 1, static_cast<Real>(8 + i));
    crash.regime = FaultRegime::kCrash;
    crash.crash_times = {2.0L, kInfinity, kInfinity};
    (void)service.evaluate(crash);
    (void)service.evaluate(hot);
  }
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.backend_builds, static_cast<std::uint64_t>(kCrashKeys) + 1);
  EXPECT_EQ(stats.backend_hits, static_cast<std::uint64_t>(kCrashKeys) - 1);
  EXPECT_EQ(service.backend_count(), options.max_backends);
}

TEST(QueryService, AnchorProfilesGrowOnlyPastTheirExtent) {
  // kNone scans at budget f and kByzantine at 2f keep one profile each
  // per backend, grown to the next power of two at or above window_hi;
  // every answer stays value-identical to the profile-free direct path.
  QueryServiceOptions options;
  options.cache_results = false;
  QueryService service(options);
  const auto check = [&service](const CrQuery& query,
                                const std::uint64_t grows) {
    EXPECT_TRUE(same_result(service.evaluate(query),
                            evaluate_query_direct(query)))
        << "window_hi=" << static_cast<double>(query.window_hi);
    EXPECT_EQ(service.stats().profile_grows, grows)
        << "window_hi=" << static_cast<double>(query.window_hi);
  };
  check(pair_query(5, 2, 100), 1);   // builds budget f to 128
  check(pair_query(5, 2, 128), 1);
  check(pair_query(5, 2, 12), 1);
  CrQuery wide = pair_query(5, 2, 129);
  wide.window_lo = 3;
  check(wide, 2);                    // grows to 256
  CrQuery byzantine = pair_query(5, 2, 100);
  byzantine.regime = FaultRegime::kByzantine;
  check(byzantine, 3);               // budget 2f has its own profile
  byzantine.window_hi = 64;
  check(byzantine, 3);
  CrQuery probabilistic = pair_query(5, 2, 1000);
  probabilistic.regime = FaultRegime::kProbabilistic;
  probabilistic.fault_p = 0.25L;
  check(probabilistic, 3);           // no measure_cr scan, no profile
  EXPECT_EQ(service.stats().backend_builds, 1u);
}

/// sim.analytic.batched_sweeps over one service evaluation.
std::uint64_t sweeps_of(QueryService& service, const CrQuery& query) {
  obs::Registry::instance().reset();
  (void)service.evaluate(query);
  for (const obs::MetricSnapshot& snap :
       obs::Registry::instance().snapshot()) {
    if (snap.name == "sim.analytic.batched_sweeps") return snap.value;
  }
  return 0;
}

TEST(QueryService, GrowingMissSweepsEachRobotOnce) {
  // A miss whose window passes its backend's profile grows the profile
  // in the same fill that times its own window ends: one frontier sweep
  // per robot, where growing first and scanning after took two.  The
  // answers stay the direct path's.
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "sim.analytic.batched_sweeps needs LINESEARCH_OBS=ON";
  }
  QueryServiceOptions options;
  options.cache_results = false;
  // Byzantine-feasible pairs (n = 2f + 1), so the 2f scan sweeps too.
  for (const auto& [n, f] : {std::pair{5, 2}, std::pair{11, 5}}) {
    QueryService service(options);
    const auto robots = static_cast<std::uint64_t>(n);
    CrQuery query = pair_query(n, f, 100);  // svc_cold's warm-up window
    EXPECT_EQ(sweeps_of(service, query), robots) << "n=" << n;
    EXPECT_EQ(service.stats().profile_grows, 1u);
    CrQuery byzantine = query;
    byzantine.regime = FaultRegime::kByzantine;
    EXPECT_EQ(sweeps_of(service, byzantine), robots) << "n=" << n;
    EXPECT_EQ(service.stats().profile_grows, 2u);
    query.window_hi = 1000;
    EXPECT_EQ(sweeps_of(service, query), robots) << "n=" << n;
    EXPECT_EQ(service.stats().profile_grows, 3u);
    for (const CrQuery& asked : {query, byzantine}) {
      EXPECT_TRUE(
          same_result(service.evaluate(asked), evaluate_query_direct(asked)))
          << "n=" << n;
    }
  }
}

TEST(QueryService, CacheOnAndOffAreBitIdentical) {
  QueryServiceOptions cold;
  cold.cache_results = false;
  QueryService uncached(cold);
  QueryService cached;
  for (const auto& [n, f] : proportional_regime_pairs(8)) {
    const CrQuery query = pair_query(n, f);
    const QueryResult direct = evaluate_query_direct(query);
    const QueryResult off = uncached.evaluate(query);
    const QueryResult on_cold = cached.evaluate(query);
    const QueryResult on_warm = cached.evaluate(query);
    EXPECT_TRUE(same_result(direct, off)) << "n=" << n << " f=" << f;
    EXPECT_TRUE(same_result(direct, on_cold)) << "n=" << n << " f=" << f;
    EXPECT_TRUE(same_result(direct, on_warm)) << "n=" << n << " f=" << f;
  }
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
  EXPECT_GT(cached.stats().cache_hits, 0u);
}

// The concurrency proof: T threads race the same query mix through one
// service; every answer must be value_identical to the direct path no
// matter who computed, who coalesced, and who hit the cache.  Run under
// TSAN via `ctest -L svc`.
void race_threads(const int threads, const QueryServiceOptions& options) {
  const bool cache = options.cache_results;
  QueryService service(options);

  // The (5, 2) windows grow its shared anchor profiles while other
  // threads scan through older snapshots.
  const std::vector<CrQuery> queries = {
      pair_query(3, 1), pair_query(5, 2), pair_query(7, 3),
      pair_query(5, 2, 200), pair_query(5, 2, 3000),
      []() {
        CrQuery q = pair_query(5, 2);
        q.regime = FaultRegime::kByzantine;
        return q;
      }(),
      []() {
        CrQuery q = pair_query(5, 2, 1000);
        q.regime = FaultRegime::kByzantine;
        return q;
      }(),
      []() {
        CrQuery q = pair_query(3, 1);
        q.regime = FaultRegime::kCrash;
        q.crash_times = {2.0L, kInfinity, kInfinity};
        return q;
      }(),
  };
  std::vector<QueryResult> expected;
  std::vector<std::string> tails;
  expected.reserve(queries.size());
  for (const CrQuery& query : queries) {
    expected.push_back(evaluate_query_direct(query));
    tails.push_back(render_response_tail(expected.back()));
  }

  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&service, &queries, &expected, &tails,
                          &mismatches, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          // Stagger starting points so threads collide on different
          // queries, exercising coalescing and cache paths together.
          const std::size_t j =
              (i + static_cast<std::size_t>(t)) % queries.size();
          const QueryService::Answer answer = service.answer(queries[j]);
          if (!same_result(answer.result, expected[j]) ||
              *answer.tail != tails[j]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);

  const QueryService::Stats stats = service.stats();
  const std::uint64_t total = static_cast<std::uint64_t>(threads) *
                              kRounds * queries.size();
  EXPECT_EQ(stats.queries, total);
  if (cache) {
    // Every query is answered exactly one way.
    EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.evaluations,
              total);
  } else {
    // No cache: every call either computed or coalesced with the leader.
    EXPECT_EQ(stats.coalesced + stats.evaluations, total);
  }
}

TEST(QueryService, OneThreadIsExact) { race_threads(1, {}); }
TEST(QueryService, TwoThreadsAreExact) { race_threads(2, {}); }
TEST(QueryService, EightThreadsAreExact) { race_threads(8, {}); }
TEST(QueryService, EightThreadsUncachedAreExact) {
  race_threads(8, {.cache_results = false});
}
// A 3-entry cache under 8 shared keys: every round evicts, so hits,
// misses and coalesced followers interleave on the same keys.
TEST(QueryService, FourThreadsHitAndMissSharedKeysExactly) {
  race_threads(4, {.shard_count = 1, .shard_capacity = 3});
}

TEST(QueryService, CoalescingAccountsEveryCall) {
  // Sequential calls never coalesce (nothing is in flight), so the
  // counter partition is exact and deterministic here.
  QueryServiceOptions options;
  options.cache_results = false;
  QueryService service(options);
  for (int i = 0; i < 3; ++i) (void)service.evaluate(pair_query(3, 1));
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.evaluations, 3u);
  EXPECT_EQ(stats.coalesced, 0u);
}

TEST(QueryService, InvalidQueriesThrowWithoutCounting) {
  QueryService service;
  EXPECT_THROW((void)service.evaluate(pair_query(4, 1)),
               PreconditionError);
  EXPECT_EQ(service.stats().queries, 0u);
}

}  // namespace
}  // namespace svc
}  // namespace linesearch
