// svc/snapshot: crash-safe warm restarts.  The round trip must be
// value-identical (a snapshot can skip recomputation, never change an
// answered bit) and MRU-order preserving; every corruption mode —
// flipped byte, version mismatch, truncation, malformed record, missing
// file — must reject the WHOLE snapshot and leave the service exactly
// as it was: cold, never half-warm.
#include "svc/snapshot.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "svc/query.hpp"
#include "util/error.hpp"
#include "verify/invariants.hpp"

namespace linesearch {
namespace svc {
namespace {

using verify::value_identical;

std::string temp_path(const char* tag) {
  return "/tmp/ls_snapshot_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".snap";
}

CrQuery make_query(const int n, const int f, const Real window_hi) {
  CrQuery query;
  query.n = n;
  query.f = f;
  query.window_hi = window_hi;
  return query;
}

/// Warm a service with a few distinct results, touched so the MRU
/// order differs from insertion order.  (QueryService owns mutexes and
/// cannot move, so the caller supplies the instance.)
void warm(QueryService& service) {
  (void)service.evaluate(make_query(3, 1, 8));
  (void)service.evaluate(make_query(5, 2, 8));
  (void)service.evaluate(make_query(5, 3, 8));
  (void)service.evaluate(make_query(3, 1, 8));  // re-touch: now MRU
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc);
  out << bytes;
}

TEST(Snapshot, RoundTripRestoresEveryEntryAndTheMruOrder) {
  QueryService original;
  warm(original);
  const std::vector<QueryService::CacheEntry> before =
      original.export_cache();
  ASSERT_EQ(before.size(), 3u);

  const std::string path = temp_path("roundtrip");
  const SnapshotWriteReport saved = save_snapshot(original, path);
  EXPECT_EQ(saved.entries, 3u);
  EXPECT_GT(saved.bytes, 0u);

  QueryService restored;
  const SnapshotLoadReport loaded = load_snapshot(restored, path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.entries, 3u);
  EXPECT_EQ(restored.cached_count(), 3u);

  // Same keys, same recency order, value-identical results.
  const std::vector<QueryService::CacheEntry> after =
      restored.export_cache();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].key, before[i].key) << i;
    EXPECT_EQ(after[i].result.feasible, before[i].result.feasible);
    EXPECT_TRUE(value_identical(after[i].result.cr, before[i].result.cr));
    EXPECT_TRUE(
        value_identical(after[i].result.argmax, before[i].result.argmax));
    EXPECT_EQ(after[i].result.probes, before[i].result.probes);
  }

  // The restored cache actually serves: a hot-set query is a hit, not a
  // recomputation.
  const QueryService::Stats cold = restored.stats();
  (void)restored.evaluate(make_query(5, 2, 8));
  const QueryService::Stats warm = restored.stats();
  EXPECT_EQ(warm.cache_hits, cold.cache_hits + 1);
  EXPECT_EQ(warm.evaluations, cold.evaluations);

  std::remove(path.c_str());
}

TEST(Snapshot, RestoreWorksUnderADifferentShardCount) {
  QueryService original;
  warm(original);
  const std::string path = temp_path("reshard");
  (void)save_snapshot(original, path);

  QueryServiceOptions narrow;
  narrow.shard_count = 1;
  QueryService restored(narrow);
  const SnapshotLoadReport loaded = load_snapshot(restored, path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(restored.cached_count(), 3u);
  const QueryService::Stats before = restored.stats();
  (void)restored.evaluate(make_query(3, 1, 8));
  EXPECT_EQ(restored.stats().cache_hits, before.cache_hits + 1);
  std::remove(path.c_str());
}

TEST(Snapshot, RenderOpensWithMagicAndClosesWithChecksum) {
  QueryService service;
  warm(service);
  const std::string snapshot = render_snapshot(service);
  EXPECT_EQ(snapshot.rfind(std::string(kSnapshotMagic) + "\n", 0), 0u);
  const std::size_t checksum_at = snapshot.rfind("checksum:");
  ASSERT_NE(checksum_at, std::string::npos);
  // The recorded FNV-1a 64 covers every byte before the checksum line.
  const std::uint64_t expected =
      fnv1a64(snapshot.substr(0, checksum_at));
  std::ostringstream hex;
  hex << std::hex;
  hex.width(16);
  hex.fill('0');
  hex << expected;
  EXPECT_EQ(snapshot.substr(checksum_at + 9, 16), hex.str());
}

TEST(Snapshot, FlippedByteRejectsTheWholeSnapshot) {
  QueryService original;
  warm(original);
  const std::string path = temp_path("corrupt");
  (void)save_snapshot(original, path);

  std::string bytes = slurp(path);
  const std::size_t victim = bytes.find("\"cr\":");
  ASSERT_NE(victim, std::string::npos);
  bytes[victim + 5] = bytes[victim + 5] == '1' ? '2' : '1';
  spill(path, bytes);

  QueryService restored;
  const SnapshotLoadReport loaded = load_snapshot(restored, path);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("checksum"), std::string::npos)
      << loaded.error;
  // Fail-closed: nothing was imported.
  EXPECT_EQ(restored.cached_count(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, VersionMismatchRejects) {
  QueryService original;
  warm(original);
  const std::string path = temp_path("version");
  (void)save_snapshot(original, path);

  std::string bytes = slurp(path);
  const std::string magic = kSnapshotMagic;
  // A future format version with a recomputed, VALID checksum: only the
  // version gate can reject it.
  std::string future = bytes;
  future.replace(0, magic.size(), "linesearch-svc-snapshot/9");
  const std::size_t checksum_at = future.rfind("checksum:");
  ASSERT_NE(checksum_at, std::string::npos);
  std::ostringstream hex;
  hex << std::hex;
  hex.width(16);
  hex.fill('0');
  hex << fnv1a64(future.substr(0, checksum_at));
  future.replace(checksum_at + 9, 16, hex.str());
  spill(path, future);

  QueryService restored;
  const SnapshotLoadReport loaded = load_snapshot(restored, path);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("version"), std::string::npos)
      << loaded.error;
  EXPECT_EQ(restored.cached_count(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, TruncationAndMissingFileReject) {
  QueryService original;
  warm(original);
  const std::string path = temp_path("truncated");
  (void)save_snapshot(original, path);
  const std::string bytes = slurp(path);
  spill(path, bytes.substr(0, bytes.size() / 2));

  QueryService restored;
  EXPECT_FALSE(load_snapshot(restored, path).ok);
  EXPECT_EQ(restored.cached_count(), 0u);
  std::remove(path.c_str());

  EXPECT_FALSE(load_snapshot(restored, temp_path("missing")).ok);
  EXPECT_EQ(restored.cached_count(), 0u);
}

TEST(Snapshot, ImportRejectsMalformedKeysWithoutPartialState) {
  QueryService service;
  QueryService::CacheEntry good;
  good.key = query_key(canonicalize_query(make_query(3, 1, 8)));
  good.result.feasible = true;
  good.result.cr = 9;
  QueryService::CacheEntry bad;
  bad.key = "not-a-query-key";
  bad.result = good.result;
  // All-or-nothing: the bad key rejects the batch BEFORE anything lands.
  EXPECT_THROW((void)service.import_cache({good, bad}), Error);
  EXPECT_EQ(service.cached_count(), 0u);
  EXPECT_EQ(service.import_cache({good}), 1u);
  EXPECT_EQ(service.cached_count(), 1u);
}

TEST(Snapshot, ImportChecksTheWholeKeyNotOnlyTheRegimePair) {
  // A key imports only when it is the query_key of a canonical query:
  // its (n, f) parsing is not enough.
  const std::string good = query_key(canonicalize_query(make_query(3, 1, 8)));
  QueryService::CacheEntry entry;
  entry.result.cr = 9;
  const auto rejects = [&entry](const std::string& key) {
    QueryService service;
    entry.key = key;
    EXPECT_THROW((void)service.import_cache({entry}), PreconditionError)
        << key;
    EXPECT_EQ(service.cached_count(), 0u) << key;
  };
  std::string outside = good;
  outside.replace(outside.find("|3|1|"), 5, "|4|1|");  // n >= 2f + 2
  rejects(outside);
  rejects(good.substr(0, good.rfind('|')));              // field missing
  rejects(good + "|2");                 // a crash time off the crash regime
  std::string respelled = good;
  respelled.replace(respelled.find("|8|"), 3, "|8.0|");  // same value
  rejects(respelled);
  std::string unknown = good;
  unknown.replace(0, unknown.find('|'), "lying");
  rejects(unknown);

  QueryService service;
  entry.key = good;
  EXPECT_EQ(service.import_cache({entry}), 1u);
  EXPECT_EQ(service.export_cache().front().key, good);
}

TEST(Snapshot, SaveIsAtomicNoTmpDebrisSurvives) {
  QueryService service;
  warm(service);
  const std::string path = temp_path("atomic");
  (void)save_snapshot(service, path);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  QueryService restored;
  EXPECT_TRUE(load_snapshot(restored, path).ok);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace svc
}  // namespace linesearch
