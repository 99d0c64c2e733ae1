// svc/snapshot.hpp — crash-safe warm restarts for the query service.
//
// A restarting server normally pays the full cold-cache cost for its
// hot set.  A snapshot carries the result LRU across the restart: the
// server writes one atomically on graceful drain and on a SIGUSR1
// checkpoint (tools/serve_main --snapshot), and restores it on startup
// — answering hot-set queries warm from the first request (bench_perf's
// BM_SnapshotRoundTrip times the round trip).
//
// Format (text, one record per line):
//   linesearch-svc-snapshot/1
//   {"entries":N}
//   {"key":"...","feasible":...,"cr":...,...}     x N
//   checksum:<16 hex digits>
// The checksum is FNV-1a 64 over every byte before the checksum line.
// Reals ride util/jsonio's lossless codec ("inf"/"nan" strings), so a
// round-tripped QueryResult is value-identical — the snapshot can never
// change an answered bit, only skip recomputation.
//
// Safety properties:
//   * atomic replace — the snapshot is written to `path + ".tmp"` and
//     rename(2)d over `path`; a crash mid-write leaves the previous
//     snapshot intact;
//   * fail-closed restore — version mismatch, checksum mismatch,
//     truncation, or a malformed record rejects the WHOLE snapshot
//     (svc.snapshot_rejected) and the service stays exactly as it was:
//     a cold start, never a half-warm or corrupted cache.
#pragma once

#include <cstdint>
#include <string>

#include "svc/query.hpp"

namespace linesearch::svc {

/// Version line a loadable snapshot must open with.
inline constexpr const char* kSnapshotMagic = "linesearch-svc-snapshot/1";

/// FNV-1a 64 over a byte string (the snapshot's integrity check; also
/// exposed for tests that corrupt snapshots on purpose).
[[nodiscard]] std::uint64_t fnv1a64(const std::string& bytes);

/// Serialize the service's result cache (QueryService::export_cache) in
/// the format above — pure of any I/O, for tests and the writer.
[[nodiscard]] std::string render_snapshot(const QueryService& service);

struct SnapshotWriteReport {
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// Atomically write `path` (via `path + ".tmp"` + rename).  Throws
/// Error on I/O failure; increments svc.snapshot_saved on success.
SnapshotWriteReport save_snapshot(const QueryService& service,
                                  const std::string& path);

struct SnapshotLoadReport {
  bool ok = false;           ///< entries imported into the service
  std::size_t entries = 0;   ///< count imported when ok
  std::string error;         ///< rejection reason when !ok
};

/// Validate and import a snapshot.  Never throws: every failure mode
/// (missing file, version mismatch, checksum mismatch, malformed
/// record) returns ok = false with the reason, increments
/// svc.snapshot_rejected, and leaves `service` untouched.  On success
/// increments svc.snapshot_restored.
SnapshotLoadReport load_snapshot(QueryService& service,
                                 const std::string& path) noexcept;

}  // namespace linesearch::svc
