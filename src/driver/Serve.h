//===- driver/Serve.h - Persistent analysis daemon ------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `csdf serve` keeps one warm api::Analyzer alive and answers analysis
/// requests over a JSON-lines protocol — one request object per line in,
/// one response object per line out — on stdio (the default) or a unix
/// domain socket. Editors and build orchestrators get pCFG verdicts
/// without paying process startup, symbol re-interning, or closure
/// recomputation per file; repeated requests are answered from a
/// content-addressed LRU cache keyed by (source text, request options).
///
/// With `--store-dir` the daemon adds a second, *durable* tier: an
/// on-disk content-addressed store (support/Store.h) consulted on a
/// memory miss and backfilled on every cacheable result, so a `kill -9`
/// + restart serves the same requests byte-identically from disk instead
/// of re-analyzing. Cached responses carry `"tier": "memory"|"disk"`.
///
/// Requests:
///
///   {"id": 1, "type": "analyze", "path": "ring.mpl"}
///   {"id": 2, "type": "analyze", "path": "buf", "source": "proc p ...",
///    "options": {"client": "sectionx", "deadline_ms": 500}}
///   {"id": 3, "type": "lint", "path": "ring.mpl", "werror": true,
///    "disable": ["dead-store"], "min_severity": "warning"}
///   {"id": 4, "type": "stats"}
///   {"id": 5, "type": "shutdown"}
///
/// "source" is analyzed as given (the file is not read); otherwise "path"
/// is read per request. "options" layers on the daemon's defaults (the
/// shared CLI flags). The envelope (members, versioning, `tenant`, error
/// vocabulary) is specified once in api/Wire.h and shared with `csdf
/// client` and `csdf router`; every response leads with "id", "proto",
/// and "tool_version", then "ok". An analyze response's "result" is
/// byte-identical to the object `csdf analyze --format json` prints for
/// the same input — the daemon is a cache in front of the CLI, never a
/// different analyzer.
///
/// Error responses are structured and machine-retryable (see Wire.h for
/// the code vocabulary); a bad line never kills the daemon, and a
/// mismatched "proto" gets a non-retryable "proto-mismatch" answer.
/// `csdf client` implements the retry side of this contract with capped
/// exponential backoff.
///
/// The socket transport is the shared line transport (driver/LineSocket.h):
/// each connection is served on its own thread (request handling itself
/// is serialized through the single warm analyzer), and the admission
/// gate sheds connections beyond `--max-inflight` + `--queue-depth` with
/// an `overloaded` response instead of queueing unboundedly. A `shutdown`
/// request drains: requests already in flight still get responses, the
/// disk store is flushed, and the process exits 0 deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_DRIVER_SERVE_H
#define CSDF_DRIVER_SERVE_H

#include "api/Csdf.h"
#include "api/Wire.h"
#include "support/Store.h"

#include <cstdint>
#include <istream>
#include <list>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>

namespace csdf {

/// Configuration of one daemon instance.
struct ServeOptions {
  /// Per-request defaults (a request's "options" object overrides them).
  api::RequestOptions Defaults;

  /// Result-cache capacity in entries; 0 disables caching.
  std::size_t CacheCapacity = 256;

  /// When non-empty, results are also persisted to this directory's
  /// content-addressed DiskStore and served from it after a restart.
  std::string StoreDir;

  /// Disk-store byte budget (oldest records evicted past it).
  std::uint64_t StoreMaxBytes = 256ull << 20;

  /// When non-empty, the warm ClosureMemo is periodically snapshotted to
  /// this directory (numeric/MemoSnapshot.h) and adopted back on
  /// startup, so a restarted daemon is warm on *near-miss* workloads —
  /// edited sources whose constraint graphs mostly repeat — not only the
  /// exact repeats the result store answers.
  std::string MemoDir;

  /// Snapshot the memo after this many cache-missing (analyzed) requests
  /// since the last flush; also flushed on graceful shutdown.
  unsigned MemoFlushEvery = 16;

  /// Socket admission gate: connections concurrently being served, plus
  /// how many more may wait. A connection arriving past
  /// MaxInflight + QueueDepth gets an `overloaded` response and is
  /// closed. (Request handling is serialized through the one warm
  /// analyzer; the gate bounds admitted work, not parallel analyses.)
  unsigned MaxInflight = 8;
  unsigned QueueDepth = 16;

  /// Requests over this many bytes are rejected with a structured
  /// `parse-error` instead of being buffered without bound.
  std::size_t MaxRequestBytes = 8ull << 20;

  /// When non-empty, listen on this unix domain socket path instead of
  /// stdio (the daemon state — cache, warm analyzer, stats — persists
  /// across connections).
  std::string SocketPath;
};

/// Daemon-lifetime counters, reported by the "stats" request.
struct ServeStats {
  std::uint64_t Requests = 0;
  std::uint64_t AnalyzeRequests = 0;
  std::uint64_t LintRequests = 0;
  /// Memory-LRU tier hits. Disk-tier hits are counted separately below;
  /// Misses counts requests that missed *both* tiers and analyzed.
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  /// Memory-LRU evictions (the disk tier's evictions are DiskEvictions).
  std::uint64_t Evictions = 0;
  /// Requests whose analysis degraded to Top on a budget limit.
  std::uint64_t BudgetTrips = 0;
  /// Malformed or rejected requests (parse error, unknown type/option).
  std::uint64_t Errors = 0;
  /// Connections shed by the admission gate with an `overloaded` error.
  std::uint64_t ShedConnections = 0;
  std::uint64_t WallUsTotal = 0;

  /// Disk-store tier, mirrored from the DiskStore when a stats request
  /// is answered (all zero when no --store-dir is configured).
  bool StoreEnabled = false;
  std::uint64_t DiskHits = 0;
  std::uint64_t DiskMisses = 0;
  std::uint64_t DiskWrites = 0;
  std::uint64_t DiskWriteFailures = 0;
  std::uint64_t DiskReadFailures = 0;
  std::uint64_t DiskQuarantined = 0;
  std::uint64_t DiskEvictions = 0;
  std::uint64_t StoreEntries = 0;
  std::uint64_t StoreLiveBytes = 0;
  std::uint64_t StoreTempsCleaned = 0;

  /// Incremental-pipeline counters, mirrored from the warm Analyzer's
  /// IncrementalStats when a stats request is answered. The daemon's own
  /// LRU answers exact repeats before the Analyzer sees them, so
  /// IncrementalCacheHits counts only requests that got past it (e.g.
  /// after an eviction).
  std::uint64_t IncrementalRequests = 0;
  std::uint64_t IncrementalCacheHits = 0;
  /// Misses that re-ran the engine with an accepted seed trace / cold.
  std::uint64_t SeededRuns = 0;
  std::uint64_t ColdRuns = 0;
  /// Engine worklist steps adopted from seed traces vs computed live.
  std::uint64_t AdoptedSteps = 0;
  std::uint64_t LiveSteps = 0;
  /// Why the most recent seed was rejected (empty: accepted or none).
  std::string LastSeedReject;
  /// Pipeline runs (front end through engine) of the warm Analyzer, and
  /// requests it answered from an existing revision product instead: a
  /// lint after an analyze of the same revision adds one to each.
  std::uint64_t EngineRuns = 0;
  std::uint64_t ProductHits = 0;

  /// ClosureMemo snapshot tier (--memo-dir), plus the process-global
  /// closure counters it exists to reduce: a restarted shard that adopted
  /// a snapshot shows MemoAdopted > 0 and fewer ClosureFullCalls than a
  /// cold shard on the same near-miss workload.
  std::uint64_t MemoEntries = 0;
  std::uint64_t MemoAdopted = 0;
  std::uint64_t MemoSnapshotSaves = 0;
  std::uint64_t MemoSnapshotRejected = 0;
  std::uint64_t MemoQuarantined = 0;
  std::uint64_t ClosureFullCalls = 0;
  std::uint64_t ClosureMemoHits = 0;

  double hitRate() const {
    std::uint64_t Lookups = Hits + Misses;
    return Lookups ? static_cast<double>(Hits) / Lookups : 0.0;
  }

  /// Stable JSON object (sorted keys, no trailing newline). CacheEntries
  /// is passed in because the cache lives in the server, not here.
  std::string json(std::size_t CacheEntries,
                   std::size_t CacheCapacity) const;
};

/// The structured `overloaded` response the admission gate writes before
/// closing a shed connection (api::wireOverloaded, re-exported for the
/// transport loop and its tests).
std::string overloadedResponse(unsigned RetryAfterMs);

/// The daemon's request processor, transport-agnostic: feed it one request
/// line, get one response line back. Owns the warm Analyzer, the result
/// cache, the optional disk store, and the stats. Not internally
/// synchronized — the socket transport serializes handleLine calls under
/// one mutex. Tests drive this directly; runServe() wires it to stdio or
/// a socket.
class ServeServer {
public:
  explicit ServeServer(const ServeOptions &Opts);

  /// Non-empty when --store-dir was configured but the store could not
  /// be opened; runServe() refuses to start in that case.
  const std::string &storeError() const { return StoreError; }

  /// Handles one request line and returns the response line (no trailing
  /// newline). Never throws; malformed input yields an "ok": false
  /// response. Sets \p Shutdown on a shutdown request.
  std::string handleLine(const std::string &Line, bool &Shutdown);

  /// Daemon counters with the incremental-pipeline and disk-store
  /// sections freshly mirrored.
  const ServeStats &stats();
  std::size_t cacheEntries() const { return CacheMap.size(); }
  DiskStore *store() { return Store.get(); }

  /// Counts one admission-gate shed (the transport's shed hook, called
  /// under the server mutex).
  void countShed() { ++Stats.ShedConnections; }

  /// Flushes the disk store and the memo snapshot (graceful-drain step of
  /// shutdown).
  void flushStore();

private:
  std::string handleAnalyze(const api::WireRequest &Req);
  std::string handleLint(const api::WireRequest &Req);

  /// Snapshot the closure memo to MemoDir when due (every MemoFlushEvery
  /// analyzed requests); \p Force flushes unconditionally (shutdown).
  void maybeFlushMemo(bool Force);

  /// Two-tier lookup: memory LRU first (moves the entry to MRU), then
  /// the disk store (backfilling the LRU). \p Tier names the hit's tier
  /// for the response. Returns empty optional on a full miss.
  std::optional<std::string> cacheGet(const std::string &Key,
                                      const char *&Tier);
  void cachePut(const std::string &Key, std::string Payload,
                bool WriteDisk = true);

  ServeOptions Opts;
  api::Analyzer Analyzer;
  ServeStats Stats;
  std::unique_ptr<DiskStore> Store;
  std::string StoreError;
  /// Analyzed (cache-missing) requests since the last memo flush.
  unsigned ColdSinceMemoFlush = 0;

  /// LRU list, most recent first; the map points into it. The key embeds
  /// the full option fingerprint and source text, so a hit is exact by
  /// construction — no hash-collision risk.
  std::list<std::pair<std::string, std::string>> CacheList;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, std::string>>::iterator>
      CacheMap;
};

/// Reads request lines from \p In, writes response lines (flushed each)
/// to \p Out, until EOF or a shutdown request.
void runServeLoop(ServeServer &Server, std::istream &In, std::ostream &Out);

/// Runs the daemon per \p Opts: stdio, or an AF_UNIX listener when
/// SocketPath is set. Returns a process exit code (0 on clean shutdown or
/// EOF — deterministically, with the store flushed; 2 on a transport or
/// store setup failure).
int runServe(const ServeOptions &Opts);

} // namespace csdf

#endif // CSDF_DRIVER_SERVE_H
