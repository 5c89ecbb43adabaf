//===- api/Csdf.h - The stable library facade -----------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one supported way to run csdf analyses from code. Every front end —
/// `csdf analyze`, `csdf lint`, `csdf batch`, the `csdf serve` daemon, the
/// benchmarks — and any embedder constructs an Analyzer and feeds it
/// value-typed requests:
///
/// \code
///   csdf::api::Analyzer An(csdf::api::AnalyzerConfig::warm());
///   csdf::api::AnalyzeRequest Req;
///   Req.Path = "ring.mpl";
///   Req.Source = "proc p in 0..np-1 { ... }";   // or omit to read Path
///   Req.Options.Client = "cartesian";
///   csdf::api::AnalyzeResponse R = An.analyze(Req);
///   if (R.Session.Outcome.complete())
///     for (const csdf::AnalysisBug &B : R.Session.Report.Analysis.Bugs)
///       use(B);
/// \endcode
///
/// The Analyzer owns the state worth keeping warm between requests — the
/// symbol intern table and the cross-session closure memo — so a
/// long-lived holder (the serve daemon) amortizes closure work across
/// requests, while a cold Analyzer (the one-shot CLI) reproduces the
/// classic fully-isolated run bit for bit. Analyze and lint of one
/// revision share one engine run (api/Pipeline.h). Layering: api wraps
/// driver/Session (the fail-safe pipeline) and driver/Batch (process
/// isolation); it never reaches around them into the engine.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_API_CSDF_H
#define CSDF_API_CSDF_H

#include "api/Options.h"
#include "diag/DiagnosticEngine.h"
#include "driver/Batch.h"
#include "pcfg/Replay.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace csdf {
class SymbolTable;
class ClosureMemo;
class ThreadPool;
} // namespace csdf

namespace csdf::api {

/// One analysis request: a source program plus options. When Source is
/// absent the file at Path is read; when present, Path is only used in
/// messages (so callers can analyze unsaved buffers).
struct AnalyzeRequest {
  std::string Path;
  std::optional<std::string> Source;
  RequestOptions Options;
};

/// What one analyze request produced. Session carries the full structured
/// result (outcome, report, exit code per the 0/1/2/3 contract); the
/// accessors below cover the common questions.
struct AnalyzeResponse {
  SessionResult Session;

  /// Wall time of this request as observed by the facade, in
  /// microseconds (the only field that differs between identical runs).
  std::uint64_t WallUs = 0;

  /// RequestOptions::fingerprint() of the request that produced this
  /// response — stamped into the JSON verdict so cached results can be
  /// traced back to the exact option set.
  std::string OptionsFingerprint;

  /// True when an incremental entry point replayed an earlier analyze
  /// response of the same revision (exact path + source + options match).
  bool FromCache = false;

  /// Engine adoption counters when the run went through the incremental
  /// pipeline (all-zero for plain analyze() and for cache hits).
  ReplayStats Replay;

  int exitCode() const { return Session.ExitCode; }
  const AnalysisOutcome &outcome() const { return Session.Outcome; }
  bool degraded() const { return !Session.Outcome.complete(); }
};

/// One lint request: source plus pass selection and severity policy.
struct LintRequest {
  std::string Path;
  std::optional<std::string> Source;
  RequestOptions Options;

  /// Pass names to skip (see lintPassRegistry()).
  std::set<std::string> Disabled;
  /// Promote warnings to errors.
  bool Werror = false;
  /// Drop findings below this level.
  DiagSeverity MinSeverity = DiagSeverity::Note;
};

/// What one lint request produced.
struct LintResponse {
  /// Per the session contract: 0 clean, 1 findings, 2 usage/IO error,
  /// 3 recovered internal error.
  int ExitCode = 0;

  /// Filtered, severity-adjusted findings, in pass order.
  std::vector<Diagnostic> Diagnostics;

  /// IO error text when the input could not be read (ExitCode 2), empty
  /// otherwise.
  std::string Error;

  std::uint64_t WallUs = 0;

  /// True when lintIncremental replayed an earlier lint response (exact
  /// path + source + options + lint knobs match) without running any pass.
  bool FromCache = false;

  /// Engine adoption counters when the run went through the incremental
  /// pipeline (all-zero for plain lint() and for cache hits).
  ReplayStats Replay;
};

/// One batch request: a corpus plus per-file options and isolation policy.
struct BatchRequest {
  std::vector<std::string> Files;

  /// Per-file request configuration. Batch corpora are test/stress
  /// inputs; callers typically set Options.TestHooks.
  RequestOptions Options;

  /// Concurrent children (fork) or worker threads (threads); 1 = serial.
  unsigned Jobs = 1;

  /// Fork: one rlimited child per file (crash isolation). Threads:
  /// in-process pool sharing the Analyzer's closure memo.
  BatchMode Mode = BatchMode::Fork;

  /// Per-file wall-clock timeout: SIGKILL in fork mode, cooperative
  /// deadline in threads mode. 0 = none.
  std::uint64_t TimeoutMs = 0;
};

/// How an Analyzer treats state between requests.
struct AnalyzerConfig {
  /// Share the symbol intern table and the cross-session closure memo
  /// across requests. Warm mode is for long-lived holders (serve): later
  /// requests reuse closure results computed by earlier ones. Cold mode
  /// (default) gives every request fresh state — exactly the classic
  /// one-shot run.
  bool WarmState = false;

  static AnalyzerConfig warm() {
    AnalyzerConfig C;
    C.WarmState = true;
    return C;
  }
};

class PipelineCache;
struct RevisionProduct;

/// Lifetime counters of the incremental entry points
/// (Analyzer::analyzeIncremental / lintIncremental); EngineRuns and
/// ProductHits count all four entry points. Reported by the serve
/// daemon's "stats" request.
struct IncrementalStats {
  /// Incremental requests received (analyze + lint).
  std::uint64_t Requests = 0;
  /// Answered from the cached response (exact source + options match).
  std::uint64_t CacheHits = 0;
  /// Runs that entered the engine with an accepted seed trace.
  std::uint64_t SeededRuns = 0;
  /// Runs computed cold (no prior entry, or the seed was rejected).
  std::uint64_t ColdRuns = 0;
  /// Engine worklist steps adopted verbatim from seed traces.
  std::uint64_t AdoptedSteps = 0;
  /// Engine worklist steps computed live.
  std::uint64_t LiveSteps = 0;
  /// Why the most recent seed was rejected; empty when it was accepted.
  std::string LastSeedRejectReason;
  /// Pipeline runs (front end through engine), and requests answered
  /// from an existing revision product instead (replays included).
  std::uint64_t EngineRuns = 0;
  std::uint64_t ProductHits = 0;
};

/// The facade handle. Thread-compatible, not thread-safe: issue requests
/// from one thread at a time (runBatch parallelizes internally and is one
/// such request). Copying is disabled — the whole point is *shared* warm
/// state, so pass the Analyzer by reference.
class Analyzer {
public:
  Analyzer() : Analyzer(AnalyzerConfig()) {}
  explicit Analyzer(const AnalyzerConfig &Config);
  ~Analyzer();
  Analyzer(const Analyzer &) = delete;
  Analyzer &operator=(const Analyzer &) = delete;

  /// Runs one analysis session (read file if needed, parse, sema, CFG,
  /// pCFG engine, client passes) under the request's budget. Never
  /// throws; failures are folded into the response per the session
  /// contract. Reuses the session a lint() of the same path, source and
  /// options just ran.
  AnalyzeResponse analyze(const AnalyzeRequest &Req) {
    return analyzeVia(Req, /*Incremental=*/false);
  }

  /// Runs the lint pass suite under the request's budget. Never throws.
  /// After an analyze() of the same path, source and options it reads
  /// that run's result instead of running the engine. Requests with
  /// budget limits or test hooks share nothing.
  LintResponse lint(const LintRequest &Req) {
    return lintVia(Req, /*Incremental=*/false);
  }

  /// analyze() through the incremental pipeline (see api/Pipeline.h). An
  /// exact re-request (same path, source bytes, and options) is answered
  /// from the path's product (the cached response, or what a
  /// lintIncremental left); an edited revision re-runs the pipeline
  /// with the prior run's engine trace attached as a seed, so worklist
  /// steps whose CFG footprint is unchanged are adopted instead of
  /// recomputed. The verdict is bit-identical to analyze() in every case;
  /// only the work to produce it differs. Requests with budget limits
  /// (deadline, memory, prover steps) or test hooks bypass the cache
  /// entirely — their outcomes are not safe to replay or memoize.
  /// Incremental requests always run warm (shared symbols and closure
  /// memo), even on a cold-configured Analyzer: seeding requires the
  /// recording and seeded runs to share one intern table.
  AnalyzeResponse analyzeIncremental(const AnalyzeRequest &Req) {
    return analyzeVia(Req, /*Incremental=*/true);
  }

  /// lint() through the incremental pipeline; same contract as
  /// analyzeIncremental. This is what the LSP server calls per keystroke.
  LintResponse lintIncremental(const LintRequest &Req) {
    return lintVia(Req, /*Incremental=*/true);
  }

  /// Lifetime counters of the incremental entry points.
  const IncrementalStats &incrementalStats() const { return IncStats; }

  /// The cross-session closure memo shared by this Analyzer's requests
  /// (created on first use). Exposed so a long-lived holder can persist
  /// it across restarts (serve's --memo-dir snapshots,
  /// numeric/MemoSnapshot.h); treat it as read/insert-only.
  const std::shared_ptr<ClosureMemo> &closureMemo() const;

  /// Runs every file through an isolated session. Fork mode delegates to
  /// the process-per-file driver; threads mode runs sessions on this
  /// Analyzer's pool, sharing its closure memo so closure work amortizes
  /// across files (symbols stay per-session there: a SymbolTable is not
  /// thread-safe).
  BatchReport runBatch(const BatchRequest &Req);

private:
  AnalyzeResponse analyzeVia(const AnalyzeRequest &Req, bool Incremental);
  LintResponse lintVia(const LintRequest &Req, bool Incremental);

  /// The one way an entry point obtains the analysis of (Path, Options,
  /// Source): *Slot when it is that revision's product (with its full
  /// report, if \p NeedReport), else one built by a single
  /// runAnalysisSession and stored into *Slot. A null Slot (budgeted or
  /// test-hook requests) builds a private product. Incremental builds
  /// capture a trace, seeded by the slot's prior product.
  std::shared_ptr<RevisionProduct>
  product(std::shared_ptr<RevisionProduct> *Slot, const std::string &Path,
          const RequestOptions &Options, const std::string &OptionsFp,
          const std::string &Source, bool Incremental, bool NeedReport);

  /// The shared symbol table, built on first warm or incremental use.
  const std::shared_ptr<SymbolTable> &symbols();

  /// Lazily (re)built pool for threads-mode batches.
  ThreadPool &pool(unsigned Workers);

  /// Lazily constructed per-path product cache of the incremental pipeline.
  PipelineCache &cache();

  AnalyzerConfig Config;
  std::shared_ptr<SymbolTable> Syms;
  mutable std::shared_ptr<ClosureMemo> Memo;
  std::unique_ptr<ThreadPool> Pool;
  unsigned PoolWorkers = 0;
  std::unique_ptr<PipelineCache> Cache;
  /// The product of the last plain analyze()/lint() revision.
  std::shared_ptr<RevisionProduct> Last;
  IncrementalStats IncStats;
};

/// Maps a response onto the batch report row shape — the one per-file
/// verdict schema every JSON surface shares (`csdf analyze --format
/// json`, `csdf batch --report`, `csdf serve`). PeakRssKb is 0: like the
/// threads batch mode, an in-process run has no per-file RSS figure.
BatchEntry toBatchEntry(const std::string &File, const AnalyzeResponse &R);

/// Renders the response as one JSON verdict object (batchEntryJson over
/// toBatchEntry), without a trailing newline, extended with two identity
/// members: "tool_version" (csdf::toolVersion()) and
/// "options_fingerprint" (the request's RequestOptions::fingerprint()).
/// `csdf analyze --format json` and the serve daemon's analyze "result"
/// both go through here, so the two stay byte-identical by construction;
/// batch report entries keep the unextended schema.
std::string verdictJson(const std::string &File, const AnalyzeResponse &R);

} // namespace csdf::api

#endif // CSDF_API_CSDF_H
