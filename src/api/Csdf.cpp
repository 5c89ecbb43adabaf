//===- api/Csdf.cpp -------------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "api/Csdf.h"

#include "analysis/Lint.h"
#include "api/Pipeline.h"
#include "numeric/ConstraintGraph.h"
#include "numeric/SymbolTable.h"
#include "support/Budget.h"
#include "support/ThreadPool.h"
#include "support/Version.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

using namespace csdf;
using namespace csdf::api;

namespace {

std::uint64_t nowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Resolves a request's source text per the facade contract: inline
/// Source wins; otherwise the file at Path is read. Returns false with
/// the usage-error text set.
bool resolveSource(const std::string &Path,
                   const std::optional<std::string> &Inline,
                   std::string &Source, std::string &Error,
                   bool EmptyIsError) {
  if (Inline) {
    Source = *Inline;
    if (Source.empty() && EmptyIsError) {
      // Mirror readSessionFile's empty-input contract for inline sources.
      Error = "error: '" + Path + "' is empty";
      return false;
    }
    return true;
  }
  return readSessionFile(Path, Source, Error);
}

/// Canonical key of the lint-only request knobs, layered on top of the
/// shared options fingerprint (same shape the serve daemon uses for its
/// lint cache keys).
std::string lintKnobsKey(const LintRequest &Req) {
  std::string Key = "werror=" + std::to_string(Req.Werror);
  Key += ";minsev=" + std::to_string(static_cast<int>(Req.MinSeverity));
  Key += ";disabled={";
  for (const std::string &Pass : Req.Disabled)
    Key += Pass + ",";
  Key += "}";
  return Key;
}

/// Budget-limited outcomes are timing-dependent, and test hooks let a
/// source's comments steer its run: such requests neither store nor reuse
/// a product.
bool shareable(const RequestOptions &Options) {
  return !Options.DeadlineMs && !Options.MaxMemoryMb && !Options.ProverSteps &&
         !Options.TestHooks;
}

/// Moves the session, report included, out of \p P for a response. P
/// keeps the rest, and of the report only what lint reads.
SessionResult takeSession(RevisionProduct &P) {
  ClientReport Report = std::exchange(P.Session.Report, ClientReport());
  SessionResult Out = P.Session;
  AnalysisResult &Kept = P.Session.Report.Analysis;
  Kept.Converged = Report.Analysis.Converged;
  Kept.TopReason = Report.Analysis.TopReason;
  Kept.Outcome = Report.Analysis.Outcome;
  Kept.Bugs = Report.Analysis.Bugs;
  P.FullReport = false;
  Out.Report = std::move(Report);
  return Out;
}

} // namespace

Analyzer::Analyzer(const AnalyzerConfig &Config) : Config(Config) {}

Analyzer::~Analyzer() = default;

const std::shared_ptr<SymbolTable> &Analyzer::symbols() {
  if (!Syms)
    Syms = std::make_shared<SymbolTable>();
  return Syms;
}

const std::shared_ptr<ClosureMemo> &Analyzer::closureMemo() const {
  if (!Memo)
    Memo = std::make_shared<ClosureMemo>(/*CrossSession=*/true);
  return Memo;
}

ThreadPool &Analyzer::pool(unsigned Workers) {
  Workers = std::max(1u, Workers);
  if (!Pool || PoolWorkers != Workers) {
    Pool = std::make_unique<ThreadPool>(Workers);
    PoolWorkers = Workers;
  }
  return *Pool;
}

PipelineCache &Analyzer::cache() {
  if (!Cache)
    Cache = std::make_unique<PipelineCache>();
  return *Cache;
}

std::shared_ptr<RevisionProduct>
Analyzer::product(std::shared_ptr<RevisionProduct> *Slot,
                  const std::string &Path, const RequestOptions &Options,
                  const std::string &OptionsFp, const std::string &Source,
                  bool Incremental, bool NeedReport) {
  std::shared_ptr<RevisionProduct> Prior = Slot ? *Slot : nullptr;
  if (Prior && Prior->matches(Path, OptionsFp, Source) &&
      (Prior->FullReport || !NeedReport)) {
    IncStats.ProductHits++;
    return Prior;
  }
  IncStats.EngineRuns++;

  auto P = std::make_shared<RevisionProduct>();
  P->Path = Path;
  P->OptionsFp = OptionsFp;
  P->Source = Source;
  SessionOptions Opts = Options.session();
  // Cold plain requests hand the session null handles, i.e. fresh per-run
  // state — the classic isolated run. Incremental ones always run warm:
  // seeding requires the recording and the seeded run to share one symbol
  // intern table.
  if (Incremental || Config.WarmState) {
    Opts.Analysis.SharedSymbols = symbols();
    Opts.Analysis.SharedMemo = closureMemo();
  }
  if (!Incremental || !Slot) {
    // No trace: plain requests never seed, and the engine refuses to
    // capture or seed a budget-limited run anyway.
    if (Incremental)
      IncStats.ColdRuns++;
    P->Session = runAnalysisSession(Path, Source, Opts);
    if (Slot)
      *Slot = P;
    return P;
  }

  auto Capture = std::make_shared<ReplayCapture>();
  auto RStats = std::make_shared<ReplayStats>();
  Opts.Analysis.Capture = Capture;
  Opts.Analysis.Replay = RStats;
  if (Prior && Prior->OptionsFp == OptionsFp && Prior->Trace &&
      Prior->Session.Graph && Prior->Session.Parsed) {
    auto Seed = std::make_shared<EngineSeed>();
    Seed->Trace = Prior->Trace;
    Seed->PriorGraph = Prior->Session.Graph;
    Seed->Symbols = Syms;
    Seed->PriorKeepAlive = Prior->Session.Parsed;
    Seed->OptionsFingerprint = Opts.Analysis.fingerprint();
    Opts.Analysis.Seed = std::move(Seed);
  }

  P->Session = runAnalysisSession(Path, Source, Opts);
  P->Trace = Capture->Trace; // Null unless the engine converged.
  P->Replay = *RStats;
  if (RStats->SeedUsed)
    IncStats.SeededRuns++;
  else
    IncStats.ColdRuns++;
  IncStats.AdoptedSteps += RStats->AdoptedSteps;
  IncStats.LiveSteps += RStats->LiveSteps;
  IncStats.LastSeedRejectReason = RStats->SeedRejectReason;
  *Slot = P;
  return P;
}

AnalyzeResponse Analyzer::analyzeVia(const AnalyzeRequest &Req,
                                     bool Incremental) {
  if (Incremental)
    IncStats.Requests++;
  AnalyzeResponse Resp;
  Resp.OptionsFingerprint = Req.Options.fingerprint();
  std::uint64_t Start = nowUs();

  std::string Source;
  if (!resolveSource(Req.Path, Req.Source, Source, Resp.Session.Error,
                     /*EmptyIsError=*/true)) {
    Resp.Session.ExitCode = SessionExitUsage;
    Resp.WallUs = nowUs() - Start;
    return Resp;
  }

  bool Shared = shareable(Req.Options);
  std::shared_ptr<RevisionProduct> *Slot =
      !Shared ? nullptr : Incremental ? &cache().slot(Req.Path) : &Last;
  std::shared_ptr<RevisionProduct> P =
      product(Slot, Req.Path, Req.Options, Resp.OptionsFingerprint, Source,
              Incremental, /*NeedReport=*/true);
  if (Incremental && Shared) {
    // The path's product keeps its report to replay it; only the wall
    // clock is this request's own.
    Resp.Session = P->Session;
    Resp.FromCache = P->Analyzed;
    if (P->Analyzed)
      IncStats.CacheHits++;
    P->Analyzed = true;
    Resp.Replay = std::exchange(P->Replay, ReplayStats());
  } else {
    Resp.Session = Slot ? takeSession(*P) : std::move(P->Session);
  }
  Resp.WallUs = nowUs() - Start;
  return Resp;
}

LintResponse Analyzer::lintVia(const LintRequest &Req, bool Incremental) {
  if (Incremental)
    IncStats.Requests++;
  LintResponse Resp;
  std::uint64_t Start = nowUs();

  std::string Source;
  if (!resolveSource(Req.Path, Req.Source, Source, Resp.Error,
                     /*EmptyIsError=*/false)) {
    Resp.ExitCode = SessionExitUsage;
    Resp.WallUs = nowUs() - Start;
    return Resp;
  }

  LintOptions Opts;
  Opts.Disabled = Req.Disabled;
  Opts.Analysis = Req.Options.analysis();
  DiagnosticEngine Diags;
  std::shared_ptr<RevisionProduct> P;
  std::string Knobs;
  if (shareable(Req.Options)) {
    P = product(Incremental ? &cache().slot(Req.Path) : &Last, Req.Path,
                Req.Options, Req.Options.fingerprint(), Source, Incremental,
                /*NeedReport=*/false);
    if (Incremental) {
      Knobs = lintKnobsKey(Req);
      if (P->Lint && P->LintKnobs == Knobs) {
        IncStats.CacheHits++;
        LintResponse Hit = *P->Lint;
        Hit.FromCache = true;
        Hit.Replay = ReplayStats();
        Hit.WallUs = nowUs() - Start;
        return Hit;
      }
    }
    const SessionResult &S = P->Session;
    lintAnalyzed(*S.Parsed, S.Sema, S.Graph.get(), S.Report.Analysis, Opts,
                 Diags);
  } else {
    // Lint's own pipeline, under the request's budget.
    if (Incremental)
      IncStats.ColdRuns++;
    IncStats.EngineRuns++;
    if (Config.WarmState) {
      Opts.Analysis.SharedSymbols = symbols();
      Opts.Analysis.SharedMemo = closureMemo();
    }
    AnalysisBudget Budget;
    Budget.DeadlineMs = Req.Options.DeadlineMs;
    Budget.MaxMemoryMb = Req.Options.MaxMemoryMb;
    Budget.MaxProverSteps = Req.Options.ProverSteps;
    Budget.begin();
    // The scope arms the parser/sema checkpoints (they reach the budget
    // through the thread-local, not AnalysisOptions), so the deadline
    // covers lint's front end too.
    BudgetScope Budgets(&Budget);
    Opts.Analysis.Budget = &Budget;
    try {
      lintSource(Source, Opts, Diags);
    } catch (const BudgetExceeded &E) {
      // The budget tripped outside the engine (parse, sema, or a
      // post-engine pass): degrade like the engine's own give-up instead
      // of dying.
      if (Opts.isEnabled("analysis-top"))
        Diags.report(makeDiag("analysis-top", DiagSeverity::Note,
                              SourceLoc(), "lint gave up (Top): " + E.reason(),
                              "budget exhausted before the pass suite "
                              "finished; findings may be incomplete"));
    }
  }

  if (Req.Werror)
    Diags.promoteWarningsToErrors();
  Diags.filterBelow(Req.MinSeverity);
  Resp.Diagnostics = Diags.diagnostics();
  Resp.ExitCode = Diags.exitCode();
  // A recovered engine invariant violation outranks ordinary findings.
  for (const Diagnostic &D : Resp.Diagnostics)
    if (D.Pass == "internal-error")
      Resp.ExitCode = SessionExitInternal;
  Resp.WallUs = nowUs() - Start;
  if (Incremental && P) {
    Resp.Replay = std::exchange(P->Replay, ReplayStats());
    P->LintKnobs = std::move(Knobs);
    P->Lint = Resp;
  }
  return Resp;
}

BatchReport Analyzer::runBatch(const BatchRequest &Req) {
  BatchOptions Opts;
  Opts.Session = Req.Options.session();
  Opts.Jobs = std::max(1u, Req.Jobs);
  Opts.Mode = Req.Mode;
  Opts.TimeoutMs = Req.TimeoutMs;
  // Hard address-space backstop behind the soft DBM ceiling: generous
  // headroom for code, stacks, and the front end.
  Opts.AddressSpaceMb =
      Req.Options.MaxMemoryMb ? Req.Options.MaxMemoryMb * 4 + 256 : 0;

  if (Req.Mode == BatchMode::Fork)
    return runBatchFork(Req.Files, Opts);

  // The shared-memory runner: sessions run on the Analyzer's pool, all
  // sharing one cross-session ClosureMemo so closure results computed for
  // one file are reused by every later one. Trades the fork mode's hard
  // crash isolation for zero process overhead; hangs are still bounded by
  // mapping TimeoutMs onto the cooperative budget deadline.
  BatchReport Report;
  Report.Entries.resize(Req.Files.size());
  for (size_t I = 0; I < Req.Files.size(); ++I)
    Report.Entries[I].File = Req.Files[I];

  // Warm analyzers amortize across batches too; a cold one still shares
  // within the batch (the mode's whole point), then drops the memo.
  std::shared_ptr<ClosureMemo> SharedMemo =
      Config.WarmState ? closureMemo()
                       : std::make_shared<ClosureMemo>(/*CrossSession=*/true);

  {
    ThreadPool &P = pool(Opts.Jobs);
    std::vector<std::future<void>> Done;
    Done.reserve(Req.Files.size());
    for (size_t I = 0; I < Req.Files.size(); ++I) {
      Done.push_back(P.submit([&Report, &Req, &Opts, SharedMemo, I] {
        BatchEntry &E = Report.Entries[I]; // Disjoint per task: no lock.
        std::uint64_t Start = nowUs();
        SessionOptions SOpts = Opts.Session;
        // No SIGKILL backstop in-process: the wall-clock timeout becomes
        // (or tightens) the session's cooperative deadline.
        if (Opts.TimeoutMs &&
            (SOpts.DeadlineMs == 0 || Opts.TimeoutMs < SOpts.DeadlineMs))
          SOpts.DeadlineMs = Opts.TimeoutMs;
        // Memo only: a SymbolTable is not thread-safe, so the table stays
        // per-session here.
        SOpts.Analysis.SharedMemo = SharedMemo;
        E.Reason = BatchExitReason::Exited;
        try {
          E.ExitCode =
              runSessionOutcome(Req.Files[I], SOpts, E.Verdict, E.Detail);
        } catch (const std::exception &Ex) {
          // Sessions recover their own failures; this catches what leaks
          // anyway (e.g. bad_alloc) so one file cannot sink the batch.
          E.ExitCode = SessionExitInternal;
          E.Verdict = "internal-error";
          E.Detail = std::string("uncaught exception: ") + Ex.what();
        }
        E.WallMs = (nowUs() - Start) / 1000;
        // Peak RSS is a per-process number; in-process sessions share the
        // address space, so no per-file figure exists.
        E.PeakRssKb = 0;
      }));
    }
    for (std::future<void> &F : Done)
      F.get();
  }

  for (const BatchEntry &E : Report.Entries) {
    switch (E.ExitCode) {
    case SessionExitComplete:
      Report.Complete++;
      break;
    case SessionExitFindings:
      Report.Findings++;
      break;
    case SessionExitUsage:
      Report.UsageErrors++;
      break;
    default:
      Report.InternalErrors++;
      break;
    }
  }
  return Report;
}

BatchEntry csdf::api::toBatchEntry(const std::string &File,
                                   const AnalyzeResponse &R) {
  BatchEntry E;
  E.File = File;
  E.Reason = BatchExitReason::Exited;
  E.ExitCode = R.Session.ExitCode;
  sessionVerdict(R.Session, E.Verdict, E.Detail);
  E.WallMs = R.WallUs / 1000;
  E.PeakRssKb = 0;
  return E;
}

std::string csdf::api::verdictJson(const std::string &File,
                                   const AnalyzeResponse &R) {
  // The batch row schema, extended with the identity members every
  // non-batch JSON surface carries. Inserted before the closing brace so
  // the shared prefix stays byte-identical to a batch report entry.
  std::string Out = batchEntryJson(toBatchEntry(File, R));
  std::string Extra = ", \"tool_version\": \"" + std::string(toolVersion()) +
                      "\", \"options_fingerprint\": \"" +
                      jsonEscape(R.OptionsFingerprint) + "\"";
  Out.insert(Out.size() - 1, Extra);
  return Out;
}
