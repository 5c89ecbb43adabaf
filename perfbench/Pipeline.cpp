//===- perfbench/Pipeline.cpp ---------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "Trace.h"

#include "analysis/Clients.h"
#include "analysis/Lint.h"
#include "cfg/CfgBuilder.h"
#include "diag/DiagRenderer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "pcfg/Engine.h"
#include "support/Budget.h"
#include "support/ErrorHandling.h"
#include "support/Stats.h"
#include "topology/CommTopology.h"

using namespace perfbench;
using namespace csdf;

const std::vector<std::string> &perfbench::layerMetricNames() {
  static const std::vector<std::string> Names = {
      "lang.parse_ms",
      "lang.sema_ms",
      "lang.source_bytes",
      "cfg.build_ms",
      "cfg.nodes",
      "pcfg.engine_ms",
      "pcfg.states_explored",
      "pcfg.configs_visited",
      "pcfg.max_sets",
      "numeric.closure_ms",
      "numeric.closure.full_calls",
      "numeric.closure.incr_calls",
      "numeric.closure.avg_vars",
      "numeric.cow.detach_ratio",
      "numeric.memo.hit_ratio",
      "hsm.prover_steps",
      "topology.classify_ms",
      "analysis.clients_ms",
      "analysis.lint_ms",
      "analysis.findings",
      "diag.render_ms",
      "diag.output_bytes",
      "api.verdict_json_ms",
      "api.pipeline.hit_ratio",
      "pcfg.replay.adopted_ratio",
      "pcfg.replay.seed_accept_ratio",
      "driver.serve.memory_hit_ratio",
      "driver.serve.disk_hit_ratio",
      "support.store.writes",
      "support.store.live_bytes",
      "driver.batch.busy_ratio",
      "hit_p50_ms",
      "miss_p50_ms",
      "edit_p50_ms",
      "trace.coverage",
      "trace.overhead_ratio",
  };
  return Names;
}

namespace {

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Parse + sema under one span each. Sema is skipped when parsing failed;
/// the caller inspects both results.
std::shared_ptr<ParseResult> frontEnd(const std::string &Source,
                                      SpanRecorder &Spans, SemaResult &Sema) {
  std::shared_ptr<ParseResult> Parsed;
  {
    ScopedSpan S(Spans, "lang.parse");
    Parsed = std::make_shared<ParseResult>(parseProgram(Source));
  }
  if (!Parsed->succeeded())
    return Parsed;
  ScopedSpan S(Spans, "lang.sema");
  Sema = checkProgram(Parsed->Prog);
  return Parsed;
}

} // namespace

void LayerCounts::addCounters(
    const std::map<std::string, std::int64_t> &Before,
    const std::map<std::string, std::int64_t> &After, std::int64_t Sharers) {
  auto Delta = [&](const char *Name) {
    auto A = After.find(Name), B = Before.find(Name);
    return ((A == After.end() ? 0 : A->second) -
            (B == Before.end() ? 0 : B->second)) /
           Sharers;
  };
  FullCalls += Delta("cg.closure.full.calls");
  FullVarsum += Delta("cg.closure.full.varsum");
  IncrCalls += Delta("cg.closure.incr.calls");
  IncrVarsum += Delta("cg.closure.incr.varsum");
  CowCopies += Delta("cg.cow.copies");
  CowDetaches += Delta("cg.cow.detaches");
  MemoHits += Delta("cg.closure.memo.hits");
  MemoMisses += Delta("cg.closure.memo.misses");
}

void LayerCounts::report(const SpanRecorder &Spans,
                         std::map<std::string, double> &Layers) const {
  double N = static_cast<double>(Requests);
  for (const auto &[Name, Ms] : Spans.selfMs())
    if (Name != "request")
      Layers[Name + "_ms"] = ratio(Ms, N);
  Layers["lang.source_bytes"] = ratio(SourceBytes, N);
  Layers["cfg.nodes"] = ratio(CfgNodes, N);
  Layers["pcfg.states_explored"] = ratio(StatesExplored, N);
  Layers["pcfg.configs_visited"] = ratio(ConfigsVisited, N);
  Layers["pcfg.max_sets"] = MaxSets;
  Layers["hsm.prover_steps"] = ratio(ProverSteps, N);
  Layers["analysis.findings"] = ratio(Findings, N);
  Layers["diag.output_bytes"] = ratio(OutputBytes, N);
  Layers["numeric.closure.full_calls"] = ratio(FullCalls, N);
  Layers["numeric.closure.incr_calls"] = ratio(IncrCalls, N);
  Layers["numeric.closure.avg_vars"] =
      ratio(FullVarsum + IncrVarsum, FullCalls + IncrCalls);
  Layers["numeric.cow.detach_ratio"] = ratio(CowDetaches, CowCopies);
  Layers["numeric.memo.hit_ratio"] = ratio(MemoHits, MemoHits + MemoMisses);
  Layers["trace.coverage"] = Spans.coverage();
}

std::string perfbench::tracedAnalyze(const std::string &Path,
                                     const std::string &Source,
                                     const api::RequestOptions &Opts,
                                     SpanRecorder &Spans, LayerCounts &Counts,
                                     api::AnalyzeResponse &Resp) {
  Resp = api::AnalyzeResponse();
  Resp.OptionsFingerprint = Opts.fingerprint();
  Counts.SourceBytes += static_cast<double>(Source.size());
  SessionResult &R = Resp.Session;
  SessionOptions SOpts = Opts.session();

  // The session's budget wiring: unlimited here, so it only counts (the
  // HSM prover steps below come from it).
  AnalysisBudget Budget;
  Budget.DeadlineMs = SOpts.DeadlineMs;
  Budget.MaxMemoryMb = SOpts.MaxMemoryMb;
  Budget.MaxProverSteps = SOpts.MaxProverSteps;
  Budget.begin();
  BudgetScope Budgets(&Budget);

  SemaResult Sema;
  R.Parsed = frontEnd(Source, Spans, Sema);
  if (!R.Parsed->succeeded() || Sema.hasErrors()) {
    R.FrontEndErrors = true;
    if (!R.Parsed->succeeded())
      for (const ParseDiagnostic &D : R.Parsed->Diagnostics)
        R.Error += Path + ": " + D.str() + "\n";
    else
      for (const SemaDiagnostic &D : Sema.Diagnostics)
        R.Error += Path + ": " + D.str() + "\n";
    R.ExitCode = SessionExitFindings;
  } else {
    AnalysisOptions Analysis = SOpts.Analysis;
    Analysis.Budget = &Budget;
    try {
      RecoveryScope Recover;
      {
        ScopedSpan S(Spans, "cfg.build");
        R.Graph = std::make_shared<Cfg>(buildCfg(R.Parsed->Prog));
      }
      Counts.CfgNodes += static_cast<double>(R.Graph->size());
      StatsRegistry Private;
      {
        ScopedSpan S(Spans, "pcfg.engine");
        R.Report.Analysis = analyzeProgram(*R.Graph, Analysis, &Private);
        Spans.addMeasured("numeric.closure",
                          static_cast<std::int64_t>(
                              Private.seconds("cg.closure.seconds") * 1e9));
      }
      Counts.addCounters({}, Private.counters());
      {
        ScopedSpan S(Spans, "topology.classify");
        R.Report.Patterns = classifyMatches(*R.Graph, R.Report.Analysis);
      }
      {
        ScopedSpan S(Spans, "analysis.clients");
        R.Report.Suggestions = suggestCollectives(R.Report.Patterns);
        R.Report.ShareableConstants =
            findShareableConstants(R.Report.Analysis);
      }
      R.Outcome = R.Report.Analysis.Outcome;
      if (R.Outcome.internalError())
        R.ExitCode = SessionExitInternal;
      else if (!R.Outcome.complete() || !R.Report.Analysis.Bugs.empty())
        R.ExitCode = SessionExitFindings;
      else
        R.ExitCode = SessionExitComplete;
    } catch (const EngineError &E) {
      R.Outcome.Verdict = AnalysisVerdict::InternalError;
      R.Outcome.Reason = E.what();
      R.Error = std::string("internal error: ") + E.what();
      R.ExitCode = SessionExitInternal;
    }
    const AnalysisResult &A = R.Report.Analysis;
    Counts.StatesExplored += A.StatesExplored;
    Counts.ConfigsVisited += A.ConfigsVisited;
    Counts.MaxSets = std::max(Counts.MaxSets, double(A.MaxSetsSeen));
  }
  Counts.ProverSteps += static_cast<double>(Budget.proverStepsUsed());

  ScopedSpan S(Spans, "api.verdict_json");
  return api::verdictJson(Path, Resp);
}

std::string perfbench::tracedLintJson(const std::string &Path,
                                      const std::string &Source,
                                      const api::RequestOptions &Opts,
                                      SpanRecorder &Spans,
                                      LayerCounts &Counts) {
  Counts.SourceBytes += static_cast<double>(Source.size());
  LintOptions LOpts;
  LOpts.Analysis = Opts.analysis();
  AnalysisBudget Budget;
  Budget.DeadlineMs = Opts.DeadlineMs;
  Budget.MaxMemoryMb = Opts.MaxMemoryMb;
  Budget.MaxProverSteps = Opts.ProverSteps;
  Budget.begin();
  BudgetScope Budgets(&Budget);
  LOpts.Analysis.Budget = &Budget;

  // lintSource, one layer at a time.
  DiagnosticEngine Diags;
  SemaResult Sema;
  std::shared_ptr<ParseResult> Parsed = frontEnd(Source, Spans, Sema);
  if (!Parsed->succeeded()) {
    for (const ParseDiagnostic &D : Parsed->Diagnostics)
      Diags.report(makeDiag("parse", DiagSeverity::Error, D.Loc, D.Message));
  } else {
    for (const SemaDiagnostic &D : Sema.Diagnostics)
      Diags.report(makeDiag("sema",
                            D.isError() ? DiagSeverity::Error
                                        : DiagSeverity::Warning,
                            D.Loc, D.Message));
    if (!Sema.hasErrors()) {
      std::shared_ptr<Cfg> Graph;
      {
        ScopedSpan S(Spans, "cfg.build");
        Graph = std::make_shared<Cfg>(buildCfg(Parsed->Prog));
      }
      Counts.CfgNodes += static_cast<double>(Graph->size());
      ScopedSpan S(Spans, "analysis.lint");
      runLintPasses(*Graph, LOpts, Diags);
    }
  }
  Diags.filterBelow(DiagSeverity::Note);
  Counts.Findings += static_cast<double>(Diags.diagnostics().size());
  Counts.ProverSteps += static_cast<double>(Budget.proverStepsUsed());

  ScopedSpan S(Spans, "diag.render");
  std::string Json = renderDiagsJson(Diags.diagnostics(), Path);
  Counts.OutputBytes += static_cast<double>(Json.size());
  return Json;
}
