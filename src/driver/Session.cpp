//===- driver/Session.cpp -------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "driver/Session.h"

#include "cfg/CfgBuilder.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "support/ErrorHandling.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

using namespace csdf;

bool csdf::readSessionFile(const std::string &Path, std::string &Source,
                           std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "error: cannot read '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Source = SS.str();
  if (Source.find_first_not_of(" \t\r\n") == std::string::npos) {
    Error = "error: '" + Path + "' is empty";
    return false;
  }
  return true;
}

namespace {

/// Failure modes a test corpus can request via `# csdf-test: <hook>`
/// comments (the lexer treats `#` lines as comments, so hook files are
/// still valid MPL).
struct TestHooks {
  bool InternalError = false;
  bool Crash = false;
  std::uint64_t SleepMs = 0;
};

TestHooks scanTestHooks(const std::string &Source) {
  TestHooks Hooks;
  std::istringstream In(Source);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t At = Line.find("# csdf-test:");
    if (At == std::string::npos)
      continue;
    std::istringstream Rest(Line.substr(At + 12));
    std::string Word;
    Rest >> Word;
    if (Word == "internal-error")
      Hooks.InternalError = true;
    else if (Word == "crash")
      Hooks.Crash = true;
    else if (Word == "sleep-ms")
      Rest >> Hooks.SleepMs;
  }
  return Hooks;
}

} // namespace

SessionResult csdf::runAnalysisSession(const std::string &Path,
                                       const std::string &Source,
                                       const SessionOptions &Opts) {
  SessionResult R;

  AnalysisBudget Budget;
  Budget.DeadlineMs = Opts.DeadlineMs;
  Budget.MaxMemoryMb = Opts.MaxMemoryMb;
  Budget.MaxProverSteps = Opts.MaxProverSteps;
  // Start the clock here so the deadline covers the front end too; the
  // engine sees a started budget and leaves it alone. The scope makes the
  // budget visible to parser/sema checkpoints and to the client passes
  // that run after the engine (their checkpoints may throw out of
  // runClients, caught below).
  Budget.begin();
  BudgetScope Budgets(&Budget);

  auto Stamp = [&] {
    R.ElapsedMs = Budget.elapsedMs();
    R.PeakDbmBytes = Budget.peakBytes();
    R.ProverStepsUsed = Budget.proverStepsUsed();
  };

  if (Opts.EnableTestHooks) {
    TestHooks Hooks = scanTestHooks(Source);
    if (Hooks.SleepMs)
      std::this_thread::sleep_for(std::chrono::milliseconds(Hooks.SleepMs));
    if (Hooks.Crash) {
      // Deliberate hard crash (no RecoveryScope): exercises the batch
      // driver's signal reaping.
      csdf_unreachable("csdf-test: crash hook");
    }
    if (Hooks.InternalError) {
      // Deliberate invariant violation through the real recovery path.
      try {
        RecoveryScope Recover;
        csdf_unreachable("csdf-test: internal-error hook");
      } catch (const EngineError &E) {
        R.Outcome.Verdict = AnalysisVerdict::InternalError;
        R.Outcome.Reason = E.what();
        R.Error = std::string("internal error: ") + E.what();
        R.ExitCode = SessionExitInternal;
        Stamp();
        return R;
      }
    }
  }

  auto Degrade = [&](const BudgetExceeded &E) {
    R.Outcome.Verdict = AnalysisVerdict::DegradedToTop;
    R.Outcome.Budget = E.kind();
    R.Outcome.Reason = E.reason();
    R.ExitCode = SessionExitFindings;
    Stamp();
  };

  // The Cfg keeps pointers into the AST, so the session owns the parse
  // result for as long as the caller holds Graph.
  try {
    R.Parsed = std::make_shared<ParseResult>(parseProgram(Source));
  } catch (const BudgetExceeded &E) {
    Degrade(E);
    return R;
  }
  ParseResult &Parsed = *R.Parsed;
  if (!Parsed.succeeded()) {
    R.FrontEndErrors = true;
    std::string Msg;
    for (const ParseDiagnostic &D : Parsed.Diagnostics)
      Msg += Path + ": " + D.str() + "\n";
    R.Error = Msg;
    R.ExitCode = SessionExitFindings;
    Stamp();
    return R;
  }
  // Sema polls the same budget checkpoints as the parser, so a deadline
  // that trips during semantic checking degrades the same way.
  try {
    R.Sema = checkProgram(Parsed.Prog);
  } catch (const BudgetExceeded &E) {
    Degrade(E);
    return R;
  }
  if (R.Sema.hasErrors()) {
    R.FrontEndErrors = true;
    std::string Msg;
    for (const SemaDiagnostic &D : R.Sema.Diagnostics)
      Msg += Path + ": " + D.str() + "\n";
    R.Error = Msg;
    R.ExitCode = SessionExitFindings;
    Stamp();
    return R;
  }

  AnalysisOptions Analysis = Opts.Analysis;
  Analysis.Budget = &Budget;

  // CFG construction is cheap but walks the AST; keep it inside the
  // recovery net too so a malformed-but-parseable program cannot abort
  // the session.
  try {
    RecoveryScope Recover;
    R.Graph = std::make_shared<Cfg>(buildCfg(Parsed.Prog));
    R.Report = runClients(*R.Graph, Analysis);
  } catch (const BudgetExceeded &E) {
    // A post-engine client pass (matcher, topology) tripped the budget.
    // runClients threw before returning, so no partial report (or engine
    // configuration) survives to fold in here.
    Degrade(E);
    return R;
  } catch (const EngineError &E) {
    R.Outcome.Verdict = AnalysisVerdict::InternalError;
    R.Outcome.Reason = E.what();
    R.Report.Analysis.Outcome = R.Outcome;
    R.Error = std::string("internal error: ") + E.what();
    R.ExitCode = SessionExitInternal;
    Stamp();
    return R;
  }

  R.Outcome = R.Report.Analysis.Outcome;
  Stamp();
  if (R.Outcome.internalError())
    R.ExitCode = SessionExitInternal;
  else if (!R.Outcome.complete() || !R.Report.Analysis.Bugs.empty())
    R.ExitCode = SessionExitFindings;
  else
    R.ExitCode = SessionExitComplete;
  return R;
}
