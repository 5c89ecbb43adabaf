//===- driver/Session.h - One fail-safe analysis session ------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Session is the unit of "serving one request": read one MPL file, run
/// the front end and the pCFG analysis under an AnalysisBudget and a
/// RecoveryScope, and fold whatever happened — success, findings, budget
/// degradation, front-end failure, internal error — into a SessionResult
/// with the documented exit-code contract:
///
///   0  complete, no findings
///   1  degraded to Top, or analysis findings (bugs), or front-end errors
///   2  usage/IO error (unreadable or empty file)
///   3  internal error (recovered invariant violation)
///
/// The CLI `analyze` command and every `csdf batch` child go through this
/// layer, so interactive and batch behavior cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_DRIVER_SESSION_H
#define CSDF_DRIVER_SESSION_H

#include "analysis/Clients.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "pcfg/AnalysisOptions.h"
#include "support/Budget.h"

#include <cstdint>
#include <memory>
#include <string>

namespace csdf {

/// Exit codes of the analyze/batch contract.
enum SessionExitCode : int {
  SessionExitComplete = 0,
  SessionExitFindings = 1,
  SessionExitUsage = 2,
  SessionExitInternal = 3,
};

/// Configuration of one analysis session.
struct SessionOptions {
  AnalysisOptions Analysis = AnalysisOptions::cartesian();

  /// Budget limits (0 = unlimited); the session owns the AnalysisBudget
  /// they configure.
  std::uint64_t DeadlineMs = 0;
  std::uint64_t MaxMemoryMb = 0;
  std::uint64_t MaxProverSteps = 0;

  /// Honor `# csdf-test:` directives embedded in the source (internal
  /// error, crash, sleep) — the hooks the batch-isolation tests and the
  /// stress corpus use to simulate failure modes. Off by default so
  /// production analyses cannot be steered by comments.
  bool EnableTestHooks = false;
};

/// Everything one session produced.
struct SessionResult {
  /// Per the exit-code contract above.
  int ExitCode = SessionExitComplete;

  /// Structured outcome. For front-end failures the verdict is Complete
  /// with FrontEndErrors set (the analysis never ran).
  AnalysisOutcome Outcome;

  /// IO or front-end error text (one line, already formatted), empty
  /// otherwise.
  std::string Error;

  /// True when parse/sema errors stopped the pipeline before analysis.
  bool FrontEndErrors = false;

  /// Full analysis report; meaningful only when the pipeline reached the
  /// engine. An internal error caught after the engine (CFG construction,
  /// a client pass) is also recorded in Report.Analysis.Outcome.
  ClientReport Report;

  /// The parsed program, with its diagnostics. The Cfg stores pointers
  /// into this AST, so it must stay alive as long as Graph is used.
  std::shared_ptr<ParseResult> Parsed;

  /// Semantic-check diagnostics, warnings included (empty when parsing
  /// failed).
  SemaResult Sema;

  /// The program's CFG (set once the front end succeeded) — callers need
  /// it to render node labels for Report.
  std::shared_ptr<Cfg> Graph;

  /// Budget accounting snapshot (valid whether or not a limit tripped).
  std::uint64_t ElapsedMs = 0;
  std::uint64_t PeakDbmBytes = 0;
  std::uint64_t ProverStepsUsed = 0;
};

/// Runs the full pipeline over \p Source (read with readSessionFile or
/// supplied directly). \p Path is used for messages only.
SessionResult runAnalysisSession(const std::string &Path,
                                 const std::string &Source,
                                 const SessionOptions &Opts);

/// Reads \p Path; returns false with \p Error set (one line) when the
/// file is unreadable or empty — both usage/IO failures (exit 2).
bool readSessionFile(const std::string &Path, std::string &Source,
                     std::string &Error);

} // namespace csdf

#endif // CSDF_DRIVER_SESSION_H
