//===- analysis/Lint.h - The `csdf lint` static-analysis pass suite --------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Communication-aware lint passes over MPL programs, feeding structured
/// diagnostics (src/diag) to `csdf lint`. Three families:
///
///   * front end — parse and sema diagnostics lifted into the engine
///     ("parse", "sema");
///   * intraprocedural CFG/dataflow lints — "use-before-init" (definite
///     assignment), "dead-store" (liveness), "unreachable-code" (constant
///     branch pruning, catches code after infinite loops);
///   * communication lints — "send-to-self" (partner provably == id),
///     "partner-bounds" (partner provably outside [0, np) under the
///     difference-constraint graph), "tag-mismatch-const" (a constant
///     send/recv tag no matching operation ever uses);
///   * pCFG bridge — the engine's bug candidates ("message-leak",
///     "possible-deadlock", "tag-mismatch") mapped to source locations,
///     plus an "analysis-top" note when the analysis gave up.
///
/// Every pass is individually disableable via LintOptions::Disabled; the
/// pass name doubles as the `--disable` key and the suffix of the stable
/// rule ID ("csdf.<pass>").
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_ANALYSIS_LINT_H
#define CSDF_ANALYSIS_LINT_H

#include "cfg/Cfg.h"
#include "diag/DiagRenderer.h"
#include "diag/DiagnosticEngine.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "pcfg/AnalysisOptions.h"
#include "pcfg/AnalysisResult.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace csdf {

/// Configuration of a lint run.
struct LintOptions {
  /// Pass names to skip (see lintPassRegistry()).
  std::set<std::string> Disabled;
  /// Options forwarded to the pCFG engine for the bridge passes. FixedNp
  /// and Params also sharpen the partner-bounds constraint graph.
  AnalysisOptions Analysis = AnalysisOptions::cartesian();

  bool isEnabled(const std::string &Pass) const {
    return Disabled.count(Pass) == 0;
  }
};

/// A registered lint pass: its `--disable` key, a one-line description
/// (also the SARIF shortDescription), and a longer explanation (the SARIF
/// fullDescription; falls back to Description when empty).
struct LintPassInfo {
  std::string Name;
  std::string Description;
  std::string Help;
};

/// All passes, in documentation order.
const std::vector<LintPassInfo> &lintPassRegistry();

/// True if \p Name names a registered pass.
bool isKnownLintPass(const std::string &Name);

/// Rule ID ("csdf.<pass>") to description map for the SARIF renderer.
std::map<std::string, std::string> lintRuleDescriptions();

/// Full SARIF rule catalog: rule ID to {shortDescription, fullDescription,
/// helpUri} for every registered pass. The helpUri points at the rule's
/// anchor in DESIGN.md ("#rule-<pass>").
std::map<std::string, SarifRuleDoc> lintRuleDocs();

/// Runs every enabled CFG-level and pCFG-bridge pass over \p Graph,
/// reporting into \p Diags. The bridge runs the pCFG engine itself.
/// (Parse/sema passes live in lintSource().)
void runLintPasses(const Cfg &Graph, const LintOptions &Opts,
                   DiagnosticEngine &Diags);

/// Full lint pipeline over MPL source text: parse, sema, CFG construction,
/// then runLintPasses(). Returns false when the program was too broken to
/// lint past the front end (parse or sema errors); front-end findings are
/// still reported into \p Diags.
bool lintSource(const std::string &Source, const LintOptions &Opts,
                DiagnosticEngine &Diags);

/// Lints a revision one analysis session already took through the
/// pipeline, reporting what lintSource() reports for the same source and
/// options without running the engine: the bridge reads \p Engine's
/// Outcome, Bugs and TopReason. \p Graph is null when the front end or
/// CFG construction stopped that session. A MatchNondet bug in \p Engine
/// is dropped like any other finding of a disabled pass.
void lintAnalyzed(const ParseResult &Parsed, const SemaResult &Sema,
                  const Cfg *Graph, const AnalysisResult &Engine,
                  const LintOptions &Opts, DiagnosticEngine &Diags);

} // namespace csdf

#endif // CSDF_ANALYSIS_LINT_H
