//===- tests/pcfg/ParallelDeterminismTest.cpp - Session determinism ------===//
//
// The engine drain is sequential; parallelism lives one level up, where
// `csdf batch --mode threads` runs whole analysis sessions on a ThreadPool
// that share one cross-session ClosureMemo (api::Analyzer::runBatch). The
// guarantee this sweep pins: a session's AnalysisResult is bit-identical
// whether it runs alone with a private memo or alongside N concurrent
// sessions over one shared memo, for every program and client preset.
// It serializes the *entire* result (matches, facts, bugs, snapshots,
// verdict, and exploration statistics), so state that leaks between
// concurrent sessions (the shared memo, process-wide counters) shows up
// as a diff rather than only as a changed verdict. It sweeps the whole
// corpus, including the intentionally buggy programs and a Top-driving one.
//
// Runs without budgets: under a deadline, sessions competing for cores
// may degrade at different points, which says nothing about determinism.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "lang/Corpus.h"
#include "lang/Parser.h"
#include "numeric/ConstraintGraph.h"
#include "pcfg/Engine.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace csdf;

namespace {

/// Serializes everything deterministic about \p R (all fields except
/// Seconds) into one comparable string.
std::string fingerprint(const AnalysisResult &R) {
  std::ostringstream Os;
  Os << "converged=" << R.Converged << "\n";
  Os << "top-reason=" << R.TopReason << "\n";
  Os << "outcome=" << R.Outcome.str() << "\n";
  Os << "outcome-reason=" << R.Outcome.Reason << "\n";
  Os << "outcome-config=" << R.Outcome.Configuration << "\n";
  for (const MatchRecord &M : R.Matches)
    Os << "match " << M.SendNode << "->" << M.RecvNode << " "
       << M.SenderRange << " " << M.ReceiverRange << "\n";
  for (const PrintFact &F : R.PrintFacts) {
    Os << "print " << F.Node << " " << F.SetRange << " ";
    if (F.Value)
      Os << *F.Value;
    else
      Os << "?";
    Os << "\n";
  }
  for (const AnalysisBug &B : R.Bugs)
    Os << "bug " << analysisBugKindName(B.TheKind) << " node=" << B.Node
       << " loc=" << B.Loc.str() << " " << B.Detail << "\n";
  for (const auto &Snapshot : R.FinalSnapshots) {
    Os << "snapshot";
    for (const auto &[Var, Val] : Snapshot) {
      Os << " " << Var << "=";
      if (Val)
        Os << *Val;
      else
        Os << "?";
    }
    Os << "\n";
  }
  Os << "states=" << R.StatesExplored << " configs=" << R.ConfigsVisited
     << " max-sets=" << R.MaxSetsSeen << "\n";
  return Os.str();
}

struct PresetCase {
  const char *Name;
  AnalysisOptions Opts;
};

std::vector<PresetCase> presets() {
  return {{"simple", AnalysisOptions::simpleSymbolic()},
          {"cartesian", AnalysisOptions::cartesian()},
          {"sectionx", AnalysisOptions::sectionX()}};
}

/// The full corpus: every well-formed pattern plus the intentionally buggy
/// programs (leak, deadlock, tag mismatch) and the Top-driving ring shift,
/// so determinism holds on failing and degraded runs too.
std::vector<corpus::NamedProgram> sweepPrograms() {
  std::vector<corpus::NamedProgram> Progs = corpus::allPatterns();
  Progs.push_back({"message-leak", corpus::messageLeak()});
  Progs.push_back({"head-to-head-deadlock", corpus::headToHeadDeadlock()});
  Progs.push_back({"tag-mismatch", corpus::tagMismatch()});
  Progs.push_back({"ring-shift", corpus::ringShift()});
  Progs.push_back({"buffer-race", corpus::bufferRace()});
  Progs.push_back({"request-leak", corpus::requestLeak()});
  Progs.push_back({"wildcard-race", corpus::wildcardRace()});
  return Progs;
}

/// Runs \p Sessions analyses of \p Graph at once on a pool of that many
/// workers, each with its own SymbolTable and all sharing \p Memo, the way
/// batch threads mode runs files, and returns their fingerprints.
std::vector<std::string> concurrentFingerprints(
    const Cfg &Graph, const AnalysisOptions &Base, unsigned Sessions,
    const std::shared_ptr<ClosureMemo> &Memo) {
  ThreadPool Pool(Sessions);
  std::vector<std::future<std::string>> Done;
  for (unsigned I = 0; I < Sessions; ++I)
    Done.push_back(Pool.submit([&Graph, &Base, &Memo] {
      AnalysisOptions Opts = Base;
      Opts.SharedMemo = Memo;
      return fingerprint(analyzeProgram(Graph, Opts));
    }));
  std::vector<std::string> Out;
  for (std::future<std::string> &F : Done)
    Out.push_back(F.get());
  return Out;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<corpus::NamedProgram> {};

TEST_P(ParallelDeterminism, IdenticalResultAtAnyThreadCount) {
  const corpus::NamedProgram &Prog = GetParam();
  Program P = parseProgramOrDie(Prog.Source);
  Cfg Graph = buildCfg(P);

  for (const PresetCase &Preset : presets()) {
    std::string Alone = fingerprint(analyzeProgram(Graph, Preset.Opts));

    for (unsigned Threads : {2u, 4u, 8u}) {
      auto Memo = std::make_shared<ClosureMemo>(/*CrossSession=*/true);
      std::vector<std::string> Parallel =
          concurrentFingerprints(Graph, Preset.Opts, Threads, Memo);
      for (unsigned I = 0; I < Parallel.size(); ++I)
        EXPECT_EQ(Alone, Parallel[I])
            << Prog.Name << " preset=" << Preset.Name << " session " << I
            << " of " << Threads << " concurrent sessions diverges";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParallelDeterminism,
                         ::testing::ValuesIn(sweepPrograms()),
                         [](const auto &Info) {
                           std::string Name = Info.param.Name;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

// Repeated rounds of concurrent sessions over one memo that outlives every
// round must keep agreeing with a lone run, the way a warm analyzer's
// batches do; this catches scheduling-dependent flakiness that a single
// lucky round would hide.
TEST(ParallelDeterminismTest, RepeatedRunsAreStable) {
  Program P = parseProgramOrDie(corpus::exchangeWithRoot());
  Cfg Graph = buildCfg(P);
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  auto Memo = std::make_shared<ClosureMemo>(/*CrossSession=*/true);

  std::string First = fingerprint(analyzeProgram(Graph, Opts));
  for (int I = 0; I < 5; ++I)
    for (const std::string &Run : concurrentFingerprints(Graph, Opts, 4, Memo))
      EXPECT_EQ(First, Run) << "round " << I;
}

} // namespace
