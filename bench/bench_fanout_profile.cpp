//===- bench/bench_fanout_profile.cpp - E5: the Section IX profile -------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Section IX reports, for a fan-out broadcast analyzed on a 2.8 GHz
// Opteron:
//
//   * 381 s total analysis time,
//   * 92.5% of it (351 s) spent keeping the dataflow state consistent,
//   * 217 O(n^3) transitive closures over an average of 52.3 variables,
//   * 78 O(n^2) incremental closures over an average of 66.3 variables,
//   * C++ STL containers blamed for cache-hostile state.
//
// This binary analyzes the same fan-out broadcast kernel and prints the
// corresponding measurements for this implementation. Absolute times differ by orders of magnitude (different
// decade of hardware, leaner client analysis — the paper itself lists the
// fixes we applied as its optimization directions 1-4); the *shape* to
// compare is where time goes and how many closures of which kind run.
//
//===----------------------------------------------------------------------===//

#include "BenchMeta.h"
#include "cfg/CfgBuilder.h"
#include "lang/Corpus.h"
#include "lang/Parser.h"
#include "pcfg/Engine.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace csdf;

namespace {

struct ProfileRow {
  double TotalSec = 0;
  double ClosureSec = 0;
  long FullCalls = 0;
  double FullAvgVars = 0;
  long IncrCalls = 0;
  double IncrAvgVars = 0;
  long CowCopies = 0;
  long CowDetaches = 0;
  long MemoHits = 0;
  unsigned StatesExplored = 0;
  unsigned ConfigsVisited = 0;
  bool Converged = false;
};

ProfileRow profileRun(int Repeats) {
  Program Prog = parseProgramOrDie(corpus::fanOutBroadcast());
  Cfg Graph = buildCfg(Prog);

  StatsRegistry Stats;
  AnalysisOptions Opts = AnalysisOptions::simpleSymbolic();
  ProfileRow Row;
  for (int I = 0; I < Repeats; ++I) {
    Stats.clear();
    AnalysisResult Result = analyzeProgram(Graph, Opts, &Stats);
    Row.Converged = Result.Converged;
    Row.StatesExplored = Result.StatesExplored;
    Row.ConfigsVisited = Result.ConfigsVisited;
  }
  Row.TotalSec = Stats.seconds("pcfg.analysis.seconds");
  Row.ClosureSec = Stats.seconds("cg.closure.seconds");
  Row.FullCalls = Stats.counter("cg.closure.full.calls");
  Row.IncrCalls = Stats.counter("cg.closure.incr.calls");
  if (Row.FullCalls)
    Row.FullAvgVars =
        static_cast<double>(Stats.counter("cg.closure.full.varsum")) /
        static_cast<double>(Row.FullCalls);
  if (Row.IncrCalls)
    Row.IncrAvgVars =
        static_cast<double>(Stats.counter("cg.closure.incr.varsum")) /
        static_cast<double>(Row.IncrCalls);
  Row.CowCopies = Stats.counter("cg.cow.copies");
  Row.CowDetaches = Stats.counter("cg.cow.detaches");
  Row.MemoHits = Stats.counter("cg.closure.memo.hits");
  return Row;
}

/// Writes the profile as JSON so CI can archive the Section IX profile per
/// commit.
int writeJson(const std::string &Path) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return 1;
  }
  std::fprintf(Out, "{\n\"meta\": %s,\n\"records\": [\n",
               bench::benchMetaJson().c_str());
  ProfileRow Row = profileRun(/*Repeats=*/1);
  std::fprintf(
      Out,
      "  {\"workload\": \"fanout_broadcast\", "
      "\"wall_ns\": %lld, \"closure_ns\": %lld, "
      "\"full_closures\": %ld, \"full_avg_vars\": %.1f, "
      "\"incremental_closures\": %ld, \"incr_avg_vars\": %.1f, "
      "\"cow_copies\": %ld, \"cow_detaches\": %ld, "
      "\"memo_hits\": %ld, \"states_explored\": %u, "
      "\"configs_visited\": %u, \"converged\": %s}",
      static_cast<long long>(Row.TotalSec * 1e9),
      static_cast<long long>(Row.ClosureSec * 1e9), Row.FullCalls,
      Row.FullAvgVars, Row.IncrCalls, Row.IncrAvgVars, Row.CowCopies,
      Row.CowDetaches, Row.MemoHits, Row.StatesExplored, Row.ConfigsVisited,
      Row.Converged ? "true" : "false");
  std::fprintf(Out, "\n]\n}\n");
  std::fclose(Out);
  std::printf("wrote fan-out profile to %s\n", Path.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc)
      return writeJson(argv[I + 1]);
  std::printf("=== E5: fan-out broadcast analysis profile (Section IX) "
              "===\n\n");
  std::printf("paper (2.8 GHz Opteron prototype):\n");
  std::printf("  total 381 s; state consistency 351 s (92.5%%)\n");
  std::printf("  O(n^3) closures: 217 calls, avg 52.3 vars\n");
  std::printf("  O(n^2) closures:  78 calls, avg 66.3 vars\n\n");

  const int Repeats = 1;
  std::printf("this implementation (per analysis of the same kernel):\n");
  std::printf("%12s %12s %8s %9s %9s %9s %9s %7s %8s %8s %10s\n",
              "total(ms)", "closure(ms)", "frac", "fullCls", "avgVars",
              "incrCls", "avgVars", "copies", "detaches", "memoHit",
              "converged");
  ProfileRow Row = profileRun(Repeats);
  std::printf("%12.3f %12.3f %7.1f%% %9ld %9.1f %9ld %9.1f %7ld %8ld %8ld "
              "%10s\n",
              Row.TotalSec * 1e3, Row.ClosureSec * 1e3,
              Row.TotalSec > 0 ? 100.0 * Row.ClosureSec / Row.TotalSec : 0.0,
              Row.FullCalls, Row.FullAvgVars, Row.IncrCalls, Row.IncrAvgVars,
              Row.CowCopies, Row.CowDetaches, Row.MemoHits,
              Row.Converged ? "yes" : "no");
  std::printf("\nshape checks (vs paper):\n");
  std::printf("  * both closure variants fire many times per analysis;\n");
  std::printf("  * the flat-array state (the paper's optimization directions "
              "1-4 applied) keeps closure a small share of the analysis — "
              "the paper's prototype spent 92.5%% there.\n");
  return 0;
}
