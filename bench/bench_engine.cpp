//===- bench/bench_engine.cpp - pCFG engine micro-timings ----------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark timings for complete pCFG analyses of each corpus
// kernel, per client analysis. Useful for tracking engine performance
// regressions; the report-style experiment binaries interpret the numbers
// against the paper.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgBuilder.h"
#include "lang/Corpus.h"
#include "lang/Parser.h"
#include "pcfg/Engine.h"

#include <benchmark/benchmark.h>

using namespace csdf;

namespace {

struct Kernel {
  Program Prog;
  Cfg Graph;
};

Kernel kernel(const std::string &Source) {
  Kernel K;
  K.Prog = parseProgramOrDie(Source);
  K.Graph = buildCfg(K.Prog);
  return K;
}

void analyzeLoop(benchmark::State &State, const std::string &Source,
                 AnalysisOptions Opts) {
  Kernel K = kernel(Source);
  StatsRegistry Local;
  unsigned States = 0;
  for (auto _ : State) {
    AnalysisResult R = analyzeProgram(K.Graph, Opts, &Local);
    States = R.StatesExplored;
    benchmark::DoNotOptimize(R.Matches.size());
  }
  State.counters["states"] = States;
}

void BM_AnalyzeFigure2(benchmark::State &State) {
  analyzeLoop(State, corpus::figure2Exchange(),
              AnalysisOptions::simpleSymbolic());
}

void BM_AnalyzeBroadcast(benchmark::State &State) {
  analyzeLoop(State, corpus::fanOutBroadcast(),
              AnalysisOptions::simpleSymbolic());
}

void BM_AnalyzeExchangeWithRoot(benchmark::State &State) {
  analyzeLoop(State, corpus::exchangeWithRoot(),
              AnalysisOptions::simpleSymbolic());
}

void BM_AnalyzeTransposeSquare(benchmark::State &State) {
  analyzeLoop(State, corpus::transposeSquare(),
              AnalysisOptions::cartesian());
}

void BM_AnalyzeNascg(benchmark::State &State) {
  analyzeLoop(State, corpus::nascgTranspose(), AnalysisOptions::cartesian());
}

void BM_AnalyzeShiftFixedNp(benchmark::State &State) {
  AnalysisOptions Opts = AnalysisOptions::cartesian();
  Opts.FixedNp = State.range(0);
  analyzeLoop(State, corpus::neighborShift(), Opts);
}

} // namespace

BENCHMARK(BM_AnalyzeFigure2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AnalyzeBroadcast)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AnalyzeExchangeWithRoot)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AnalyzeTransposeSquare)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AnalyzeNascg)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AnalyzeShiftFixedNp)
    ->Arg(6)
    ->Arg(12)
    ->Arg(24)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
