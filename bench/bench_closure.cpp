//===- bench/bench_closure.cpp - E6: transitive closure cost -------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Section IX attributes the prototype's cost to constraint-graph
// transitive closures: the O(n^3) full closure, the O(n^2) single-edge
// repair, and STL-container storage with poor locality ("implementing
// dataflow state using efficient abstractions such as arrays instead of
// C++ STL containers" is optimization direction 3).
//
// This benchmark regenerates the shape of those claims on the flat-array
// matrix: full closure scales ~n^3, incremental repair ~n^2. (The std::map
// backend it was once compared against is gone; EXPERIMENTS.md E6 keeps
// the historical numbers.)
//
//===----------------------------------------------------------------------===//

#include "numeric/ConstraintGraph.h"

#include "BenchMeta.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace csdf;

namespace {

/// Builds a chain + random-ish extra constraints over N variables.
ConstraintGraph buildGraph(int N, StatsRegistry *Stats,
                           SymbolTablePtr Syms = nullptr,
                           ClosureMemoPtr Memo = nullptr) {
  ConstraintGraph G(Stats, std::move(Syms), std::move(Memo));
  for (int I = 0; I + 1 < N; ++I)
    G.addLE("v" + std::to_string(I), "v" + std::to_string(I + 1),
            (I * 7) % 5);
  for (int I = 0; I < N; I += 3)
    G.addLE("v" + std::to_string((I * 5 + 2) % N),
            "v" + std::to_string((I * 11 + 7) % N), 3 + I % 4);
  return G;
}

/// Builds a mostly-unconstrained graph: all N variables exist, but only
/// every 16th pair carries a bound. The common shape for cold pCFG states
/// (most symbolic variables never interact); the closure kernel's
/// occupancy bitmap should collapse the O(n^3) to the few live rows.
ConstraintGraph buildSparseGraph(int N, StatsRegistry *Stats) {
  ConstraintGraph G(Stats);
  for (int I = 0; I < N; ++I)
    G.ensureVar("v" + std::to_string(I));
  for (int I = 0; I + 1 < N; I += 16)
    G.addLE("v" + std::to_string(I), "v" + std::to_string(I + 1),
            (I * 7) % 5);
  return G;
}

void BM_FullClosure(benchmark::State &State) {
  StatsRegistry Stats;
  int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    State.PauseTiming();
    ConstraintGraph G = buildGraph(N, &Stats);
    State.ResumeTiming();
    G.close();
    benchmark::DoNotOptimize(G.isFeasible());
  }
  State.SetComplexityN(N);
}

void BM_IncrementalRepair(benchmark::State &State) {
  StatsRegistry Stats;
  int N = static_cast<int>(State.range(0));
  ConstraintGraph G = buildGraph(N, &Stats);
  G.close();
  std::int64_t C = -1000;
  for (auto _ : State) {
    // Each tightening of one edge triggers the O(n^2) repair on the next
    // query.
    G.addLE("v0", "v" + std::to_string(N - 1), C--);
    benchmark::DoNotOptimize(G.isFeasible());
  }
  State.SetComplexityN(N);
}

void BM_MemoizedReclose(benchmark::State &State) {
  StatsRegistry Stats;
  int N = static_cast<int>(State.range(0));
  auto Syms = std::make_shared<SymbolTable>();
  auto Memo = std::make_shared<ClosureMemo>();
  for (auto _ : State) {
    // Rebuilding an identical graph models the engine revisiting a pCFG
    // configuration: the first close is a full Floyd-Warshall (memo
    // miss), every later one adopts the memoized closed block.
    State.PauseTiming();
    ConstraintGraph G = buildGraph(N, &Stats, Syms, Memo);
    State.ResumeTiming();
    G.close();
    benchmark::DoNotOptimize(G.isFeasible());
  }
  State.counters["memo_hits"] =
      static_cast<double>(Stats.counter("cg.closure.memo.hits"));
  State.SetComplexityN(N);
}

void BM_JoinGraphs(benchmark::State &State) {
  StatsRegistry Stats;
  int N = static_cast<int>(State.range(0));
  ConstraintGraph A = buildGraph(N, &Stats);
  ConstraintGraph B = buildGraph(N, &Stats);
  B.addLE("v1", "v0", 2);
  for (auto _ : State) {
    ConstraintGraph Copy = A;
    Copy.joinWith(B);
    benchmark::DoNotOptimize(Copy.numVars());
  }
}

} // namespace

BENCHMARK(BM_FullClosure)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity(benchmark::oNCubed)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_IncrementalRepair)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Complexity(benchmark::oNSquared)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_MemoizedReclose)
    ->RangeMultiplier(2)
    ->Range(8, 128)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_JoinGraphs)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

namespace {

/// One manually timed record for the machine-readable sweep.
struct JsonRecord {
  const char *Workload;
  int N;
  std::int64_t WallNs;
  std::int64_t FullCalls;
  std::int64_t IncrCalls;
  std::int64_t MemoHits;
};

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Repeats full closure / incremental repair / copy+join workloads under a
/// private StatsRegistry, timing total wall clock per workload.
void sweepInto(std::vector<JsonRecord> &Records, int N, int Repeats) {
  StatsRegistry Stats;
  {
    Stats.clear();
    std::int64_t Start = nowNs();
    for (int R = 0; R < Repeats; ++R) {
      ConstraintGraph G = buildGraph(N, &Stats);
      G.close();
      benchmark::DoNotOptimize(G.isFeasible());
    }
    Records.push_back({"full_closure", N, nowNs() - Start,
                       Stats.counter("cg.closure.full.calls"),
                       Stats.counter("cg.closure.incr.calls"), 0});
  }
  {
    Stats.clear();
    auto Syms = std::make_shared<SymbolTable>();
    auto Memo = std::make_shared<ClosureMemo>();
    std::int64_t Start = nowNs();
    for (int R = 0; R < Repeats; ++R) {
      ConstraintGraph G = buildGraph(N, &Stats, Syms, Memo);
      G.close();
      benchmark::DoNotOptimize(G.isFeasible());
    }
    Records.push_back({"memoized_reclose", N, nowNs() - Start,
                       Stats.counter("cg.closure.full.calls"),
                       Stats.counter("cg.closure.incr.calls"),
                       Stats.counter("cg.closure.memo.hits")});
  }
  {
    Stats.clear();
    ConstraintGraph G = buildGraph(N, &Stats);
    G.close();
    std::int64_t C = -1000;
    std::int64_t Start = nowNs();
    for (int R = 0; R < Repeats; ++R) {
      G.addLE("v0", "v" + std::to_string(N - 1), C--);
      benchmark::DoNotOptimize(G.isFeasible());
    }
    Records.push_back({"incremental_repair", N, nowNs() - Start,
                       Stats.counter("cg.closure.full.calls"),
                       Stats.counter("cg.closure.incr.calls"), 0});
  }
  {
    Stats.clear();
    ConstraintGraph A = buildGraph(N, &Stats);
    ConstraintGraph B = buildGraph(N, &Stats);
    B.addLE("v1", "v0", 2);
    std::int64_t Start = nowNs();
    for (int R = 0; R < Repeats; ++R) {
      ConstraintGraph Copy = A;
      Copy.joinWith(B);
      benchmark::DoNotOptimize(Copy.numVars());
    }
    Records.push_back({"copy_join", N, nowNs() - Start,
                       Stats.counter("cg.closure.full.calls"),
                       Stats.counter("cg.closure.incr.calls"), 0});
  }
  {
    // Cold close of a mostly-unconstrained graph: the sparse-row-skip
    // win. The full_closure record above is the baseline.
    Stats.clear();
    std::int64_t Start = nowNs();
    for (int R = 0; R < Repeats; ++R) {
      ConstraintGraph G = buildSparseGraph(N, &Stats);
      G.close();
      benchmark::DoNotOptimize(G.isFeasible());
    }
    Records.push_back({"sparse_cold", N, nowNs() - Start,
                       Stats.counter("cg.closure.full.calls"),
                       Stats.counter("cg.closure.incr.calls"), 0});
  }
}

/// Full closures at blocked-FW-relevant sizes (multiple
/// tiles per axis), the cache-blocking tuning record.
void blockedSweepInto(std::vector<JsonRecord> &Records, int N, int Repeats) {
  StatsRegistry Stats;
  std::int64_t Start = nowNs();
  for (int R = 0; R < Repeats; ++R) {
    ConstraintGraph G = buildGraph(N, &Stats);
    G.close();
    benchmark::DoNotOptimize(G.isFeasible());
  }
  Records.push_back({"blocked_sweep", N, nowNs() - Start,
                     Stats.counter("cg.closure.full.calls"),
                     Stats.counter("cg.closure.incr.calls"), 0});
}

/// Writes the sweep as a JSON array so CI can archive closure cost per
/// commit.
int runJsonSweep(const std::string &Path, const std::vector<int> &Sizes) {
  std::vector<JsonRecord> Records;
  for (int N : Sizes)
    sweepInto(Records, N, /*Repeats=*/20);
  for (int N : {64, 128, 256})
    blockedSweepInto(Records, N, /*Repeats=*/20);

  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
    return 1;
  }
  std::fprintf(Out, "{\n\"meta\": %s,\n\"records\": [\n",
               bench::benchMetaJson().c_str());
  for (size_t I = 0; I < Records.size(); ++I) {
    const JsonRecord &R = Records[I];
    std::fprintf(Out,
                 "  {\"workload\": \"%s\", \"n\": %d, "
                 "\"wall_ns\": %lld, \"full_closures\": %lld, "
                 "\"incremental_closures\": %lld, \"memo_hits\": %lld}%s\n",
                 R.Workload, R.N,
                 static_cast<long long>(R.WallNs),
                 static_cast<long long>(R.FullCalls),
                 static_cast<long long>(R.IncrCalls),
                 static_cast<long long>(R.MemoHits),
                 I + 1 < Records.size() ? "," : "");
  }
  std::fprintf(Out, "]\n}\n");
  std::fclose(Out);
  std::printf("wrote %zu records to %s\n", Records.size(), Path.c_str());
  return 0;
}

} // namespace

// Custom main instead of BENCHMARK_MAIN(): `--json <path> [--n N]...`
// switches to a deterministic manual sweep with machine-readable output;
// without it the google-benchmark suite runs unchanged.
int main(int argc, char **argv) {
  std::string JsonPath;
  std::vector<int> Sizes;
  std::vector<char *> Rest = {argv[0]};
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc)
      JsonPath = argv[++I];
    else if (std::strcmp(argv[I], "--n") == 0 && I + 1 < argc)
      Sizes.push_back(std::atoi(argv[++I]));
    else
      Rest.push_back(argv[I]);
  }
  if (!JsonPath.empty()) {
    if (Sizes.empty())
      Sizes = {8, 16, 32, 64};
    return runJsonSweep(JsonPath, Sizes);
  }
  int RestArgc = static_cast<int>(Rest.size());
  benchmark::Initialize(&RestArgc, Rest.data());
  if (benchmark::ReportUnrecognizedArguments(RestArgc, Rest.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
