//===- perfbench/BatchThreads.cpp - Workload batch_threads ----------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// api::Analyzer::runBatch in threads mode with two jobs, as `csdf batch
/// --mode threads --jobs 2` runs it, over a seeded draw of sixteen
/// generated programs (fourteen symbolic-family, two mixed) written to a
/// directory at setup. Each request is one batch; a file's verdict is
/// available when its batch returns, so every file's latency is its
/// batch's wall time. Exercises the ThreadPool, concurrent use of the
/// shared ClosureMemo, and load imbalance (the slowest file sets the
/// batch's wall).
///
/// Gate, after the timed loop: every batch row equals the row of a cold
/// api::Analyzer::analyze of the same file; every `complete` verdict
/// reports no bugs and its topology misses no interpreter pair.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generator.h"
#include "Pipeline.h"
#include "Trace.h"

#include "api/Csdf.h"
#include "support/Stats.h"
#include "topology/CommTopology.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <tuple>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

constexpr unsigned Jobs = 2;

struct File {
  std::string Path;
  GenProgram P;
  std::vector<csdf::RunResult> Runs;
  /// Distinct (verdict, exit code, detail) rows seen for this file.
  std::set<std::tuple<std::string, int, std::string>> Rows;
};

struct SymbolicSlot {
  int Transposes, Fans, Gathers;
};
constexpr SymbolicSlot Slots[] = {
    {1, 1, 2}, {2, 2, 1}, {1, 2, 2}, {2, 2, 3}, {1, 3, 1}, {2, 3, 2}, {1, 3, 3},
    {2, 4, 1}, {1, 4, 2}, {2, 4, 3}, {1, 5, 1}, {2, 5, 2}, {1, 6, 1}, {2, 6, 2}};

/// Directories are never reused within a process.
unsigned DirCount = 0;

class BatchThreads : public Workload {
public:
  void setup(const RunConfig &Cfg) override {
    fs::path Dir =
        fs::path(Cfg.WorkDir) / ("batch-" + std::to_string(DirCount++));
    fs::create_directories(Dir);
    Rng R(Cfg.Seed ^ 0xba7c);
    // Files go to the pool in this fixed order, smallest first, so the
    // largest start last: the load imbalance is the same for every seed.
    std::vector<GenProgram> Progs;
    int N = 0;
    Progs.push_back(mixedProgram(R, "mix_" + std::to_string(N++), 0, 3));
    Progs.push_back(mixedProgram(R, "mix_" + std::to_string(N++), 1, 3));
    for (const SymbolicSlot &S : Slots)
      Progs.push_back(symbolicProgram(R, "sym_" + std::to_string(N++),
                                      S.Transposes, S.Fans, S.Gathers));
    for (GenProgram &P : Progs) {
      File F;
      std::string Error;
      if (!validate(P, F.Runs, Error))
        throw std::runtime_error("generated program is invalid: " + Error);
      F.Path = (Dir / (P.Name + ".mpl")).string();
      std::ofstream Out(F.Path);
      Out << P.Source;
      if (!Out.flush())
        throw std::runtime_error("cannot write " + F.Path);
      F.P = std::move(P);
      Files.push_back(std::move(F));
    }
    An = std::make_unique<csdf::api::Analyzer>();
    // Untimed warm-up batch: starts the pool and warms its threads.
    Tally Warm;
    Warm.ProbeThreads = 0;
    batch(Warm, nullptr);
  }

  void run(const RunConfig &Cfg, Tally &T) override {
    T.ProbeThreads = Jobs;
    double End = nowSec() + Cfg.Seconds;
    while (nowSec() < End || T.RequestMs.size() < Cfg.MinRequests)
      batch(T, nullptr);
    verify(T);
  }

  void runTraced(const RunConfig &Cfg, Tally &U, Tally &T,
                 SpanRecorder &Spans) override {
    auto Before = csdf::StatsRegistry::global().counters();
    U.ProbeThreads = T.ProbeThreads = Jobs;
    bool TracedFirst = false;
    double End = nowSec() + Cfg.Seconds;
    while (nowSec() < End) {
      TracedFirst = !TracedFirst;
      if (!TracedFirst)
        batch(U, nullptr);
      batch(T, &Spans);
      if (TracedFirst)
        batch(U, nullptr);
    }
    verify(T);
    // Untraced and traced batches ran the same files: each drove half the
    // process-wide closure counters.
    LayerCounts Counts;
    Counts.Requests = Spans.requests();
    Counts.addCounters(Before, csdf::StatsRegistry::global().counters(), 2);
    Counts.report(Spans, T.Layers);
    T.Layers["driver.batch.busy_ratio"] =
        SlotMs > 0 ? FileMs / SlotMs : 0;
  }

private:
  /// One closed-loop request: a whole batch. Every file's latency is the
  /// batch wall.
  void batch(Tally &T, SpanRecorder *Spans) {
    csdf::api::BatchRequest Req;
    for (const File &F : Files)
      Req.Files.push_back(F.Path);
    Req.Jobs = Jobs;
    Req.Mode = csdf::BatchMode::Threads;
    csdf::BatchReport Report;
    double T0 = nowSec();
    if (Spans) {
      int Root = Spans->beginRequest();
      {
        ScopedSpan B(*Spans, "driver.batch.run");
        Report = An->runBatch(Req);
      }
      Spans->end(Root);
    } else {
      Report = An->runBatch(Req);
    }
    double Ms = (nowSec() - T0) * 1e3;
    T.record(Ms, Report.Entries.size());
    if (Spans)
      SlotMs += Jobs * Ms;
    for (std::size_t I = 0; I < Report.Entries.size(); ++I) {
      const csdf::BatchEntry &E = Report.Entries[I];
      ++T.Attempted;
      ++T.DecidedOf;
      if (Spans)
        FileMs += static_cast<double>(E.WallMs);
      if (E.Verdict == "complete")
        ++T.Decided;
      if (E.Reason != csdf::BatchExitReason::Exited ||
          failedVerdict(E.Verdict))
        ++T.Failed;
      Files[I].Rows.insert({E.Verdict, E.ExitCode, E.Detail});
    }
  }

  void verify(Tally &T) {
    for (File &F : Files) {
      csdf::api::Analyzer Cold;
      csdf::api::AnalyzeRequest Req;
      Req.Path = F.Path;
      csdf::api::AnalyzeResponse Resp = Cold.analyze(Req);
      csdf::BatchEntry Want = csdf::api::toBatchEntry(F.Path, Resp);
      for (const auto &Row : F.Rows)
        if (Row != std::tuple(Want.Verdict, Want.ExitCode, Want.Detail))
          T.mismatch(F.P.Name + ": batch row differs from a cold Analyzer's");
      F.Rows.clear();
      if (Resp.Session.Outcome.complete()) {
        const csdf::AnalysisResult &A = Resp.Session.Report.Analysis;
        if (!A.Bugs.empty())
          T.mismatch(F.P.Name + ": complete verdict reports bugs");
        for (const csdf::RunResult &Run : F.Runs)
          if (!csdf::validateTopology(A, Run).MissedPairs.empty())
            T.mismatch(F.P.Name + ": topology misses an interpreter pair");
      }
    }
  }

  std::vector<File> Files;
  std::unique_ptr<csdf::api::Analyzer> An;
  /// Traced batches' summed per-file walls and jobs x batch walls, for
  /// driver.batch.busy_ratio.
  double FileMs = 0, SlotMs = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeBatchThreads() {
  return std::make_unique<BatchThreads>();
}
