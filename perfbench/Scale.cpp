//===- perfbench/Scale.cpp - Workload scale_generated ---------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cold api::Analyzer::analyze of large generated programs, one per
/// request, visited in seeded-shuffled rounds: twelve symbolic-family and
/// ten fixed-np-family programs of stratified size, three mixed-family
/// programs (which csdf gives up on; they count against decided_ratio),
/// stress_phases.mpl and the Section IX fan-out kernel. Programs take tens
/// to hundreds of milliseconds and spend most of it in pcfg and numeric.
///
/// Gate: every `complete` verdict reports no bugs, and its topology misses
/// no send-receive pair of the interpreter runs made at setup; every
/// verdict equals the first one seen for its program.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generator.h"
#include "Pipeline.h"
#include "Trace.h"

#include "api/Csdf.h"
#include "lang/Corpus.h"
#include "topology/CommTopology.h"

#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

using namespace perfbench;

namespace {

struct Prog {
  GenProgram P;
  std::vector<csdf::RunResult> Runs;
  std::optional<std::string> Verdict;
};

/// Stratified sizes; the seed picks the literals, so every seed's pool
/// costs the same. The pool has 27 programs: with whole rounds, the p50,
/// p90, p95 and p99 then fall inside one program's block of samples
/// (27 x 0.5, 0.9, 0.95, 0.99 are 13.5, 24.3, 25.65, 26.73) instead of
/// between two programs of different cost.
struct SymbolicSlot {
  int Transposes, Fans, Gathers;
};
constexpr SymbolicSlot SymbolicSlots[] = {
    {1, 2, 2}, {2, 3, 2}, {1, 3, 3}, {1, 4, 2}, {2, 4, 3}, {1, 5, 2},
    {2, 5, 3}, {2, 6, 1}, {1, 6, 2}, {1, 7, 1}, {2, 7, 2}, {2, 8, 1}};
struct FixedSlot {
  int Np, Shifts, Lefts, Fans;
};
constexpr FixedSlot FixedSlots[] = {
    {8, 3, 2, 0},  {9, 2, 2, 2},  {10, 3, 3, 1}, {11, 3, 3, 2}, {12, 4, 3, 1},
    {12, 3, 3, 2}, {13, 3, 3, 2}, {14, 4, 4, 1}, {15, 3, 3, 1}, {16, 4, 4, 2}};

class ScaleGenerated : public Workload {
public:
  void setup(const RunConfig &Cfg) override {
    Rng R(Cfg.Seed ^ 0x5ca1e);
    int N = 0;
    auto Name = [&N](const char *Stem) {
      return std::string(Stem) + "_" + std::to_string(N++);
    };
    for (const SymbolicSlot &S : SymbolicSlots)
      add(symbolicProgram(R, Name("sym"), S.Transposes, S.Fans, S.Gathers));
    for (const FixedSlot &S : FixedSlots)
      add(fixedProgram(R, Name("fix"), S.Np, S.Shifts, S.Lefts, S.Fans));
    add(mixedProgram(R, Name("mix"), 0, 3));
    add(mixedProgram(R, Name("mix"), 0, 4));
    add(mixedProgram(R, Name("mix"), 1, 3));
    GenProgram Stress;
    Stress.Name = "stress_phases";
    Stress.Fam = Family::Kernel;
    if (!readFile((std::filesystem::path(Cfg.Root) / "examples" / "mpl" /
                   "stress_phases.mpl")
                      .string(),
                  Stress.Source))
      throw std::runtime_error("cannot read examples/mpl/stress_phases.mpl");
    add(Stress);
    GenProgram Fanout;
    Fanout.Name = "fan_out_broadcast";
    Fanout.Fam = Family::Kernel;
    Fanout.Source = csdf::corpus::fanOutBroadcast();
    add(Fanout);

    // Untimed warm-up on the two smallest programs.
    Tally Warm;
    Warm.ProbeThreads = 0;
    request(Progs.size() - 1, Warm);
    request(0, Warm);
    if (!Warm.Mismatches.empty())
      throw std::runtime_error("warm-up: " + Warm.Mismatches.front());
  }

  void run(const RunConfig &Cfg, Tally &T) override {
    RoundSchedule Order(Progs.size(), Cfg.Seed);
    double End = nowSec() + Cfg.Seconds;
    while (nowSec() < End || T.RequestMs.size() < Cfg.MinRequests ||
           !Order.roundStart())
      request(Order.next(), T);
    familyNotes(T);
  }

  void runTraced(const RunConfig &Cfg, Tally &U, Tally &T,
                 SpanRecorder &Spans) override {
    RoundSchedule Order(Progs.size(), Cfg.Seed);
    LayerCounts Counts;
    bool TracedFirst = false;
    double End = nowSec() + Cfg.Seconds;
    while (nowSec() < End || !Order.roundStart()) {
      std::size_t I = Order.next();
      TracedFirst = !TracedFirst;
      if (!TracedFirst)
        request(I, U);
      csdf::api::AnalyzeResponse Resp;
      double T0 = nowSec();
      int Root = Spans.beginRequest();
      std::string Verdict = tracedAnalyze(path(I), Progs[I].P.Source,
                                          options(I), Spans, Counts, Resp);
      Spans.end(Root);
      double Ms = (nowSec() - T0) * 1e3;
      ++Counts.Requests;
      record(I, Resp, Verdict, Ms, T);
      if (TracedFirst)
        request(I, U);
    }
    Counts.report(Spans, T.Layers);
    FamilyMs.clear();
  }

private:
  void add(GenProgram P) {
    Prog G;
    std::string Error;
    if (!validate(P, G.Runs, Error))
      throw std::runtime_error("generated program is invalid: " + Error);
    G.P = std::move(P);
    Progs.push_back(std::move(G));
  }

  std::string path(std::size_t I) const { return Progs[I].P.Name + ".mpl"; }

  csdf::api::RequestOptions options(std::size_t I) const {
    csdf::api::RequestOptions O;
    O.FixedNp = Progs[I].P.FixedNp;
    return O;
  }

  void request(std::size_t I, Tally &T) {
    csdf::api::AnalyzeRequest Req;
    Req.Path = path(I);
    Req.Source = Progs[I].P.Source;
    Req.Options = options(I);
    double T0 = nowSec();
    csdf::api::Analyzer An;
    csdf::api::AnalyzeResponse Resp = An.analyze(Req);
    std::string Verdict = csdf::api::verdictJson(Req.Path, Resp);
    double Ms = (nowSec() - T0) * 1e3;
    record(I, Resp, normalizeVerdict(Verdict), Ms, T);
  }

  void record(std::size_t I, const csdf::api::AnalyzeResponse &Resp,
              const std::string &Verdict, double Ms, Tally &T) {
    Prog &G = Progs[I];
    ++T.Attempted;
    ++T.DecidedOf;
    T.record(Ms);
    FamilyMs[familyName(G.P.Fam)].push_back(Ms);
    std::string V = verdictOf(Verdict);
    if (failedVerdict(V))
      ++T.Failed;
    if (V == "complete") {
      ++T.Decided;
      const csdf::AnalysisResult &A = Resp.Session.Report.Analysis;
      if (!A.Bugs.empty())
        T.mismatch(G.P.Name + ": complete verdict reports bugs");
      for (const csdf::RunResult &Run : G.Runs)
        if (!csdf::validateTopology(A, Run).MissedPairs.empty())
          T.mismatch(G.P.Name + ": topology misses an interpreter pair");
    }
    if (!G.Verdict)
      G.Verdict = Verdict;
    else if (*G.Verdict != Verdict)
      T.mismatch(G.P.Name + ": verdict differs from the first run's");
  }

  void familyNotes(Tally &T) {
    for (const auto &[Family, Ms] : FamilyMs) {
      std::ostringstream OS;
      OS << "family " << Family << ": " << Ms.size()
         << " requests, p50 " << percentile(Ms, 50) << " ms";
      T.Notes.push_back(OS.str());
    }
    FamilyMs.clear();
  }

  std::vector<Prog> Progs;
  std::map<std::string, std::vector<double>> FamilyMs;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeScaleGenerated() {
  return std::make_unique<ScaleGenerated>();
}
