//===- perfbench/Oneshot.cpp - Workload oneshot_corpus --------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each request is what one `csdf analyze` plus `csdf lint --format json`
/// invocation does in-process: a fresh cold api::Analyzer runs analyze and
/// lint over one small program, then renders the verdict JSON and the JSON
/// diagnostics. Programs are every examples/mpl file except
/// stress_phases.mpl plus the corpus::allPatterns() kernels, visited in
/// seeded-shuffled rounds. Programs this small spend much of their time in
/// the front end, per-session setup, lint and rendering.
///
/// Gate: lint JSON of every example equals its golden in tests/lint/golden;
/// every verdict and lint output equals the first one seen for its program.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generator.h"
#include "Pipeline.h"
#include "Trace.h"

#include "api/Csdf.h"
#include "diag/DiagRenderer.h"
#include "lang/Corpus.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Item {
  std::string Path;
  std::string Source;
  /// Committed lint golden (examples only).
  std::optional<std::string> Golden;
  /// First verdict / lint output seen for this program.
  std::optional<std::string> Verdict;
  std::optional<std::string> Lint;
};

class OneshotCorpus : public Workload {
public:
  void setup(const RunConfig &Cfg) override {
    fs::path Examples = fs::path(Cfg.Root) / "examples" / "mpl";
    fs::path Goldens = fs::path(Cfg.Root) / "tests" / "lint" / "golden";
    std::vector<fs::path> Files;
    for (const fs::directory_entry &E : fs::directory_iterator(Examples))
      if (E.path().extension() == ".mpl" &&
          E.path().filename() != "stress_phases.mpl")
        Files.push_back(E.path());
    std::sort(Files.begin(), Files.end());
    if (Files.empty())
      throw std::runtime_error("no examples under " + Examples.string());
    for (const fs::path &F : Files) {
      Item I;
      I.Path = F.filename().string();
      std::string Golden;
      if (!readFile(F.string(), I.Source) ||
          !readFile((Goldens / F.stem()).string() + ".json", Golden))
        throw std::runtime_error("cannot read " + F.string() +
                                 " or its lint golden");
      I.Golden = Golden;
      Items.push_back(std::move(I));
    }
    for (const csdf::corpus::NamedProgram &P : csdf::corpus::allPatterns())
      Items.push_back({P.Name + ".mpl", P.Source, {}, {}, {}});

    // Untimed warm-up: one request per program (allocator, arena pools,
    // thread-local closure buffers), which also records the reference
    // outputs later requests must reproduce.
    Tally Warm;
    Warm.ProbeThreads = 0;
    for (std::size_t I = 0; I < Items.size(); ++I)
      request(I, Warm);
    if (!Warm.Mismatches.empty())
      throw std::runtime_error("warm-up: " + Warm.Mismatches.front());
  }

  void run(const RunConfig &Cfg, Tally &T) override {
    RoundSchedule Order(Items.size(), Cfg.Seed);
    double End = nowSec() + Cfg.Seconds;
    while (nowSec() < End || T.RequestMs.size() < Cfg.MinRequests ||
           !Order.roundStart())
      request(Order.next(), T);
  }

  void runTraced(const RunConfig &Cfg, Tally &U, Tally &T,
                 SpanRecorder &Spans) override {
    RoundSchedule Order(Items.size(), Cfg.Seed);
    LayerCounts Counts;
    csdf::api::RequestOptions Opts;
    bool TracedFirst = false;
    double End = nowSec() + Cfg.Seconds;
    while (nowSec() < End || !Order.roundStart()) {
      std::size_t Index = Order.next();
      TracedFirst = !TracedFirst;
      if (!TracedFirst)
        request(Index, U);
      Item &I = Items[Index];
      csdf::api::AnalyzeResponse Resp;
      double T0 = nowSec();
      int Root = Spans.beginRequest();
      std::string Verdict =
          tracedAnalyze(I.Path, I.Source, Opts, Spans, Counts, Resp);
      std::string Lint = tracedLintJson(I.Path, I.Source, Opts, Spans, Counts);
      Spans.end(Root);
      double Ms = (nowSec() - T0) * 1e3;
      ++Counts.Requests;
      record(I, Verdict, Lint, Ms, T);
      if (TracedFirst)
        request(Index, U);
    }
    Counts.report(Spans, T.Layers);
  }

private:
  void request(std::size_t Index, Tally &T) {
    Item &I = Items[Index];
    double T0 = nowSec();
    csdf::api::Analyzer An;
    csdf::api::AnalyzeRequest AReq;
    AReq.Path = I.Path;
    AReq.Source = I.Source;
    csdf::api::AnalyzeResponse AResp = An.analyze(AReq);
    csdf::api::LintRequest LReq;
    LReq.Path = I.Path;
    LReq.Source = I.Source;
    csdf::api::LintResponse LResp = An.lint(LReq);
    std::string Verdict = csdf::api::verdictJson(I.Path, AResp);
    std::string Lint = csdf::renderDiagsJson(LResp.Diagnostics, I.Path);
    double Ms = (nowSec() - T0) * 1e3;
    if (LResp.ExitCode >= 2)
      ++T.Failed;
    record(I, normalizeVerdict(Verdict), Lint, Ms, T);
  }

  void record(Item &I, const std::string &Verdict, const std::string &Lint,
              double Ms, Tally &T) {
    ++T.Attempted;
    T.record(Ms);
    std::string V = verdictOf(Verdict);
    ++T.DecidedOf;
    if (V == "complete")
      ++T.Decided;
    if (failedVerdict(V))
      ++T.Failed;
    if (I.Golden && Lint != *I.Golden)
      T.mismatch(I.Path + ": lint JSON differs from its golden");
    if (!I.Verdict) {
      I.Verdict = Verdict;
      I.Lint = Lint;
    } else if (*I.Verdict != Verdict || *I.Lint != Lint) {
      T.mismatch(I.Path + ": output differs from the first run's");
    }
  }

  std::vector<Item> Items;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeOneshotCorpus() {
  return std::make_unique<OneshotCorpus>();
}
