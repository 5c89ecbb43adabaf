//===- perfbench/ServeSession.cpp - Workload serve_session ----------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process ServeServer receives wire-JSON analyze and lint lines
/// from one closed-loop client, as `csdf serve` does from an editor or a
/// CI job, in sessions of 500 lines, each on a fresh server with a fresh
/// durable store. Its memory cache (32 entries) is smaller than the
/// working set. Within a session the stream cycles
/// through a first-sight document, an edited revision of a recent
/// document (one literal or one phase changed) and an exact repeat of an
/// earlier line, alternately a recent one (a memory hit) and one from the
/// whole history (a disk hit); one line in four is a lint. New documents
/// cycle through eight size slots. The seed picks literals, which document
/// to edit and how, and which line to repeat: the mix, and so the cost of
/// the stream, is the same for every seed.
///
/// Gate: every response's result bytes equal a cold api::Analyzer's for
/// the same path, source and options (verdictJson for analyze, the JSON
/// diagnostics for lint), checked after the timed loop.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generator.h"
#include "Pipeline.h"
#include "Trace.h"

#include "api/Csdf.h"
#include "diag/DiagRenderer.h"
#include "driver/Serve.h"
#include "support/Stats.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <stdexcept>
#include <tuple>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

enum class Kind { First, Edit, Repeat };

struct Line {
  Kind K = Kind::First;
  std::string Type;
  std::string Path;
  std::string Source;
  std::int64_t FixedNp = 0;
  std::string Wire;
};

/// The seeded request stream. Programs are generated (and run through the
/// interpreter) as the stream reaches them, outside the timed sections.
class Stream {
public:
  explicit Stream(std::uint64_t Seed) : R(Seed ^ 0x5e7e) {}

  Line next() {
    std::uint64_t N = Count++;
    std::string Type = N % 4 == 3 ? "lint" : "analyze";
    if (N % 3 == 2) {
      std::size_t Window = std::min<std::size_t>(48, History.size());
      std::size_t At = N % 2 ? History.size() - 1 - R.below(Window)
                             : R.below(History.size());
      Line L = History[At];
      L.K = Kind::Repeat;
      return finish(L);
    }
    Line L;
    std::size_t Doc;
    if (N % 3 == 1) {
      std::size_t Recent = std::min<std::size_t>(12, Docs.size());
      Doc = Docs.size() - 1 - R.below(Recent);
      Docs[Doc] = editProgram(Docs[Doc], R, FreshLiteral++);
      L.K = Kind::Edit;
    } else {
      Doc = Docs.size();
      std::string Name = "doc" + std::to_string(Doc);
      const DocSlot &S = DocSlots[Doc % std::size(DocSlots)];
      Docs.push_back(S.Np ? fixedProgram(R, Name, S.Np, S.A, S.B, S.C)
                          : symbolicProgram(R, Name, S.A, S.B, S.C));
      L.K = Kind::First;
    }
    std::vector<csdf::RunResult> Runs;
    std::string Error;
    if (!validate(Docs[Doc], Runs, Error))
      throw std::runtime_error("generated program is invalid: " + Error);
    L.Type = Type;
    L.Path = Docs[Doc].Name + ".mpl";
    L.Source = Docs[Doc].Source;
    L.FixedNp = Docs[Doc].FixedNp;
    History.push_back(L);
    return finish(L);
  }

private:
  Line finish(Line L) {
    L.Wire = "{\"id\":" + std::to_string(++Id) + ",\"type\":\"" + L.Type +
             "\",\"path\":\"" + csdf::jsonEscape(L.Path) + "\",\"source\":\"" +
             csdf::jsonEscape(L.Source) + "\"";
    if (L.FixedNp)
      L.Wire += ",\"options\":{\"fixed_np\":" + std::to_string(L.FixedNp) + "}";
    L.Wire += "}";
    return L;
  }

  /// Sizes of new documents: symbolic (transposes, fan-outs, gathers)
  /// when Np is 0, else fixed-np (shifts, shift-lefts, fan-outs).
  struct DocSlot {
    std::int64_t Np;
    int A, B, C;
  };
  static constexpr DocSlot DocSlots[] = {
      {0, 1, 1, 1}, {8, 1, 1, 0},  {0, 0, 2, 2}, {9, 2, 1, 1},
      {0, 1, 3, 1}, {10, 1, 2, 1}, {0, 1, 2, 3}, {12, 2, 2, 0}};

  Rng R;
  std::vector<GenProgram> Docs;
  std::vector<Line> History;
  std::int64_t FreshLiteral = 1000;
  std::uint64_t Count = 0;
  std::uint64_t Id = 0;
};

/// The result payload of an ok response; empty for an error response.
std::string resultOf(const std::string &Resp) {
  if (Resp.find("\"ok\":true") == std::string::npos)
    return "";
  std::size_t At = Resp.find(",\"result\":");
  std::size_t End = Resp.rfind(",\"wall_us\":");
  if (At == std::string::npos || End == std::string::npos || End < At)
    return "";
  At += 10;
  return Resp.substr(At, End - At);
}

/// renderDiagsJson's one-object-per-line output as the array the serve
/// lint result carries.
std::string diagsArray(const std::vector<csdf::Diagnostic> &Diags,
                       const std::string &Path) {
  std::string Lines = csdf::renderDiagsJson(Diags, Path);
  std::string Out = "[";
  std::size_t Pos = 0;
  while (Pos < Lines.size()) {
    std::size_t Nl = Lines.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Lines.size();
    if (Nl > Pos) {
      if (Out.size() > 1)
        Out += ',';
      Out.append(Lines, Pos, Nl - Pos);
    }
    Pos = Nl + 1;
  }
  return Out + "]";
}

/// Store directories are never reused within a process, so every server
/// starts from an empty store.
unsigned StoreCount = 0;

class ServeSession : public Workload {
public:
  void setup(const RunConfig &Cfg) override {
    // Untimed warm-up on a throwaway server with its own store.
    std::unique_ptr<csdf::ServeServer> Warm = makeServer(Cfg);
    Stream S(streamSeed(Cfg.Seed, WarmUpSession));
    bool Shutdown = false;
    for (int I = 0; I < 24; ++I)
      if (resultOf(Warm->handleLine(S.next().Wire, Shutdown)).empty())
        throw std::runtime_error("warm-up request failed");
    Warm.reset();
    Server = makeServer(Cfg);
  }

  void run(const RunConfig &Cfg, Tally &T) override {
    Answers Seen;
    double End = nowSec() + Cfg.Seconds;
    for (std::uint64_t K = 0;
         nowSec() < End || T.RequestMs.size() < Cfg.MinRequests; ++K) {
      if (K)
        renew(Server, Cfg);
      Stream S(streamSeed(Cfg.Seed, K));
      for (int I = 0; I < SessionLines; ++I)
        send(*Server, S.next(), T, nullptr, Seen);
    }
    verify(Seen, T);
  }

  /// Twin servers, both fresh in every session: the untraced one receives
  /// each line without spans, the traced one with them.
  void runTraced(const RunConfig &Cfg, Tally &U, Tally &T,
                 SpanRecorder &Spans) override {
    std::unique_ptr<csdf::ServeServer> Twin;
    Answers Seen;
    LayerCounts Counts;
    csdf::ServeStats Sum;
    auto Before = csdf::StatsRegistry::global().counters();
    bool TracedFirst = false;
    double End = nowSec() + Cfg.Seconds;
    std::uint64_t K = 0;
    for (; nowSec() < End; ++K) {
      if (K)
        renew(Server, Cfg);
      renew(Twin, Cfg);
      Stream S(streamSeed(Cfg.Seed, K));
      for (int I = 0; I < SessionLines; ++I) {
        Line L = S.next();
        TracedFirst = !TracedFirst;
        if (!TracedFirst)
          send(*Server, L, U, nullptr, Seen);
        send(*Twin, L, T, &Spans, Seen);
        if (TracedFirst)
          send(*Server, L, U, nullptr, Seen);
        ++Counts.Requests;
        Counts.SourceBytes += static_cast<double>(L.Source.size());
      }
      addStats(Sum, Twin->stats());
    }
    verify(Seen, T);
    // Both servers ran the same lines: each drove half the process-wide
    // closure counters.
    Counts.addCounters(Before, csdf::StatsRegistry::global().counters(), 2);
    Counts.report(Spans, T.Layers);
    auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
    double Lookups = static_cast<double>(Sum.AnalyzeRequests + Sum.LintRequests);
    T.Layers["api.pipeline.hit_ratio"] =
        Ratio(Sum.IncrementalCacheHits, Sum.IncrementalRequests);
    T.Layers["pcfg.replay.adopted_ratio"] =
        Ratio(Sum.AdoptedSteps, Sum.AdoptedSteps + Sum.LiveSteps);
    T.Layers["pcfg.replay.seed_accept_ratio"] =
        Ratio(Sum.SeededRuns, Sum.SeededRuns + Sum.ColdRuns);
    T.Layers["driver.serve.memory_hit_ratio"] = Ratio(Sum.Hits, Lookups);
    T.Layers["driver.serve.disk_hit_ratio"] = Ratio(Sum.DiskHits, Lookups);
    T.Layers["support.store.writes"] = static_cast<double>(Sum.DiskWrites);
    T.Layers["support.store.live_bytes"] =
        Ratio(static_cast<double>(Sum.StoreLiveBytes), static_cast<double>(K));
  }

private:
  /// Each distinct request (type, fixed np, path, source) and a digest of
  /// the result bytes of its first response; later responses to it must
  /// match.
  using Request =
      std::tuple<std::string, std::int64_t, std::string, std::string>;
  using Answers = std::map<Request, std::size_t>;

  /// Lines per editor session. A run is a whole number of sessions, each
  /// on a fresh server and store, so every run has the same mix of early
  /// (cheaper: small history, cold memo) and later lines however fast it
  /// goes. The p99 tail's minimum of 1000 requests is two sessions.
  static constexpr int SessionLines = 500;
  static constexpr std::uint64_t WarmUpSession = ~std::uint64_t(0);

  /// The stream of session \p K of a run with \p Seed.
  static std::uint64_t streamSeed(std::uint64_t Seed, std::uint64_t K) {
    return Rng(Seed + 0x9e3779b97f4a7c15ull * K).next();
  }

  /// Sums the counters the per-layer ratios read; StoreLiveBytes too, to
  /// be averaged over the sessions.
  static void addStats(csdf::ServeStats &Sum, const csdf::ServeStats &S) {
    Sum.AnalyzeRequests += S.AnalyzeRequests;
    Sum.LintRequests += S.LintRequests;
    Sum.IncrementalCacheHits += S.IncrementalCacheHits;
    Sum.IncrementalRequests += S.IncrementalRequests;
    Sum.AdoptedSteps += S.AdoptedSteps;
    Sum.LiveSteps += S.LiveSteps;
    Sum.SeededRuns += S.SeededRuns;
    Sum.ColdRuns += S.ColdRuns;
    Sum.Hits += S.Hits;
    Sum.DiskHits += S.DiskHits;
    Sum.DiskWrites += S.DiskWrites;
    Sum.StoreLiveBytes += S.StoreLiveBytes;
  }

  /// Replaces \p Srv with a fresh server, dropping the old one first.
  void renew(std::unique_ptr<csdf::ServeServer> &Srv, const RunConfig &Cfg) {
    Srv.reset();
    Srv = makeServer(Cfg);
  }

  std::unique_ptr<csdf::ServeServer> makeServer(const RunConfig &Cfg) {
    csdf::ServeOptions Opts;
    Opts.CacheCapacity = 32;
    Opts.StoreDir =
        (fs::path(Cfg.WorkDir) / ("store-" + std::to_string(StoreCount++)))
            .string();
    auto S = std::make_unique<csdf::ServeServer>(Opts);
    if (!S->storeError().empty())
      throw std::runtime_error("cannot open store: " + S->storeError());
    return S;
  }

  /// One closed-loop request: times handleLine, classifies the response
  /// and keeps a digest of its result for verify().
  static void send(csdf::ServeServer &Srv, const Line &L, Tally &T,
                   SpanRecorder *Spans, Answers &Seen) {
    bool Shutdown = false;
    std::string Resp;
    double T0 = nowSec();
    if (Spans) {
      int Root = Spans->beginRequest();
      {
        ScopedSpan H(*Spans, "driver.serve.handle_line");
        Resp = Srv.handleLine(L.Wire, Shutdown);
      }
      Spans->end(Root);
    } else {
      Resp = Srv.handleLine(L.Wire, Shutdown);
    }
    double Ms = (nowSec() - T0) * 1e3;
    ++T.Attempted;
    bool Cached = Resp.find(",\"cached\":true,") != std::string::npos;
    T.record(Ms, 1, Cached ? "hit" : L.K == Kind::Edit ? "edit" : "miss");
    std::string Result = resultOf(Resp);
    if (Result.empty()) {
      ++T.Failed;
      T.mismatch(L.Path + ": error response " + Resp.substr(0, 200));
      return;
    }
    if (L.Type == "analyze") {
      std::string V = verdictOf(Result);
      ++T.DecidedOf;
      if (V == "complete")
        ++T.Decided;
      if (failedVerdict(V))
        ++T.Failed;
    } else if (Result.find("\"exit_code\":2}") != std::string::npos ||
               Result.find("\"exit_code\":3}") != std::string::npos) {
      ++T.Failed;
    }
    std::size_t Digest = std::hash<std::string>()(normalizeVerdict(Result));
    auto [It, New] =
        Seen.emplace(Request(L.Type, L.FixedNp, L.Path, L.Source), Digest);
    if (!New && It->second != Digest)
      T.mismatch(L.Path + ": " + L.Type +
                 " result differs from an earlier response's");
  }

  /// Compares the answer to every distinct request with a cold
  /// Analyzer's.
  static void verify(const Answers &Seen, Tally &T) {
    for (const auto &[Req, Digest] : Seen) {
      const auto &[Type, FixedNp, Path, Source] = Req;
      csdf::api::Analyzer An;
      csdf::api::RequestOptions Opts;
      Opts.FixedNp = FixedNp;
      std::string Want;
      if (Type == "analyze") {
        csdf::api::AnalyzeRequest R;
        R.Path = Path;
        R.Source = Source;
        R.Options = Opts;
        Want = csdf::api::verdictJson(Path, An.analyze(R));
      } else {
        csdf::api::LintRequest R;
        R.Path = Path;
        R.Source = Source;
        R.Options = Opts;
        csdf::api::LintResponse Resp = An.lint(R);
        Want = "{\"diagnostics\":" + diagsArray(Resp.Diagnostics, Path) +
               ",\"exit_code\":" + std::to_string(Resp.ExitCode) + "}";
      }
      if (std::hash<std::string>()(normalizeVerdict(Want)) != Digest)
        T.mismatch(Path + ": " + Type +
                   " result differs from a cold Analyzer's");
    }
  }

  std::unique_ptr<csdf::ServeServer> Server;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeServeSession() {
  return std::make_unique<ServeSession>();
}
