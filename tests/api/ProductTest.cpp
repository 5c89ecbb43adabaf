//===- tests/api/ProductTest.cpp - One engine run per source revision -----===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// analyze and lint of one revision share that revision's analysis product
// (api/Pipeline.h), so the pair runs the engine once. These tests pin the
// sharing rules through IncrementalStats::EngineRuns/ProductHits: which
// request pairs share, which must not (edited source, other path, other
// options, budgets, test hooks), and that sharing never changes a byte
// of the verdict or the lint JSON against a fresh Analyzer.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "api/Csdf.h"
#include "diag/DiagRenderer.h"
#include "driver/Serve.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>

using namespace csdf;
namespace fs = std::filesystem;

namespace {

std::string readFileOrDie(const fs::path &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The only legitimately run-dependent byte in a verdict.
std::string scrubWall(std::string S) {
  return std::regex_replace(S, std::regex("\"wall_ms\": \\d+"),
                            "\"wall_ms\": 0");
}

std::string verdictOf(const api::AnalyzeRequest &Req,
                      const api::AnalyzeResponse &R) {
  return scrubWall(api::verdictJson(Req.Path, R));
}

std::string lintJsonOf(const api::LintRequest &Req,
                       const api::LintResponse &R) {
  return renderDiagsJson(R.Diagnostics, Req.Path) + "exit=" +
         std::to_string(R.ExitCode);
}

/// What a fresh one-shot `csdf analyze --format json` would print.
std::string freshVerdict(const api::AnalyzeRequest &Req) {
  api::Analyzer Fresh;
  return verdictOf(Req, Fresh.analyze(Req));
}

/// What a fresh one-shot `csdf lint --format json` would print.
std::string freshLint(const api::LintRequest &Req) {
  api::Analyzer Fresh;
  return lintJsonOf(Req, Fresh.lint(Req));
}

/// The same lint through lintSource(), whose bridge runs the engine
/// itself: the reference every product-fed lint must reproduce.
std::string engineLint(const api::LintRequest &Req) {
  LintOptions Opts;
  Opts.Disabled = Req.Disabled;
  Opts.Analysis = Req.Options.analysis();
  DiagnosticEngine Diags;
  lintSource(*Req.Source, Opts, Diags);
  Diags.filterBelow(Req.MinSeverity);
  return renderDiagsJson(Diags.diagnostics(), Req.Path) + "exit=" +
         std::to_string(Diags.exitCode());
}

// A leak plus a dead store: both the bridge and a CFG pass have findings.
const char *Leaky = R"(if id == 0 then
  x = 1;
  send x -> 1;
  send x -> 1;
else
  if id == 1 then
    recv y <- 0;
  end
end
dead = 3;
)";

api::AnalyzeRequest analyzeRequest(const std::string &Source,
                                   const std::string &Path = "p.mpl") {
  api::AnalyzeRequest Req;
  Req.Path = Path;
  Req.Source = Source;
  return Req;
}

api::LintRequest lintRequest(const api::AnalyzeRequest &A) {
  api::LintRequest Req;
  Req.Path = A.Path;
  Req.Source = A.Source;
  Req.Options = A.Options;
  return Req;
}

/// The four ways an Analyzer can be driven for one request pair.
struct Flavor {
  const char *Name;
  bool Warm;
  bool Incremental;
};
const Flavor Flavors[] = {{"cold", false, false},
                          {"warm", true, false},
                          {"cold-incremental", false, true},
                          {"warm-incremental", true, true}};

api::AnalyzeResponse analyzeWith(api::Analyzer &An, const Flavor &F,
                                 const api::AnalyzeRequest &Req) {
  return F.Incremental ? An.analyzeIncremental(Req) : An.analyze(Req);
}

api::LintResponse lintWith(api::Analyzer &An, const Flavor &F,
                           const api::LintRequest &Req) {
  return F.Incremental ? An.lintIncremental(Req) : An.lint(Req);
}

api::AnalyzerConfig configFor(const Flavor &F) {
  return F.Warm ? api::AnalyzerConfig::warm() : api::AnalyzerConfig();
}

TEST(ProductTest, AnalyzeThenLintRunsTheEngineOnce) {
  for (const Flavor &F : Flavors) {
    SCOPED_TRACE(F.Name);
    api::Analyzer An(configFor(F));
    api::AnalyzeRequest A = analyzeRequest(Leaky);
    api::LintRequest L = lintRequest(A);

    std::string Verdict = verdictOf(A, analyzeWith(An, F, A));
    std::string Lint = lintJsonOf(L, lintWith(An, F, L));

    EXPECT_EQ(An.incrementalStats().EngineRuns, 1u);
    EXPECT_EQ(An.incrementalStats().ProductHits, 1u);
    EXPECT_EQ(Verdict, freshVerdict(A));
    EXPECT_EQ(Lint, freshLint(L));
    EXPECT_NE(Lint.find("message-leak"), std::string::npos);
    EXPECT_NE(Lint.find("dead-store"), std::string::npos);
  }
}

TEST(ProductTest, LintThenAnalyzeRunsTheEngineOnce) {
  for (const Flavor &F : Flavors) {
    SCOPED_TRACE(F.Name);
    api::Analyzer An(configFor(F));
    api::AnalyzeRequest A = analyzeRequest(Leaky);
    api::LintRequest L = lintRequest(A);

    std::string Lint = lintJsonOf(L, lintWith(An, F, L));
    api::AnalyzeResponse R = analyzeWith(An, F, A);

    EXPECT_EQ(An.incrementalStats().EngineRuns, 1u);
    EXPECT_EQ(An.incrementalStats().ProductHits, 1u);
    EXPECT_EQ(verdictOf(A, R), freshVerdict(A));
    EXPECT_EQ(Lint, freshLint(L));
    // The lint-built product carried the full report to the response.
    EXPECT_FALSE(R.Session.Report.Analysis.Bugs.empty());
    EXPECT_FALSE(R.Session.Report.Analysis.Matches.empty());
    // Built from a product, not replayed from an earlier analyze.
    EXPECT_FALSE(R.FromCache);
  }
}

TEST(ProductTest, IncrementalReplayKeepsItsMeaning) {
  api::Analyzer An(api::AnalyzerConfig::warm());
  api::AnalyzeRequest A = analyzeRequest(Leaky);
  api::LintRequest L = lintRequest(A);

  EXPECT_FALSE(An.lintIncremental(L).FromCache);
  EXPECT_FALSE(An.analyzeIncremental(A).FromCache); // first analyze response
  EXPECT_TRUE(An.analyzeIncremental(A).FromCache);
  EXPECT_TRUE(An.lintIncremental(L).FromCache);
  EXPECT_EQ(An.incrementalStats().Requests, 4u);
  EXPECT_EQ(An.incrementalStats().CacheHits, 2u);
  EXPECT_EQ(An.incrementalStats().EngineRuns, 1u);
  EXPECT_EQ(An.incrementalStats().ProductHits, 3u);
}

TEST(ProductTest, RepeatedPlainAnalyzeRebuildsTheFullReport) {
  // A plain analyze() moves the report into its response; the product it
  // leaves serves lint only, so a second analyze() runs again and still
  // answers in full.
  api::Analyzer An;
  api::AnalyzeRequest A = analyzeRequest(Leaky);
  api::AnalyzeResponse First = An.analyze(A);
  api::AnalyzeResponse Second = An.analyze(A);
  EXPECT_EQ(An.incrementalStats().EngineRuns, 2u);
  EXPECT_EQ(verdictOf(A, First), verdictOf(A, Second));
  EXPECT_EQ(First.Session.Report.Analysis.Matches,
            Second.Session.Report.Analysis.Matches);
  EXPECT_EQ(First.Session.Report.Patterns.size(),
            Second.Session.Report.Patterns.size());
}

TEST(ProductTest, EveryKeyChangeRunsTheEngineAgain) {
  // Each case changes what the lint request asks for relative to the
  // analyze before it, or opts out of sharing altogether.
  const std::pair<const char *, std::function<void(api::LintRequest &)>>
      Changes[] = {
          {"edited source",
           [](api::LintRequest &L) { *L.Source += "z = 1;\nprint z;\n"; }},
          {"other path", [](api::LintRequest &L) { L.Path = "q.mpl"; }},
          {"fixed_np", [](api::LintRequest &L) { L.Options.FixedNp = 4; }},
          {"client", [](api::LintRequest &L) { L.Options.Client = "linear"; }},
          {"deadline",
           [](api::LintRequest &L) { L.Options.DeadlineMs = 60000; }},
          {"test hooks",
           [](api::LintRequest &L) { L.Options.TestHooks = true; }},
      };
  for (const Flavor &F : Flavors) {
    for (const auto &[What, Change] : Changes) {
      SCOPED_TRACE(std::string(F.Name) + ": " + What);
      api::Analyzer An(configFor(F));
      api::AnalyzeRequest A = analyzeRequest(Leaky);
      api::LintRequest L = lintRequest(A);
      Change(L);

      std::string Verdict = verdictOf(A, analyzeWith(An, F, A));
      std::string Lint = lintJsonOf(L, lintWith(An, F, L));

      EXPECT_EQ(An.incrementalStats().EngineRuns, 2u);
      EXPECT_EQ(An.incrementalStats().ProductHits, 0u);
      EXPECT_EQ(Verdict, freshVerdict(A));
      EXPECT_EQ(Lint, freshLint(L));
    }
  }
}

TEST(ProductTest, BudgetedAndHookedRequestsNeverStoreAProduct) {
  for (bool Hooks : {false, true}) {
    SCOPED_TRACE(Hooks ? "test hooks" : "deadline");
    api::Analyzer An;
    api::AnalyzeRequest A = analyzeRequest(Leaky);
    if (Hooks)
      A.Options.TestHooks = true;
    else
      A.Options.DeadlineMs = 60000;
    api::LintRequest L = lintRequest(A);

    An.lint(L);
    An.analyze(A);
    An.analyze(A);
    An.lint(L);
    EXPECT_EQ(An.incrementalStats().EngineRuns, 4u);
    EXPECT_EQ(An.incrementalStats().ProductHits, 0u);
  }
}

TEST(ProductTest, DisabledMatchNondetAfterAnalyzeEqualsFreshLint) {
  // The shared product comes from an engine run with the wildcard check
  // on; lint with the pass disabled drops its bugs instead of re-running.
  unsigned Wildcards = 0;
  for (const char *Name : {"any_source_race.mpl", "any_source_clean.mpl"}) {
    SCOPED_TRACE(Name);
    std::string Source = readFileOrDie(fs::path(CSDF_EXAMPLES_DIR) / Name);
    for (const Flavor &F : Flavors) {
      SCOPED_TRACE(F.Name);
      api::Analyzer An(configFor(F));
      api::AnalyzeRequest A = analyzeRequest(Source, Name);
      api::LintRequest L = lintRequest(A);
      L.Disabled.insert("match-nondet");

      analyzeWith(An, F, A);
      std::string Lint = lintJsonOf(L, lintWith(An, F, L));
      EXPECT_EQ(An.incrementalStats().EngineRuns, 1u);
      EXPECT_EQ(Lint, freshLint(L));
      EXPECT_EQ(Lint, engineLint(L));
      EXPECT_EQ(Lint.find("match-nondet"), std::string::npos);
    }
    api::LintRequest All = lintRequest(analyzeRequest(Source, Name));
    if (freshLint(All).find("match-nondet") != std::string::npos)
      ++Wildcards;
  }
  EXPECT_EQ(Wildcards, 1u) << "any_source_race.mpl lost its finding?";
}

class ProductCorpusTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ProductCorpusTest, LintAfterAnalyzeEqualsFreshLint) {
  unsigned Checked = 0;
  for (const fs::directory_entry &Entry :
       fs::directory_iterator(CSDF_EXAMPLES_DIR)) {
    if (Entry.path().extension() != ".mpl")
      continue;
    std::string Path = Entry.path().filename().string();
    SCOPED_TRACE(Path);
    api::AnalyzeRequest A = analyzeRequest(readFileOrDie(Entry.path()), Path);
    A.Options.Client = GetParam();
    api::LintRequest L = lintRequest(A);

    api::Analyzer An;
    std::string Verdict = verdictOf(A, An.analyze(A));
    std::string Lint = lintJsonOf(L, An.lint(L));
    EXPECT_EQ(An.incrementalStats().EngineRuns, 1u);
    EXPECT_EQ(Lint, freshLint(L));
    EXPECT_EQ(Lint, engineLint(L));
    EXPECT_EQ(Verdict, freshVerdict(A));
    ++Checked;
  }
  EXPECT_GE(Checked, 10u) << "example corpus went missing?";
}

INSTANTIATE_TEST_SUITE_P(Clients, ProductCorpusTest,
                         ::testing::Values("linear", "cartesian", "sectionx"));

TEST(ProductTest, ServeLintAfterAnalyzeRunsTheEngineOnce) {
  ServeOptions Opts;
  ServeServer Server(Opts);
  bool Shutdown = false;
  std::string Source = "\"" + jsonEscape(Leaky) + "\"";
  auto EngineRuns = [&] {
    JsonValue V;
    std::string Error;
    EXPECT_TRUE(parseJson(Server.handleLine("{\"type\":\"stats\"}", Shutdown),
                          V, Error))
        << Error;
    return V.get("stats")->get("engine_runs")->asInt();
  };

  std::int64_t Before = EngineRuns();
  Server.handleLine("{\"type\":\"analyze\",\"path\":\"p.mpl\",\"source\":" +
                        Source + "}",
                    Shutdown);
  std::string Lint = Server.handleLine(
      "{\"type\":\"lint\",\"path\":\"p.mpl\",\"source\":" + Source + "}",
      Shutdown);
  EXPECT_EQ(EngineRuns() - Before, 1);
  EXPECT_EQ(Server.stats().ProductHits, 1u);
  EXPECT_NE(Lint.find("\"cached\":false"), std::string::npos);
  EXPECT_NE(Lint.find("csdf.message-leak"), std::string::npos);
}

} // namespace
