//===- tests/pcfg/EngineGoldenTest.cpp - Pinned engine verdicts and work -===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Runs every examples/mpl program and every corpus::allPatterns() program
// through a fresh api::Analyzer, once with symbolic np and once with
// FixedNp 4, and diffs one line per run against tests/pcfg/golden/
// engine.txt. A line pins the verdict JSON (wall_ms and peak_rss_kb
// masked), StatesExplored, configurations visited, and the full and
// incremental closure call counts. Internal refactors of the engine
// (namespace handling, canonicalization, the lattice operations) must
// leave every line unchanged: a different exploration shows up as a
// different state, configuration or closure count even when the verdict
// happens to agree.
//
// Regenerate after an intentional change with:
//   CSDF_REGENERATE_ENGINE_GOLDEN=1 ./build/tests/engine_golden_test
//
//===----------------------------------------------------------------------===//

#include "api/Csdf.h"
#include "lang/Corpus.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>

using namespace csdf;
namespace fs = std::filesystem;

namespace {

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The programs under test, in a fixed order: examples by file name, then
/// the corpus patterns in corpus order.
std::vector<corpus::NamedProgram> programs() {
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E :
       fs::directory_iterator(CSDF_EXAMPLES_DIR))
    if (E.path().extension() == ".mpl")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  std::vector<corpus::NamedProgram> Progs;
  for (const fs::path &F : Files)
    Progs.push_back({"examples/" + F.filename().string(), readFile(F)});
  for (corpus::NamedProgram &P : corpus::allPatterns())
    Progs.push_back({"corpus/" + P.Name, std::move(P.Source)});
  return Progs;
}

/// One golden line for \p Prog analyzed with \p FixedNp (0 = symbolic).
std::string probe(const corpus::NamedProgram &Prog, std::int64_t FixedNp) {
  StatsRegistry &Stats = StatsRegistry::global();
  std::int64_t Full0 = Stats.counter("cg.closure.full.calls");
  std::int64_t Incr0 = Stats.counter("cg.closure.incr.calls");

  api::Analyzer A;
  api::AnalyzeRequest Req;
  Req.Path = Prog.Name;
  Req.Source = Prog.Source;
  Req.Options.FixedNp = FixedNp;
  api::AnalyzeResponse R = A.analyze(Req);

  static const std::regex Volatile(R"re("(wall_ms|peak_rss_kb)": \d+)re");
  std::string Verdict = std::regex_replace(api::verdictJson(Prog.Name, R),
                                           Volatile, "\"$1\": 0");
  const AnalysisResult &Res = R.Session.Report.Analysis;
  std::ostringstream OS;
  OS << Prog.Name << " np=" << (FixedNp ? std::to_string(FixedNp) : "sym")
     << " states=" << Res.StatesExplored << " configs=" << Res.ConfigsVisited
     << " full=" << Stats.counter("cg.closure.full.calls") - Full0
     << " incr=" << Stats.counter("cg.closure.incr.calls") - Incr0 << " "
     << Verdict;
  return OS.str();
}

TEST(EngineGolden, VerdictsAndWorkMatchGolden) {
  std::vector<corpus::NamedProgram> Progs = programs();
  ASSERT_GE(Progs.size(), 20u) << "program corpus unexpectedly small";

  std::vector<std::string> Lines;
  for (const corpus::NamedProgram &P : Progs)
    for (std::int64_t Np : {0, 4})
      Lines.push_back(probe(P, Np));

  const fs::path Golden = CSDF_ENGINE_GOLDEN_FILE;
  if (std::getenv("CSDF_REGENERATE_ENGINE_GOLDEN")) {
    std::ofstream Out(Golden);
    for (const std::string &L : Lines)
      Out << L << "\n";
    GTEST_SKIP() << "regenerated " << Golden;
  }

  ASSERT_TRUE(fs::exists(Golden)) << "missing " << Golden;
  std::istringstream In(readFile(Golden));
  std::vector<std::string> Want;
  for (std::string L; std::getline(In, L);)
    Want.push_back(L);
  ASSERT_EQ(Want.size(), Lines.size()) << "program corpus changed";
  for (size_t I = 0; I < Lines.size(); ++I)
    EXPECT_EQ(Want[I], Lines[I]);
}

} // namespace
