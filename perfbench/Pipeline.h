//===- perfbench/Pipeline.h - The csdf pipeline, one layer call at a time -===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's view of one request. It calls the pipeline's public
/// functions in the order driver/Session and api::Analyzer::lint call them
/// (parseProgram, checkProgram, buildCfg, analyzeProgram, classifyMatches,
/// suggestCollectives/findShareableConstants, runLintPasses, render), with
/// a span around each call and a private StatsRegistry per request so the
/// closure counters are this request's alone. The verdict and lint bytes
/// it produces must equal the untraced api::Analyzer's; the workloads
/// check that, or the profile would describe a different program.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PERFBENCH_PIPELINE_H
#define CSDF_PERFBENCH_PIPELINE_H

#include "api/Csdf.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder;

/// Work counts gathered by the traced pipeline, summed over a run.
struct LayerCounts {
  std::uint64_t Requests = 0;
  double SourceBytes = 0;
  double CfgNodes = 0;
  double StatesExplored = 0;
  double ConfigsVisited = 0;
  double MaxSets = 0;
  double ProverSteps = 0;
  double Findings = 0;
  double OutputBytes = 0;
  std::int64_t FullCalls = 0, FullVarsum = 0, IncrCalls = 0, IncrVarsum = 0;
  std::int64_t CowCopies = 0, CowDetaches = 0, MemoHits = 0, MemoMisses = 0;

  /// Adds the closure and copy-on-write counters a StatsRegistry gained
  /// between two counters() snapshots, divided by \p Sharers when that
  /// many equal clients drove them.
  void addCounters(const std::map<std::string, std::int64_t> &Before,
                   const std::map<std::string, std::int64_t> &After,
                   std::int64_t Sharers = 1);

  /// Per-request means and run ratios under their metric names, plus the
  /// per-layer self times of \p Spans.
  void report(const SpanRecorder &Spans,
              std::map<std::string, double> &Layers) const;
};

/// Every per-layer metric name, so each workload prints the full set
/// (0 where a workload does not exercise the layer).
const std::vector<std::string> &layerMetricNames();

/// api::Analyzer::analyze plus verdictJson, decomposed. Fills \p Resp
/// (WallUs 0) and returns its verdict bytes.
std::string tracedAnalyze(const std::string &Path, const std::string &Source,
                          const csdf::api::RequestOptions &Opts,
                          SpanRecorder &Spans, LayerCounts &Counts,
                          csdf::api::AnalyzeResponse &Resp);

/// api::Analyzer::lint plus JSON rendering, decomposed. Returns the
/// rendered JSON diagnostics.
std::string tracedLintJson(const std::string &Path, const std::string &Source,
                           const csdf::api::RequestOptions &Opts,
                           SpanRecorder &Spans, LayerCounts &Counts);

} // namespace perfbench

#endif // CSDF_PERFBENCH_PIPELINE_H
