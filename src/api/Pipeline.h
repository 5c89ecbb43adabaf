//===- api/Pipeline.h - Per-revision analysis products --------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one value every Analyzer entry point reads: the product of one
/// analysis session over one source revision, keyed by (path,
/// RequestOptions::fingerprint(), exact source bytes). analyze and lint of
/// the same revision share it, so the pair runs the front end and the pCFG
/// engine once. A plain Analyzer remembers the product of its last
/// revision; the incremental entry points keep one per document path in a
/// PipelineCache, together with the engine trace that seeds the path's
/// next revision (pcfg/Replay.h's validated step adoption) and the
/// responses an exact re-request replays.
///
/// Correctness note: a product never substitutes for analysis of a
/// different revision. An edited revision always re-runs the full
/// pipeline; the trace only lets the engine adopt recorded steps whose
/// CFG footprint is provably unchanged, so the verdict is bit-identical
/// to a cold run by construction.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_API_PIPELINE_H
#define CSDF_API_PIPELINE_H

#include "api/Csdf.h"
#include "driver/Session.h"
#include "pcfg/Replay.h"

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

namespace csdf {
class AnalysisTrace;
} // namespace csdf

namespace csdf::api {

/// Everything one analysis session produced for one source revision.
struct RevisionProduct {
  std::string Path;
  /// RequestOptions::fingerprint() of the request that built it.
  std::string OptionsFp;
  /// Exact source bytes analyzed.
  std::string Source;

  /// The session over Source: parse result with its diagnostics, sema
  /// result, CFG and ClientReport. Parsed and Graph are shared with every
  /// response built from this product.
  SessionResult Session;
  /// False once a plain analyze() moved the ClientReport into its
  /// response. Session.Report.Analysis then keeps only what lint reads
  /// (Outcome, Converged, TopReason, Bugs), and the next analyze() of
  /// this revision builds a new product.
  bool FullReport = true;

  /// Incremental products only: the converged engine trace (null after a
  /// degraded or front-end-failed run) and the adoption counters of the
  /// run that built it (handed to the first response built from it, zero
  /// after).
  std::shared_ptr<const AnalysisTrace> Trace;
  ReplayStats Replay;

  /// What the incremental entry points replay on an exact re-request:
  /// whether an analyze response was already built from this product, and
  /// the last lint response with the key of its lint-only knobs.
  bool Analyzed = false;
  std::string LintKnobs;
  std::optional<LintResponse> Lint;

  bool matches(const std::string &P, const std::string &Fp,
               const std::string &Src) const {
    return Path == P && OptionsFp == Fp && Source == Src;
  }
};

/// Per-path LRU of products. Bounded: editors hold a handful of
/// documents, but a batch misusing the incremental entry points must not
/// accumulate one AST + trace per corpus file forever.
class PipelineCache {
public:
  explicit PipelineCache(std::size_t Capacity = 64) : Capacity(Capacity) {}

  /// The product slot of \p Path, marked most recently used. A path seen
  /// for the first time gets an empty slot, evicting the least recently
  /// used path at capacity. The reference stays valid until the next
  /// call.
  std::shared_ptr<RevisionProduct> &slot(const std::string &Path) {
    auto It = Map.find(Path);
    if (It != Map.end()) {
      Lru.splice(Lru.begin(), Lru, It->second.LruIt);
      return It->second.Product;
    }
    if (Capacity && Map.size() >= Capacity && !Lru.empty()) {
      Map.erase(Lru.back());
      Lru.pop_back();
    }
    Lru.push_front(Path);
    return Map.emplace(Path, Slot{nullptr, Lru.begin()}).first->second.Product;
  }

private:
  struct Slot {
    std::shared_ptr<RevisionProduct> Product;
    std::list<std::string>::iterator LruIt;
  };

  std::size_t Capacity;
  std::unordered_map<std::string, Slot> Map;
  std::list<std::string> Lru;
};

} // namespace csdf::api

#endif // CSDF_API_PIPELINE_H
