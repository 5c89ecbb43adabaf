//===- perfbench/Trace.h - In-memory span recorder ------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded around the benchmark's calls into each csdf layer: name,
/// start, end, parent span and request id. Spans stay in memory during the
/// run and are written out as JSON lines when it ends. A layer's self time
/// is its span's duration minus the time its child spans cover.
///
/// Names are string literals named after the layer (`lang.parse`,
/// `pcfg.engine`, ...); the root span of each request is `request`.
/// Single-threaded: spans of one recorder must nest.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PERFBENCH_TRACE_H
#define CSDF_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
public:
  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Starts the root span of a new request; returns its index.
  int beginRequest();
  /// Opens a span under the innermost open span.
  int begin(const char *Name);
  void end(int Index);
  /// Records an already-measured child of the innermost open span, e.g.
  /// closure time the engine accumulated in a StatsRegistry timer. It is
  /// laid out at the start of its parent; only its duration is measured.
  void addMeasured(const char *Name, std::int64_t DurationNs);

  std::uint32_t requests() const { return Requests; }
  /// Wall time of all request spans.
  double requestMs() const;
  /// Self time per span name, in ms, over the whole run.
  std::map<std::string, double> selfMs() const;
  /// Share of request wall covered by layer spans (1 - root self time /
  /// root wall).
  double coverage() const;
  /// Writes one JSON object per span; false on an IO error.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    std::int64_t StartNs;
    std::int64_t EndNs;
    int Parent;
    std::uint32_t Request;
  };
  std::vector<Span> Spans;
  std::vector<int> Open;
  std::uint32_t Requests = 0;
};

/// RAII span.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, const char *Name) : R(R), Index(R.begin(Name)) {}
  ~ScopedSpan() { R.end(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &R;
  int Index;
};

} // namespace perfbench

#endif // CSDF_PERFBENCH_TRACE_H
