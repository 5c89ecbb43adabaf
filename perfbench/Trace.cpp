//===- perfbench/Trace.cpp ------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <fstream>

using namespace perfbench;

int SpanRecorder::beginRequest() {
  Open.clear();
  ++Requests;
  return begin("request");
}

int SpanRecorder::begin(const char *Name) {
  int Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back({Name, nowNs(), 0, Parent, Requests});
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void SpanRecorder::end(int Index) {
  Spans[Index].EndNs = nowNs();
  while (!Open.empty() && Open.back() != Index)
    Open.pop_back();
  if (!Open.empty())
    Open.pop_back();
}

void SpanRecorder::addMeasured(const char *Name, std::int64_t DurationNs) {
  int Parent = Open.empty() ? -1 : Open.back();
  std::int64_t Start = Parent < 0 ? nowNs() : Spans[Parent].StartNs;
  Spans.push_back({Name, Start, Start + DurationNs, Parent, Requests});
}

double SpanRecorder::requestMs() const {
  std::int64_t Ns = 0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Ns += S.EndNs - S.StartNs;
  return static_cast<double>(Ns) / 1e6;
}

std::map<std::string, double> SpanRecorder::selfMs() const {
  std::vector<std::int64_t> Self(Spans.size());
  for (std::size_t I = 0; I < Spans.size(); ++I)
    Self[I] += Spans[I].EndNs - Spans[I].StartNs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.EndNs - S.StartNs;
  std::map<std::string, double> Out;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += static_cast<double>(Self[I]) / 1e6;
  return Out;
}

double SpanRecorder::coverage() const {
  double Wall = requestMs();
  if (Wall <= 0)
    return 0;
  auto Self = selfMs();
  return 1.0 - Self["request"] / Wall;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream Out(Path);
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\": " << I << ", \"name\": \"" << S.Name
        << "\", \"request\": " << S.Request << ", \"parent\": " << S.Parent
        << ", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
        << "}\n";
  }
  Out.flush();
  return static_cast<bool>(Out);
}
