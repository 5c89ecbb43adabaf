//===- perfbench/main.cpp - The csdf benchmark of record ------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload in this process and prints its metrics:
///
///   csdf_perfbench --workload oneshot_corpus|scale_generated|serve_session|
///                  batch_threads --seed N --seconds S --trace 0|1 [--root DIR]
///
/// Set-up runs several times and setup_s is their median. With --trace 0 the
/// timed loop is untraced and the end-to-end metrics are printed. With
/// --trace 1 every request is issued twice, traced and untraced; the
/// per-layer metrics are printed, including the traced/untraced cost
/// ratio, and the spans are written to .bench_build/perfbench-traces/.
/// End-to-end times are corrected for host slowness (see Tally in
/// Bench.h); the report also gives them raw. Lines starting with '#' are
/// the human report; the last line is one JSON object. The exit code is 0
/// only when the correctness gate passed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Pipeline.h"
#include "Trace.h"

#include "BenchMeta.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/// A workload and the percentile its latency_tail_ms reports. The
/// percentile is fixed, so that every run compares the same one: the
/// highest that had at least ten requests beyond it on the slowest 20 s run
/// recorded (oneshot 13.7k requests, scale 378, serve 1390, batch 99
/// batches). A timed run goes on until ten requests lie beyond it.
struct WorkloadSpec {
  const char *Name;
  std::unique_ptr<Workload> (*Make)();
  double TailPercentile;
};

constexpr WorkloadSpec Workloads[] = {
    {"oneshot_corpus", makeOneshotCorpus, 99},
    {"scale_generated", makeScaleGenerated, 95},
    {"serve_session", makeServeSession, 99},
    {"batch_threads", makeBatchThreads, 75},
};

const WorkloadSpec *findWorkload(const std::string &Name) {
  for (const WorkloadSpec &S : Workloads)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: csdf_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--root DIR]\n",
               Msg);
  return 2;
}

std::string unitOf(const std::string &Metric) {
  auto Ends = [&](const char *Suffix) {
    std::size_t N = std::strlen(Suffix);
    return Metric.size() >= N &&
           Metric.compare(Metric.size() - N, N, Suffix) == 0;
  };
  if (Ends("_ms"))
    return "ms";
  if (Ends("_s"))
    return "s";
  if (Ends("_rps"))
    return "1/s";
  if (Ends("_mb"))
    return "MB";
  if (Ends("_bytes"))
    return "bytes";
  if (Ends("_ratio") || Ends("coverage"))
    return "ratio";
  return "count";
}

std::string num(double V) {
  std::ostringstream OS;
  OS.precision(17);
  OS << V;
  return OS.str();
}

/// Set-up runs at least MinSetups times and until SetupSeconds have
/// passed, at most MaxSetups times; setup_s is the median.
constexpr int MinSetups = 7;
constexpr int MaxSetups = 60;
constexpr double SetupSeconds = 1.5;

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    try {
      if (A == "--workload") {
        Cfg.Workload = V;
        HaveWorkload = true;
      } else if (A == "--seed") {
        Cfg.Seed = std::stoull(V);
      } else if (A == "--seconds") {
        Cfg.Seconds = std::stod(V);
      } else if (A == "--trace") {
        Cfg.Trace = V == "1";
      } else if (A == "--root") {
        Cfg.Root = V;
      } else {
        return usage(("unknown option " + A).c_str());
      }
    } catch (const std::exception &) {
      return usage(("bad value for " + A).c_str());
    }
  }
  const WorkloadSpec *Spec = HaveWorkload ? findWorkload(Cfg.Workload) : nullptr;
  if (!Spec)
    return usage("--workload must be oneshot_corpus, scale_generated, "
                 "serve_session or batch_threads");
  if (Cfg.Seconds <= 0)
    return usage("--seconds must be positive");

  fs::path Build = fs::path(Cfg.Root) / ".bench_build";
  fs::path Work = Build / "perfbench-work" /
                  (Cfg.Workload + "-" + std::to_string(::getpid()));
  Cfg.WorkDir = Work.string();
  std::error_code EC;
  fs::remove_all(Work, EC);
  fs::create_directories(Work);

  // The timed run's minimum request count, and when it samples peak RSS:
  // after that many requests, so the sample does not depend on how many
  // more a run gets through.
  const double TailP = Spec->TailPercentile;
  Cfg.MinRequests =
      static_cast<std::size_t>(std::ceil(1000.0 / (100.0 - TailP)));
  std::unique_ptr<Workload> W;
  // One entry per set-up, slowness-corrected as the timed requests are.
  Tally Setups;
  Tally T;
  T.RssAtRequest = Cfg.MinRequests;
  Tally Untraced;
  SpanRecorder Spans;
  try {
    double SetupStart = nowSec();
    for (int K = 0; K < MinSetups || (K < MaxSetups &&
                                      nowSec() - SetupStart < SetupSeconds);
         ++K) {
      W.reset();
      double T0 = nowSec();
      W = Spec->Make();
      W->setup(Cfg);
      Setups.record((nowSec() - T0) * 1e3);
    }
    Setups.finish();
    if (!Cfg.Trace)
      W->run(Cfg, T);
    else
      W->runTraced(Cfg, Untraced, T, Spans);
    T.finish();
    Untraced.finish();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    W.reset();
    fs::remove_all(Work, EC);
    return 1;
  }
  W.reset();
  fs::remove_all(Work, EC);

  std::vector<std::string> Mismatches = Untraced.Mismatches;
  Mismatches.insert(Mismatches.end(), T.Mismatches.begin(),
                    T.Mismatches.end());
  if (!Cfg.Trace && T.RequestMs.size() < Cfg.MinRequests)
    Mismatches.push_back("the timed run made " +
                         std::to_string(T.RequestMs.size()) +
                         " requests, fewer than its minimum " +
                         std::to_string(Cfg.MinRequests));
  bool Correct = Mismatches.empty() && T.Attempted > 0;
  std::uint64_t Attempted = Untraced.Attempted + T.Attempted;
  std::uint64_t Failed = Untraced.Failed + T.Failed;

  std::vector<std::pair<std::string, double>> Metrics;
  std::ostringstream Report;
  Report << "# perfbench workload=" << Cfg.Workload << " seed=" << Cfg.Seed
         << " seconds=" << Cfg.Seconds << " trace=" << Cfg.Trace
         << " nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN)
         << " meta=" << csdf::bench::benchMetaJson() << "\n";
  Report << "# " << Setups.RequestMs.size() << " set-ups (s, raw):";
  for (double Ms : Setups.RequestMs)
    Report << " " << num(Ms / 1e3);
  Report << "\n";
  if (!Cfg.Trace) {
    std::vector<double> Lat = T.latencies();
    const double P = TailP;
    double Busy = T.busySec();
    Metrics = {
        {"setup_s", percentile(Setups.latencies(), 50) / 1e3},
        {"throughput_rps",
         Busy > 0 ? static_cast<double>(T.completed()) / Busy : 0},
        {"latency_p50_ms", percentile(Lat, 50)},
        {"latency_tail_ms", percentile(Lat, P)},
        {"decided_ratio", T.DecidedOf ? static_cast<double>(T.Decided) /
                                            static_cast<double>(T.DecidedOf)
                                      : 0},
        {"peak_rss_mb", T.PeakRssMb},
    };
    Report << "# latency_tail_ms is p" << P << " over "
           << T.RequestMs.size() << " requests (minimum "
           << Cfg.MinRequests << ", "
           << static_cast<std::size_t>(
                  static_cast<double>(T.RequestMs.size()) * (100 - P) / 100)
           << " beyond it), " << Lat.size() << " latency samples\n";
    std::vector<double> Raw;
    for (std::size_t I = 0; I < T.RequestMs.size(); ++I)
      Raw.insert(Raw.end(), T.Units[I], T.RequestMs[I]);
    Report << "# raw (uncorrected): throughput_rps = "
           << num(static_cast<double>(T.completed()) / T.rawBusySec())
           << ", latency_p50_ms = " << num(percentile(Raw, 50))
           << ", latency_tail_ms = " << num(percentile(Raw, P))
           << "; host slowness p50 = " << num(percentile(T.Slowness, 50))
           << " over " << T.Slowness.size() << " requests\n";
    Report << "# failed_ratio = "
           << num(Attempted ? static_cast<double>(Failed) /
                                  static_cast<double>(Attempted)
                            : 0)
           << " (" << Failed << " of " << Attempted << ")\n";
    for (const char *Tier : {"hit", "miss", "edit"}) {
      std::vector<double> In = T.latencies(Tier);
      if (!In.empty())
        Report << "# " << Tier << "_p50_ms = " << num(percentile(In, 50))
               << " over " << In.size() << " requests\n";
    }
  } else {
    // Every traced request has an untraced twin.
    T.Layers["trace.overhead_ratio"] =
        Untraced.rawBusySec() > 0 ? T.rawBusySec() / Untraced.rawBusySec()
                                  : 0;
    if (Cfg.Workload != "serve_session") {
      T.Layers["miss_p50_ms"] = percentile(Untraced.latencies(), 50);
    } else {
      for (const char *Tier : {"hit", "miss", "edit"})
        T.Layers[std::string(Tier) + "_p50_ms"] =
            percentile(Untraced.latencies(Tier), 50);
    }
    for (const std::string &Name : layerMetricNames())
      Metrics.push_back({Name, T.Layers.count(Name) ? T.Layers[Name] : 0.0});
    fs::path Traces = Build / "perfbench-traces";
    fs::create_directories(Traces, EC);
    fs::path Out = Traces / (Cfg.Workload + "-seed" +
                             std::to_string(Cfg.Seed) + ".jsonl");
    if (!Spans.write(Out.string()))
      std::fprintf(stderr, "warning: cannot write %s\n", Out.c_str());
    Report << "# " << Spans.requests() << " traced requests, spans in "
           << Out.string() << "\n";
  }
  for (const std::string &Note : T.Notes)
    Report << "# " << Note << "\n";
  for (const std::string &M : Mismatches)
    Report << "# MISMATCH " << M << "\n";
  for (const auto &[Name, Value] : Metrics)
    Report << "# " << Name << " = " << num(Value) << " " << unitOf(Name)
           << "\n";

  std::ostringstream Json;
  Json << "{\"correct\": " << (Correct ? "true" : "false")
       << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
       << ", \"metrics\": {";
  for (std::size_t I = 0; I < Metrics.size(); ++I)
    Json << (I ? ", " : "") << "\"" << Metrics[I].first
         << "\": {\"value\": " << num(Metrics[I].second) << ", \"unit\": \""
         << unitOf(Metrics[I].first) << "\"}";
  Json << "}}";
  std::cout << Report.str() << Json.str() << std::endl;
  return Correct ? 0 : 1;
}
