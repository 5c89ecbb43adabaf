//===- perfbench/Bench.h - Shared types of the benchmark of record --------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the run configuration, the
/// per-run tallies a workload fills in, and the Workload interface the
/// loop in main.cpp calls (setup, an untimed-checked timed loop, and a
/// traced loop for the per-layer profile).
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PERFBENCH_BENCH_H
#define CSDF_PERFBENCH_BENCH_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder;

struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Root of the checkout (holds examples/ and tests/).
  std::string Root = ".";
  /// Scratch directory of this process, under the checkout's build dir.
  std::string WorkDir;
  /// Requests the untraced timed run makes at least, even past Seconds:
  /// enough for ten beyond the workload's tail percentile.
  std::size_t MinRequests = 0;
};

inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The speed probe is a fixed allocation- and cache-heavy kernel that
/// shares no code or memory with csdf; one run takes about ProbeNominalMs
/// on a 2.1 GHz Xeon core.
inline constexpr double ProbeNominalMs = 0.8;

/// Host slowness right now: the median of three probe runs over
/// ProbeNominalMs, averaged over \p Threads concurrent probe threads (as
/// many as the workload keeps busy).
double slowness(unsigned Threads = 1);

/// What one run measured.
///
/// The benchmark's hosts are shared, and their speed drifts by up to 2x
/// over seconds. Every ~50 ms of requests the speed probe runs (outside
/// the timed sections); when the loop ends, each request is stamped with
/// the median host slowness of the probes within half a second of it. The
/// bounded end-to-end times are divided by it: they read as on a host
/// where the probe takes ProbeNominalMs. Raw times stay available for the
/// report.
struct Tally {
  std::uint64_t Attempted = 0;
  /// Internal error, budget trip, wire error or IO error.
  std::uint64_t Failed = 0;
  /// Programs that reached a `complete` verdict, out of DecidedOf.
  std::uint64_t Decided = 0;
  std::uint64_t DecidedOf = 0;
  /// Per request, in issue order: raw wall in ms, units of work it
  /// completed (files, for a batch), its serve tier ("hit", "miss",
  /// "edit"; empty elsewhere) and the host slowness stamped on it.
  std::vector<double> RequestMs;
  std::vector<std::size_t> Units;
  std::vector<std::string> Tier;
  std::vector<double> Slowness;
  /// Correctness-gate mismatches (empty = correct).
  std::vector<std::string> Mismatches;
  /// Per-layer metrics (trace mode).
  std::map<std::string, double> Layers;
  /// Extra human-readable report lines.
  std::vector<std::string> Notes;
  /// Threads the speed probe runs on: the worker threads the workload
  /// keeps busy; 0 turns the probe off (set-up warm-ups).
  unsigned ProbeThreads = 1;
  /// Peak RSS of the process when the RssAtRequest-th request was
  /// recorded (0 until then): a fixed amount of work, however fast.
  std::size_t RssAtRequest = 0;
  double PeakRssMb = 0;

  /// Records one closed-loop request; may run the speed probe.
  void record(double Ms, std::size_t Done = 1, std::string InTier = "");
  /// Stamps every request with its slowness; call when the loop ends.
  void finish();

  std::uint64_t completed() const;
  double rawBusySec() const;
  /// Slowness-corrected busy seconds and per-unit latencies (every unit
  /// of a request shares its latency), optionally of one tier only.
  double busySec() const;
  std::vector<double> latencies(const std::string &OnlyTier = "") const;

  void mismatch(std::string What) {
    if (Mismatches.size() < 20)
      Mismatches.push_back(std::move(What));
    else if (Mismatches.size() == 20)
      Mismatches.push_back("... further mismatches elided");
  }

private:
  struct ProbeSample {
    double At;
    double Slowness;
    /// Requests recorded before this probe.
    std::size_t Requests;
  };
  void probe();

  std::vector<ProbeSample> Probes;
  /// Request time since the last probe.
  double SliceMs = 0;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Generates inputs, validates them, builds the system under test and
  /// warms it up. Timed as setup_s.
  virtual void setup(const RunConfig &Cfg) = 0;
  /// Closed-loop timed run with correctness checks outside the timed
  /// sections, until Cfg.Seconds of wall time have passed, at least
  /// Cfg.MinRequests requests are recorded and, for the workloads that
  /// visit a pool in rounds, the round is complete.
  virtual void run(const RunConfig &Cfg, Tally &T) = 0;
  /// The same traffic, each request issued twice, untraced into \p U and
  /// with a span per layer boundary into \p T, alternating which goes
  /// first so the pair sees the same conditions. Fills T.Layers (except
  /// what main.cpp derives from the pair: trace.overhead_ratio and the
  /// latency tiers).
  virtual void runTraced(const RunConfig &Cfg, Tally &U, Tally &T,
                         SpanRecorder &Spans) = 0;
};

std::unique_ptr<Workload> makeOneshotCorpus();
std::unique_ptr<Workload> makeScaleGenerated();
std::unique_ptr<Workload> makeServeSession();
std::unique_ptr<Workload> makeBatchThreads();

/// Reads a whole file; false when it is missing or unreadable.
bool readFile(const std::string &Path, std::string &Out);

/// The wall_ms member is the one per-run field of a verdict object;
/// zero it so two runs' verdict bytes can be compared.
std::string normalizeVerdict(std::string Verdict);

/// The "verdict" member of a verdict object ("complete", ...).
std::string verdictOf(const std::string &VerdictJson);

/// True for the verdicts failed_ratio counts: internal or usage errors,
/// crashes, timeouts and resource-budget trips (not precision give-ups).
bool failedVerdict(const std::string &Verdict);

/// Linear-interpolated percentile \p P (0-100) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);

} // namespace perfbench

#endif // CSDF_PERFBENCH_BENCH_H
