//===- perfbench/Common.cpp -----------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <memory_resource>
#include <sstream>
#include <thread>

using namespace perfbench;

bool perfbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

std::string perfbench::normalizeVerdict(std::string Verdict) {
  const std::string Key = "\"wall_ms\": ";
  std::size_t At = Verdict.find(Key);
  if (At == std::string::npos)
    return Verdict;
  std::size_t From = At + Key.size();
  std::size_t To = Verdict.find_first_not_of("0123456789", From);
  Verdict.replace(From, To - From, "0");
  return Verdict;
}

std::string perfbench::verdictOf(const std::string &VerdictJson) {
  const std::string Key = "\"verdict\": \"";
  std::size_t At = VerdictJson.find(Key);
  if (At == std::string::npos)
    return "";
  At += Key.size();
  return VerdictJson.substr(At, VerdictJson.find('"', At) - At);
}

bool perfbench::failedVerdict(const std::string &Verdict) {
  for (const char *Bad : {"internal-error", "usage-error", "timeout", "crash",
                          "(deadline)", "(memory)", "(prover-steps)"})
    if (Verdict.find(Bad) != std::string::npos)
      return true;
  return false;
}

namespace {

/// What one probe thread reads and allocates from, owned by the probe:
/// an 8 MB table and an arena, so the state of csdf's heap (how full, how
/// fragmented) does not change the probe's cost.
struct ProbeMemory {
  std::vector<std::uint32_t> Table = std::vector<std::uint32_t>(1u << 21);
  std::vector<std::byte> Arena = std::vector<std::byte>(2u << 20);
};

/// One run of the speed probe, in ms: node-based containers, small
/// strings and random reads over an 8 MB table, the access mix csdf's
/// engine has, without its code. The containers allocate from the
/// probe's arena; running out of it throws.
double probeMs(ProbeMemory &M) {
  static thread_local std::uint64_t Sink = 0;
  double T0 = nowSec();
  std::pmr::monotonic_buffer_resource Pool(M.Arena.data(), M.Arena.size(),
                                           std::pmr::null_memory_resource());
  std::uint32_t X = 777;
  std::pmr::map<std::pmr::string, std::uint32_t> Names(&Pool);
  std::pmr::vector<std::pmr::vector<int>> Rows(&Pool);
  std::pmr::string Key(&Pool);
  for (int I = 0; I < 1500; ++I) {
    X = X * 1103515245u + 12345u;
    Key = "k";
    Key += std::to_string(X % 4000);
    Names[Key] += static_cast<std::uint32_t>(I);
    Rows.emplace_back(8 + X % 16, I);
  }
  std::vector<std::uint32_t> &Table = M.Table;
  for (int I = 0; I < 40000; ++I) {
    X = X * 1103515245u + 12345u;
    Sink += Table[X & (Table.size() - 1)]++;
  }
  Sink += Names.size() + Rows.size();
  return (nowSec() - T0) * 1e3;
}

double medianOfThree(ProbeMemory &M) {
  double R[] = {probeMs(M), probeMs(M), probeMs(M)};
  std::sort(std::begin(R), std::end(R));
  return R[1];
}

} // namespace

double perfbench::slowness(unsigned Threads) {
  // One table and arena per probe thread, allocated and touched once, by
  // the calling thread, before any probe thread starts.
  static std::vector<ProbeMemory> Memory;
  if (Memory.size() < Threads)
    Memory.resize(Threads);
  std::vector<double> Ms(Threads);
  std::vector<std::thread> Crew;
  for (unsigned I = 1; I < Threads; ++I)
    Crew.emplace_back([&Ms, I] { Ms[I] = medianOfThree(Memory[I]); });
  Ms[0] = medianOfThree(Memory[0]);
  for (std::thread &T : Crew)
    T.join();
  double Sum = 0;
  for (double M : Ms)
    Sum += M;
  return Sum / Threads / ProbeNominalMs;
}

void Tally::record(double Ms, std::size_t Done, std::string InTier) {
  RequestMs.push_back(Ms);
  if (RequestMs.size() == RssAtRequest) {
    struct rusage RU {};
    getrusage(RUSAGE_SELF, &RU);
    PeakRssMb = static_cast<double>(RU.ru_maxrss) / 1024.0;
  }
  Units.push_back(Done);
  Tier.push_back(std::move(InTier));
  SliceMs += Ms;
  if (SliceMs >= 50 && ProbeThreads)
    probe();
}

void Tally::probe() {
  Probes.push_back({nowSec(), slowness(ProbeThreads), RequestMs.size()});
  SliceMs = 0;
}

void Tally::finish() {
  if (!ProbeThreads)
    return;
  if (Probes.empty() || Probes.back().Requests < RequestMs.size())
    probe();
  // A slice's requests ran between two probes. One probe is noisy (a
  // short kernel right after a long request), while the host's speed
  // drifts over seconds: stamp each slice with the median of the probes
  // within half a second of it.
  constexpr double Window = 0.5;
  Slowness.clear();
  std::size_t Lo = 0, Hi = 0;
  for (const ProbeSample &P : Probes) {
    while (Probes[Lo].At < P.At - Window)
      ++Lo;
    while (Hi < Probes.size() && Probes[Hi].At <= P.At + Window)
      ++Hi;
    std::vector<double> Near;
    for (std::size_t I = Lo; I < Hi; ++I)
      Near.push_back(Probes[I].Slowness);
    Slowness.resize(P.Requests, percentile(Near, 50));
  }
}

std::uint64_t Tally::completed() const {
  std::uint64_t N = 0;
  for (std::size_t U : Units)
    N += U;
  return N;
}

double Tally::rawBusySec() const {
  double Ms = 0;
  for (double R : RequestMs)
    Ms += R;
  return Ms / 1e3;
}

double Tally::busySec() const {
  double Ms = 0;
  for (std::size_t I = 0; I < Slowness.size(); ++I)
    Ms += RequestMs[I] / Slowness[I];
  return Ms / 1e3;
}

std::vector<double> Tally::latencies(const std::string &OnlyTier) const {
  std::vector<double> Out;
  for (std::size_t I = 0; I < Slowness.size(); ++I)
    if (OnlyTier.empty() || Tier[I] == OnlyTier)
      Out.insert(Out.end(), Units[I], RequestMs[I] / Slowness[I]);
  return Out;
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - static_cast<double>(Lo));
}
