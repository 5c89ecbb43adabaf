//===- tests/numeric/MemoSnapshotTest.cpp ---------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// ClosureMemo snapshots: serialize -> adopt round trip, the all-or-nothing
// rejection discipline (salt mismatch, truncation, bit flips, trailing
// garbage, a nonzero backend byte, a pre-image that is not n*n of its
// closed matrix each reject the whole file with nothing inserted), a
// table of hand-framed payloads that only the payload decoder can reject,
// the on-disk save/load path including quarantine of corrupt files, and a
// restart over every example program: a fresh analyzer that adopts the
// first one's snapshot reaches the same verdict with every closure served
// from the adopted entries.
//
//===----------------------------------------------------------------------===//

#include "numeric/MemoSnapshot.h"

#include "api/Csdf.h"
#include "support/Stats.h"
#include "support/Store.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <string>
#include <vector>

using namespace csdf;
namespace fs = std::filesystem;

namespace {

/// Builds a closed block the way the engine leaves them: matrix filled,
/// Closed, EverClosed, Feasible as given.
std::shared_ptr<DbmShared> makeBlock(unsigned N, std::int64_t Seed,
                                     bool Feasible) {
  auto Block = std::make_shared<DbmShared>();
  Block->M.resize(N);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      Block->M.set(I, J,
                   I == J ? 0 : Seed + static_cast<std::int64_t>(I) * N + J);
  Block->Closed = true;
  Block->Feasible = Feasible;
  Block->EverClosed = true;
  return Block;
}

/// The pre-image the memo keys an entry on: any n*n vector works, the
/// memo compares it byte-for-byte.
std::vector<std::int64_t> makePre(unsigned N, std::int64_t Seed) {
  std::vector<std::int64_t> Pre(static_cast<std::size_t>(N) * N);
  for (std::size_t I = 0; I < Pre.size(); ++I)
    Pre[I] = Seed - static_cast<std::int64_t>(I);
  return Pre;
}

/// Fills \p Memo with a few representative entries: two matrix sizes, an
/// infeasible block, and two entries sharing a key (the memo is a
/// multimap). Fill-in-place because ClosureMemo owns a mutex and cannot
/// be moved.
void fillMemo(ClosureMemo &Memo) {
  Memo.insert(11, makePre(3, 100), makeBlock(3, 100, /*Feasible=*/true));
  Memo.insert(11, makePre(3, 200), makeBlock(3, 200, /*Feasible=*/true));
  Memo.insert(22, makePre(4, 300), makeBlock(4, 300, /*Feasible=*/false));
}

void expectAdoptedEquals(const ClosureMemo &Memo) {
  EXPECT_EQ(Memo.size(), 3u);
  std::shared_ptr<DbmShared> B1 = Memo.lookup(11, makePre(3, 100));
  ASSERT_NE(B1, nullptr);
  EXPECT_TRUE(B1->Closed);
  EXPECT_TRUE(B1->EverClosed);
  EXPECT_TRUE(B1->Feasible);
  ASSERT_EQ(B1->M.size(), 3u);
  EXPECT_EQ(B1->M.get(0, 0), 0);
  EXPECT_EQ(B1->M.get(1, 2), 100 + 1 * 3 + 2);

  std::shared_ptr<DbmShared> B2 = Memo.lookup(11, makePre(3, 200));
  ASSERT_NE(B2, nullptr);
  EXPECT_EQ(B2->M.get(2, 1), 200 + 2 * 3 + 1);

  std::shared_ptr<DbmShared> B3 = Memo.lookup(22, makePre(4, 300));
  ASSERT_NE(B3, nullptr);
  EXPECT_FALSE(B3->Feasible);
  ASSERT_EQ(B3->M.size(), 4u);
  EXPECT_EQ(B3->M.get(3, 0), 300 + 3 * 4 + 0);
}

TEST(MemoSnapshotTest, SerializeAdoptRoundTrip) {
  ClosureMemo Memo(/*CrossSession=*/true);
  fillMemo(Memo);
  MemoSnapshotStats SaveStats;
  std::string Bytes = serializeClosureMemo(Memo, "salt-a", SaveStats);
  EXPECT_EQ(SaveStats.Saved, 3u);

  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats AdoptStats;
  ASSERT_TRUE(adoptClosureMemo(Bytes, "salt-a", Fresh, AdoptStats));
  EXPECT_EQ(AdoptStats.Adopted, 3u);
  EXPECT_EQ(AdoptStats.Rejected, 0u);
  expectAdoptedEquals(Fresh);
}

TEST(MemoSnapshotTest, EmptyMemoRoundTrips) {
  ClosureMemo Empty(/*CrossSession=*/true);
  MemoSnapshotStats Stats;
  std::string Bytes = serializeClosureMemo(Empty, "s", Stats);
  ClosureMemo Fresh(/*CrossSession=*/true);
  EXPECT_TRUE(adoptClosureMemo(Bytes, "s", Fresh, Stats));
  EXPECT_EQ(Fresh.size(), 0u);
}

TEST(MemoSnapshotTest, SaltMismatchRejectsEverything) {
  ClosureMemo Memo(/*CrossSession=*/true);
  fillMemo(Memo);
  MemoSnapshotStats Stats;
  std::string Bytes = serializeClosureMemo(Memo, "build-0.7.0", Stats);

  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats AdoptStats;
  EXPECT_FALSE(adoptClosureMemo(Bytes, "build-0.8.0", Fresh, AdoptStats));
  EXPECT_EQ(AdoptStats.Rejected, 1u);
  EXPECT_EQ(AdoptStats.Adopted, 0u);
  EXPECT_EQ(Fresh.size(), 0u);
}

TEST(MemoSnapshotTest, TruncationRejectsWholeFileNothingInserted) {
  ClosureMemo Memo(/*CrossSession=*/true);
  fillMemo(Memo);
  MemoSnapshotStats Stats;
  std::string Bytes = serializeClosureMemo(Memo, "s", Stats);

  // Every proper prefix must reject in full — never adopt the entries
  // that happened to decode before the cliff.
  for (std::size_t Cut : {Bytes.size() - 1, Bytes.size() / 2,
                          Bytes.size() / 4, std::size_t(5)}) {
    ClosureMemo Fresh(/*CrossSession=*/true);
    MemoSnapshotStats AdoptStats;
    EXPECT_FALSE(
        adoptClosureMemo(Bytes.substr(0, Cut), "s", Fresh, AdoptStats))
        << "cut at " << Cut;
    EXPECT_EQ(Fresh.size(), 0u) << "cut at " << Cut;
  }
}

TEST(MemoSnapshotTest, BitFlipRejects) {
  ClosureMemo Memo(/*CrossSession=*/true);
  fillMemo(Memo);
  MemoSnapshotStats Stats;
  std::string Bytes = serializeClosureMemo(Memo, "s", Stats);

  // The frame checksums key + payload, so any payload flip fails the
  // frame check before the decoder even runs.
  for (std::size_t Pos : {Bytes.size() / 3, Bytes.size() - 2}) {
    std::string Bad = Bytes;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x40);
    ClosureMemo Fresh(/*CrossSession=*/true);
    MemoSnapshotStats AdoptStats;
    EXPECT_FALSE(adoptClosureMemo(Bad, "s", Fresh, AdoptStats))
        << "flip at " << Pos;
    EXPECT_EQ(Fresh.size(), 0u);
  }
}

TEST(MemoSnapshotTest, TrailingGarbageRejects) {
  // Garbage inside the frame's payload (the frame records its own
  // lengths, so bytes appended after a valid record also fail).
  ClosureMemo Memo(/*CrossSession=*/true);
  fillMemo(Memo);
  MemoSnapshotStats Stats;
  std::string Bytes = serializeClosureMemo(Memo, "s", Stats) + "extra";
  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats AdoptStats;
  EXPECT_FALSE(adoptClosureMemo(Bytes, "s", Fresh, AdoptStats));
  EXPECT_EQ(Fresh.size(), 0u);
}

/// The snapshot's framed-record key for \p Salt (see recordKey in
/// numeric/MemoSnapshot.cpp): records framed with it pass the frame and
/// salt checks, so only the payload decoder can reject them.
std::string snapshotKey(const std::string &Salt) {
  return "closure-memo\n" + Salt;
}

void putU32(std::string &Out, std::uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Out, std::uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// One entry's bytes. The declared lengths (\p PreLen, \p N) and the
/// number of values actually written (\p PreValues, \p Bounds) are
/// separate so malformed entries can lie about their own size.
std::string entryBytes(std::uint8_t Backend, std::uint32_t PreLen,
                       unsigned PreValues, std::uint32_t N,
                       unsigned Bounds) {
  std::string P;
  putU64(P, 77); // fingerprint key
  P.push_back(static_cast<char>(Backend));
  P.push_back(1); // feasible
  putU32(P, PreLen);
  for (unsigned I = 0; I < PreValues; ++I)
    putU64(P, I);
  putU32(P, N);
  for (unsigned I = 0; I < Bounds; ++I)
    putU64(P, I % (N + 1) == 0 ? 0 : 5);
  return P;
}

/// A well-formed entry: backend 0, an N x N pre-image over an N x N
/// closed matrix.
std::string squareEntry(unsigned N) {
  return entryBytes(0, N * N, N * N, N, N * N);
}

/// A payload header (format version, entry count) followed by \p Entries.
std::string payload(std::uint32_t Version, std::uint32_t Count,
                    const std::string &Entries) {
  std::string P;
  putU32(P, Version);
  putU32(P, Count);
  return P + Entries;
}

/// A one-entry version-1 payload with the backend byte 0, a PreN x PreN
/// pre-image and an N x N closed matrix.
std::string oneEntryPayload(unsigned PreN, unsigned N) {
  return payload(MemoSnapshotFormatVersion, 1,
                 entryBytes(0, PreN * PreN, PreN * PreN, N, N * N));
}

TEST(MemoSnapshotTest, PreImageLongerThanClosedMatrixRejects) {
  // Control: the hand-framed record is well formed when the pre-image is
  // the n*n image of its closed matrix.
  {
    ClosureMemo Fresh(/*CrossSession=*/true);
    MemoSnapshotStats Stats;
    ASSERT_TRUE(adoptClosureMemo(
        frameStoreRecord(snapshotKey("s"), oneEntryPayload(3, 3)), "s",
        Fresh, Stats));
    EXPECT_EQ(Stats.Adopted, 1u);
  }
  // A 3x3 pre-image over a 2x2 closed block: a 3-variable graph matching
  // the pre-image would adopt the block and index it out of bounds.
  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats Stats;
  EXPECT_FALSE(adoptClosureMemo(
      frameStoreRecord(snapshotKey("s"), oneEntryPayload(3, 2)), "s", Fresh,
      Stats));
  EXPECT_EQ(Stats.Rejected, 1u);
  EXPECT_EQ(Stats.Adopted, 0u);
  EXPECT_EQ(Fresh.size(), 0u);
}

TEST(MemoSnapshotTest, NonzeroBackendByteRejects) {
  // Format version 1 still carries a per-entry backend byte; only 0 (the
  // flat array) decodes. Re-frame a real snapshot with the first entry's
  // byte set to 1, the value the retired std::map backend wrote.
  ClosureMemo Memo(/*CrossSession=*/true);
  fillMemo(Memo);
  MemoSnapshotStats Stats;
  std::optional<std::string> Payload = unframeStoreRecord(
      serializeClosureMemo(Memo, "s", Stats), snapshotKey("s"));
  ASSERT_TRUE(Payload.has_value());
  constexpr std::size_t FirstBackendByte = 4 + 4 + 8; // version, count, key
  ASSERT_EQ((*Payload)[FirstBackendByte], 0);
  (*Payload)[FirstBackendByte] = 1;

  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats AdoptStats;
  EXPECT_FALSE(adoptClosureMemo(frameStoreRecord(snapshotKey("s"), *Payload),
                                "s", Fresh, AdoptStats));
  EXPECT_EQ(AdoptStats.Rejected, 1u);
  EXPECT_EQ(AdoptStats.Adopted, 0u);
  EXPECT_EQ(Fresh.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Payload decoder, one rule per case
//===----------------------------------------------------------------------===//

// Every payload below is framed with the right key and salt, so the frame
// checksum passes and only the payload decoder's own bounds and shape
// checks decide. Adopted == -1 means the whole file must be rejected.
struct DecodeCase {
  const char *Name;
  std::string (*Build)();
  int Adopted;
};

const DecodeCase DecodeCases[] = {
    {"EmptyMatrixEntry",
     [] { return payload(MemoSnapshotFormatVersion, 1, squareEntry(0)); }, 1},
    {"OneByOneEntry",
     [] { return payload(MemoSnapshotFormatVersion, 1, squareEntry(1)); }, 1},
    {"TwoEntriesOfDifferentSizes",
     [] {
       return payload(MemoSnapshotFormatVersion, 2,
                      squareEntry(2) + squareEntry(3));
     },
     2},
    {"EmptyPayload", [] { return std::string(); }, -1},
    {"VersionWithoutCount",
     [] {
       std::string P;
       putU32(P, MemoSnapshotFormatVersion);
       return P;
     },
     -1},
    {"FormatVersionZero", [] { return payload(0, 1, squareEntry(2)); }, -1},
    {"FormatVersionTwo",
     [] { return payload(MemoSnapshotFormatVersion + 1, 1, squareEntry(2)); },
     -1},
    {"CountPastLastEntry",
     [] { return payload(MemoSnapshotFormatVersion, 2, squareEntry(2)); }, -1},
    {"EntryPastCount",
     [] {
       return payload(MemoSnapshotFormatVersion, 1,
                      squareEntry(2) + squareEntry(2));
     },
     -1},
    {"OneTrailingByte",
     [] {
       return payload(MemoSnapshotFormatVersion, 1, squareEntry(2)) +
              std::string(1, '\0');
     },
     -1},
    {"EntryHeaderCut",
     [] {
       return payload(MemoSnapshotFormatVersion, 1,
                      squareEntry(2).substr(0, 8)); // the key only
     },
     -1},
    {"BackendByteTwo",
     [] {
       return payload(MemoSnapshotFormatVersion, 1, entryBytes(2, 4, 4, 2, 4));
     },
     -1},
    {"BackendByteAllOnes",
     [] {
       return payload(MemoSnapshotFormatVersion, 1,
                      entryBytes(0xff, 4, 4, 2, 4));
     },
     -1},
    {"PreImageLengthPastBuffer",
     [] {
       return payload(MemoSnapshotFormatVersion, 1,
                      entryBytes(0, 1000, 2, 2, 4));
     },
     -1},
    {"PreImageShorterThanClosedMatrix",
     [] {
       return payload(MemoSnapshotFormatVersion, 1, entryBytes(0, 4, 4, 3, 9));
     },
     -1},
    {"PreImageNotSquareOfClosedMatrix",
     [] {
       return payload(MemoSnapshotFormatVersion, 1, entryBytes(0, 5, 5, 2, 4));
     },
     -1},
    {"ClosedSizeMissing",
     [] {
       // key, backend, feasible, pre-image length, 2x2 pre-image.
       return payload(MemoSnapshotFormatVersion, 1,
                      squareEntry(2).substr(0, 8 + 1 + 1 + 4 + 4 * 8));
     },
     -1},
    {"ClosedBoundsCut",
     [] {
       return payload(MemoSnapshotFormatVersion, 1, entryBytes(0, 9, 9, 3, 8));
     },
     -1},
};

class MemoSnapshotDecodeTest : public ::testing::TestWithParam<DecodeCase> {};

TEST_P(MemoSnapshotDecodeTest, AdoptsAllOrNothing) {
  const DecodeCase &C = GetParam();
  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats Stats;
  bool Ok = adoptClosureMemo(frameStoreRecord(snapshotKey("s"), C.Build()),
                             "s", Fresh, Stats);
  if (C.Adopted < 0) {
    EXPECT_FALSE(Ok);
    EXPECT_EQ(Stats.Rejected, 1u);
    EXPECT_EQ(Stats.Adopted, 0u);
    EXPECT_EQ(Fresh.size(), 0u);
    return;
  }
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Stats.Rejected, 0u);
  EXPECT_EQ(Stats.Adopted, static_cast<std::uint64_t>(C.Adopted));
  EXPECT_EQ(Fresh.size(), static_cast<std::size_t>(C.Adopted));
}

INSTANTIATE_TEST_SUITE_P(
    Payloads, MemoSnapshotDecodeTest, ::testing::ValuesIn(DecodeCases),
    [](const ::testing::TestParamInfo<DecodeCase> &Info) {
      return std::string(Info.param.Name);
    });

TEST(MemoSnapshotTest, GarbageBytesReject) {
  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats Stats;
  EXPECT_FALSE(adoptClosureMemo("not a snapshot", "s", Fresh, Stats));
  EXPECT_FALSE(adoptClosureMemo("", "s", Fresh, Stats));
  EXPECT_EQ(Fresh.size(), 0u);
  EXPECT_EQ(Stats.Rejected, 2u);
}

TEST(MemoSnapshotTest, SaveLoadRoundTripOnDisk) {
  fs::path Dir = fs::temp_directory_path() /
                 ("csdf-memosnap-" + std::to_string(::getpid()));
  fs::remove_all(Dir);

  ClosureMemo Memo(/*CrossSession=*/true);
  fillMemo(Memo);
  MemoSnapshotStats SaveStats;
  std::string Error;
  ASSERT_TRUE(
      saveMemoSnapshot(Dir.string(), "v", Memo, SaveStats, Error))
      << Error;
  EXPECT_EQ(SaveStats.Saved, 3u);
  EXPECT_TRUE(fs::exists(Dir / "closure-memo.snap"));

  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats LoadStats;
  EXPECT_TRUE(loadMemoSnapshot(Dir.string(), "v", Fresh, LoadStats));
  EXPECT_EQ(LoadStats.Adopted, 3u);
  expectAdoptedEquals(Fresh);

  fs::remove_all(Dir);
}

TEST(MemoSnapshotTest, MissingFileIsNotAnError) {
  fs::path Dir = fs::temp_directory_path() /
                 ("csdf-memosnap-missing-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats Stats;
  EXPECT_TRUE(loadMemoSnapshot(Dir.string(), "v", Fresh, Stats));
  EXPECT_EQ(Stats.Adopted, 0u);
  EXPECT_EQ(Stats.Rejected, 0u);
}

TEST(MemoSnapshotTest, CorruptFileIsQuarantined) {
  fs::path Dir = fs::temp_directory_path() /
                 ("csdf-memosnap-quar-" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  {
    std::ofstream Out(Dir / "closure-memo.snap", std::ios::binary);
    Out << "garbage that is definitely not a framed record";
  }

  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats Stats;
  EXPECT_FALSE(loadMemoSnapshot(Dir.string(), "v", Fresh, Stats));
  EXPECT_EQ(Stats.Rejected, 1u);
  EXPECT_EQ(Stats.Quarantined, 1u);
  EXPECT_EQ(Fresh.size(), 0u);
  // The corrupt bytes moved aside: a subsequent boot is a clean first
  // boot, not a rejection loop.
  EXPECT_FALSE(fs::exists(Dir / "closure-memo.snap"));
  EXPECT_TRUE(fs::exists(Dir / "quarantine" / "closure-memo.snap"));
  ClosureMemo Again(/*CrossSession=*/true);
  MemoSnapshotStats AgainStats;
  EXPECT_TRUE(loadMemoSnapshot(Dir.string(), "v", Again, AgainStats));

  fs::remove_all(Dir);
}

TEST(MemoSnapshotTest, StaleSaltOnDiskIsQuarantined) {
  fs::path Dir = fs::temp_directory_path() /
                 ("csdf-memosnap-salt-" + std::to_string(::getpid()));
  fs::remove_all(Dir);

  ClosureMemo Memo(/*CrossSession=*/true);
  fillMemo(Memo);
  MemoSnapshotStats SaveStats;
  std::string Error;
  ASSERT_TRUE(
      saveMemoSnapshot(Dir.string(), "old-build", Memo, SaveStats, Error));

  // The "upgraded" daemon opens the same dir with its own salt: the old
  // snapshot must be quarantined, never adopted.
  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats Stats;
  EXPECT_FALSE(loadMemoSnapshot(Dir.string(), "new-build", Fresh, Stats));
  EXPECT_EQ(Stats.Quarantined, 1u);
  EXPECT_EQ(Fresh.size(), 0u);
  EXPECT_TRUE(fs::exists(Dir / "quarantine" / "closure-memo.snap"));

  fs::remove_all(Dir);
}

TEST(MemoSnapshotTest, SaveOverwritesAtomically) {
  fs::path Dir = fs::temp_directory_path() /
                 ("csdf-memosnap-over-" + std::to_string(::getpid()));
  fs::remove_all(Dir);

  ClosureMemo First(/*CrossSession=*/true);
  First.insert(1, makePre(2, 10), makeBlock(2, 10, true));
  MemoSnapshotStats Stats;
  std::string Error;
  ASSERT_TRUE(saveMemoSnapshot(Dir.string(), "v", First, Stats, Error));

  ClosureMemo Second(/*CrossSession=*/true);
  fillMemo(Second);
  ASSERT_TRUE(saveMemoSnapshot(Dir.string(), "v", Second, Stats, Error));

  // No temp litter left behind, and the newest snapshot wins.
  unsigned Files = 0;
  for (const auto &Ent : fs::directory_iterator(Dir))
    if (Ent.is_regular_file())
      ++Files;
  EXPECT_EQ(Files, 1u);
  ClosureMemo Fresh(/*CrossSession=*/true);
  MemoSnapshotStats LoadStats;
  EXPECT_TRUE(loadMemoSnapshot(Dir.string(), "v", Fresh, LoadStats));
  EXPECT_EQ(Fresh.size(), 3u);

  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Restart over the example corpus
//===----------------------------------------------------------------------===//

/// Stems of every examples/mpl program, sorted.
std::vector<std::string> corpusExamples() {
  std::vector<std::string> Stems;
  for (const auto &Ent : fs::directory_iterator(CSDF_EXAMPLES_DIR))
    if (Ent.path().extension() == ".mpl")
      Stems.push_back(Ent.path().stem().string());
  std::sort(Stems.begin(), Stems.end());
  return Stems;
}

std::string maskWallMs(const std::string &Json) {
  return std::regex_replace(Json, std::regex("\"wall_ms\": \\d+"),
                            "\"wall_ms\": 0");
}

struct ClosureCounters {
  std::int64_t Hits;
  std::int64_t Misses;
};

ClosureCounters closureCounters() {
  const StatsRegistry &G = StatsRegistry::global();
  return {G.counter("cg.closure.memo.hits"),
          G.counter("cg.closure.memo.misses")};
}

// What `csdf serve --memo-dir` does across a restart: one analyzer
// analyzes a program, its memo is snapshotted, and a fresh analyzer (new
// symbol table, empty memo) adopts the snapshot before analyzing the same
// program. The verdict must not change, and every closure the first run
// computed must be served from the adopted entries. The runs fix np: the
// np = const equality makes the initial graph's first closure a full
// (memoized) one, where a symbolic np's single lower bound is repaired
// incrementally and never reaches the memo.
class MemoSnapshotCorpusTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(MemoSnapshotCorpusTest, RestartReplaysEveryClosure) {
  api::AnalyzeRequest Req;
  Req.Path = std::string(CSDF_EXAMPLES_DIR) + "/" + GetParam() + ".mpl";
  Req.Options.FixedNp = 4;

  api::Analyzer First(api::AnalyzerConfig::warm());
  ClosureCounters C0 = closureCounters();
  api::AnalyzeResponse R1 = First.analyze(Req);
  ClosureCounters C1 = closureCounters();
  MemoSnapshotStats SaveStats;
  std::string Bytes =
      serializeClosureMemo(*First.closureMemo(), "v", SaveStats);
  // Each miss inserted one entry; the memo never overflowed and cleared.
  ASSERT_EQ(SaveStats.Saved,
            static_cast<std::uint64_t>(C1.Misses - C0.Misses));
  ASSERT_GT(SaveStats.Saved, 0u) << "no memoized closure: nothing to replay";

  api::Analyzer Restarted(api::AnalyzerConfig::warm());
  MemoSnapshotStats AdoptStats;
  ASSERT_TRUE(
      adoptClosureMemo(Bytes, "v", *Restarted.closureMemo(), AdoptStats));
  EXPECT_EQ(AdoptStats.Adopted, SaveStats.Saved);
  api::AnalyzeResponse R2 = Restarted.analyze(Req);
  ClosureCounters C2 = closureCounters();

  EXPECT_EQ(maskWallMs(api::verdictJson(Req.Path, R2)),
            maskWallMs(api::verdictJson(Req.Path, R1)));
  EXPECT_EQ(C2.Misses - C1.Misses, 0);
  EXPECT_EQ(C2.Hits - C1.Hits, (C1.Hits - C0.Hits) + (C1.Misses - C0.Misses));
}

INSTANTIATE_TEST_SUITE_P(
    Examples, MemoSnapshotCorpusTest, ::testing::ValuesIn(corpusExamples()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

} // namespace
