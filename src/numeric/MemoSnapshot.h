//===- numeric/MemoSnapshot.h - Durable ClosureMemo snapshots -------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of a ClosureMemo to one on-disk snapshot file, and
/// adoption of such a snapshot into a fresh memo. This is the *near-miss*
/// half of serve durability: the result store (support/Store.h) answers
/// exact request repeats after a restart, but an edited source still pays
/// every O(n^3) closure cold — even though most of its constraint graphs
/// are identical to the prior revision's. Snapshotting the memo makes a
/// `kill -9` + restart warm for those too: the restarted daemon adopts
/// the saved (pre-image -> closed block) pairs and the paper's dominant
/// cost (92.5% of wall time in closures, Section IX) is amortized across
/// process lifetimes, not just requests.
///
/// Format: one file, `closure-memo.snap`, framed with the store's record
/// container (magic, lengths, FNV-1a checksum over key + payload — see
/// frameStoreRecord). The record key embeds a caller-provided salt (serve
/// passes the tool version), so a snapshot written by one build is
/// rejected — quarantined, never adopted — by another whose closure
/// bytes could legitimately differ. The payload is versioned
/// little-endian binary:
///
///   u32 format version (MemoSnapshotFormatVersion)
///   u32 entry count
///   per entry:
///     u64 fingerprint key        u8 backend (always 0)
///     u8 feasible                u32 pre-image length (n*n)
///     i64[n*n] pre-image         u32 closed matrix size n
///     i64[n*n] closed bounds
///
/// Every decode step is bounds-checked; any violation (truncation, a
/// count past the buffer, a nonzero backend byte, a pre-image that is not
/// the n*n image of its closed matrix) rejects the *whole* file — a
/// snapshot is a cache, and a suspect cache is worth less than no cache.
/// Corrupt files are moved to `<dir>/quarantine/` like the
/// store's records, keeping one corruption story across both artifacts.
///
/// Writes are atomic (temp + fsync + rename) for the same reason the
/// store's are: a crash mid-flush must leave the previous good snapshot,
/// not half of a new one.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_NUMERIC_MEMOSNAPSHOT_H
#define CSDF_NUMERIC_MEMOSNAPSHOT_H

#include "numeric/ConstraintGraph.h"

#include <cstdint>
#include <string>

namespace csdf {

inline constexpr std::uint32_t MemoSnapshotFormatVersion = 1;

/// The per-entry backend byte. Format version 1 once told the flat-array
/// and std::map DBM backends apart; only the flat array remains, so the
/// byte is always 0 and any other value rejects the file. Keeping it
/// lets snapshots written before the map backend was removed still adopt.
inline constexpr std::uint8_t MemoSnapshotBackendByte = 0;

/// Counters for one save or adopt, mirrored into `csdf serve` stats.
struct MemoSnapshotStats {
  /// Entries written by the last save.
  std::uint64_t Saved = 0;
  /// Entries reconstructed and inserted by the last adopt.
  std::uint64_t Adopted = 0;
  /// Adopt attempts rejected wholesale (bad frame, salt mismatch,
  /// unknown format version, truncated payload).
  std::uint64_t Rejected = 0;
  /// Rejected files moved to quarantine/.
  std::uint64_t Quarantined = 0;
};

/// Serializes every entry of \p Memo into a framed snapshot record whose
/// key is salted with \p Salt (the memo itself bounds the entry count).
std::string serializeClosureMemo(const ClosureMemo &Memo,
                                 const std::string &Salt,
                                 MemoSnapshotStats &Stats);

/// Decodes \p Bytes (a framed record as produced by serializeClosureMemo
/// with the same \p Salt) and inserts every entry into \p Memo. Returns
/// false — with nothing inserted — when the record fails any check.
bool adoptClosureMemo(const std::string &Bytes, const std::string &Salt,
                      ClosureMemo &Memo, MemoSnapshotStats &Stats);

/// Atomically writes \p Memo's snapshot to `<Dir>/closure-memo.snap`,
/// creating \p Dir if needed. Returns false with \p Error set on IO
/// failure (never fatal to the caller: the daemon just stays unflushed).
bool saveMemoSnapshot(const std::string &Dir, const std::string &Salt,
                      const ClosureMemo &Memo, MemoSnapshotStats &Stats,
                      std::string &Error);

/// Adopts `<Dir>/closure-memo.snap` into \p Memo if present and valid; a
/// corrupt or mismatched-salt file is moved to `<Dir>/quarantine/` and
/// never adopted. A missing file is not an error (first boot). Returns
/// false only on a rejected file.
bool loadMemoSnapshot(const std::string &Dir, const std::string &Salt,
                      ClosureMemo &Memo, MemoSnapshotStats &Stats);

} // namespace csdf

#endif // CSDF_NUMERIC_MEMOSNAPSHOT_H
