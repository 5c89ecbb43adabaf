//===- numeric/MemoSnapshot.cpp -------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "numeric/MemoSnapshot.h"

#include "support/Store.h"

#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace csdf;
namespace fs = std::filesystem;

namespace {

constexpr const char *SnapshotFileName = "closure-memo.snap";

/// The framed record's key: a fixed tag plus the caller's salt, verified
/// byte-for-byte by unframeStoreRecord — a snapshot from a different
/// build (different salt) fails the key check exactly like corruption.
std::string recordKey(const std::string &Salt) {
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

/// Little-endian bounded reader; every take* checks the remaining length
/// so a truncated or hostile payload can never read past the buffer.
struct Reader {
  const std::string &Buf;
  std::size_t Pos = 0;

  bool take(std::size_t N) { return Buf.size() - Pos >= N; }
  bool u32(std::uint32_t &V) {
    if (!take(4))
      return false;
    V = 0;
    for (int I = 3; I >= 0; --I)
      V = (V << 8) | static_cast<unsigned char>(Buf[Pos + I]);
    Pos += 4;
    return true;
  }
  bool u64(std::uint64_t &V) {
    if (!take(8))
      return false;
    V = 0;
    for (int I = 7; I >= 0; --I)
      V = (V << 8) | static_cast<unsigned char>(Buf[Pos + I]);
    Pos += 8;
    return true;
  }
  bool u8(std::uint8_t &V) {
    if (!take(1))
      return false;
    V = static_cast<unsigned char>(Buf[Pos++]);
    return true;
  }
};

void quarantineFile(const std::string &Dir, const std::string &Path,
                    MemoSnapshotStats &Stats) {
  std::error_code Ec;
  fs::path QDir = fs::path(Dir) / "quarantine";
  fs::create_directories(QDir, Ec);
  fs::rename(Path, QDir / fs::path(Path).filename(), Ec);
  if (Ec) // e.g. quarantine dir uncreatable — never adopt the bytes
    fs::remove(Path, Ec);
  ++Stats.Quarantined;
}

} // namespace

std::string csdf::serializeClosureMemo(const ClosureMemo &Memo,
                                       const std::string &Salt,
                                       MemoSnapshotStats &Stats) {
  std::string Payload;
  putU32(Payload, MemoSnapshotFormatVersion);
  std::uint32_t Count = 0;
  std::string Entries;
  Memo.forEach([&](std::uint64_t Key, const std::vector<std::int64_t> &Pre,
                   const DbmShared &Closed) {
    unsigned N = Closed.M.size();
    putU64(Entries, Key);
    Entries.push_back(static_cast<char>(MemoSnapshotBackendByte));
    Entries.push_back(static_cast<char>(Closed.Feasible ? 1 : 0));
    putU32(Entries, static_cast<std::uint32_t>(Pre.size()));
    for (std::int64_t B : Pre)
      putU64(Entries, static_cast<std::uint64_t>(B));
    putU32(Entries, N);
    for (unsigned I = 0; I < N; ++I)
      for (unsigned J = 0; J < N; ++J)
        putU64(Entries,
               static_cast<std::uint64_t>(Closed.M.get(I, J)));
    ++Count;
  });
  putU32(Payload, Count);
  Payload += Entries;
  Stats.Saved = Count;
  return frameStoreRecord(recordKey(Salt), Payload);
}

bool csdf::adoptClosureMemo(const std::string &Bytes,
                            const std::string &Salt, ClosureMemo &Memo,
                            MemoSnapshotStats &Stats) {
  std::optional<std::string> Payload =
      unframeStoreRecord(Bytes, recordKey(Salt));
  if (!Payload) {
    ++Stats.Rejected;
    return false;
  }
  Reader R{*Payload};
  std::uint32_t Version = 0, Count = 0;
  if (!R.u32(Version) || Version != MemoSnapshotFormatVersion ||
      !R.u32(Count)) {
    ++Stats.Rejected;
    return false;
  }

  // Decode everything before inserting anything: a snapshot that fails
  // halfway must contribute nothing, not a prefix.
  struct Decoded {
    std::uint64_t Key;
    bool Feasible;
    std::vector<std::int64_t> Pre;
    unsigned N;
    std::vector<std::int64_t> Bounds;
  };
  std::vector<Decoded> Entries;
  Entries.reserve(Count);
  for (std::uint32_t E = 0; E < Count; ++E) {
    Decoded D;
    std::uint8_t Backend = 0, Feasible = 0;
    std::uint32_t PreLen = 0, N = 0;
    if (!R.u64(D.Key) || !R.u8(Backend) || !R.u8(Feasible) ||
        !R.u32(PreLen) || !R.take(static_cast<std::size_t>(PreLen) * 8)) {
      ++Stats.Rejected;
      return false;
    }
    if (Backend != MemoSnapshotBackendByte) {
      ++Stats.Rejected;
      return false;
    }
    D.Feasible = Feasible != 0;
    D.Pre.reserve(PreLen);
    for (std::uint32_t I = 0; I < PreLen; ++I) {
      std::uint64_t V = 0;
      R.u64(V); // cannot fail: length pre-checked by take() above
      D.Pre.push_back(static_cast<std::int64_t>(V));
    }
    // The pre-image must be the n*n snapshot of the closed matrix: a
    // graph whose own snapshot equals it would otherwise adopt a block
    // with fewer rows and index it out of bounds by its own size.
    if (!R.u32(N) || N > 4096 ||
        PreLen != static_cast<std::uint64_t>(N) * N ||
        !R.take(static_cast<std::size_t>(N) * N * 8)) {
      ++Stats.Rejected;
      return false;
    }
    D.N = N;
    D.Bounds.reserve(static_cast<std::size_t>(N) * N);
    for (std::size_t I = 0; I < static_cast<std::size_t>(N) * N; ++I) {
      std::uint64_t V = 0;
      R.u64(V); // cannot fail: length pre-checked by take() above
      D.Bounds.push_back(static_cast<std::int64_t>(V));
    }
    Entries.push_back(std::move(D));
  }
  if (R.Pos != Payload->size()) { // trailing garbage past the last entry
    ++Stats.Rejected;
    return false;
  }

  for (Decoded &D : Entries) {
    auto Block = std::make_shared<DbmShared>();
    Block->M.resize(D.N);
    for (unsigned I = 0; I < D.N; ++I)
      for (unsigned J = 0; J < D.N; ++J)
        Block->M.set(I, J, D.Bounds[static_cast<std::size_t>(I) * D.N + J]);
    // Adopted blocks are closed by construction (they were snapshots of
    // closed blocks); the closed-shared-block invariant then keeps every
    // later reader from mutating them in place.
    Block->Closed = true;
    Block->Feasible = D.Feasible;
    Block->EverClosed = true;
    Memo.insert(D.Key, std::move(D.Pre), std::move(Block));
    ++Stats.Adopted;
  }
  return true;
}

bool csdf::saveMemoSnapshot(const std::string &Dir, const std::string &Salt,
                            const ClosureMemo &Memo,
                            MemoSnapshotStats &Stats, std::string &Error) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec || !fs::is_directory(Dir)) {
    Error = "cannot open memo directory '" + Dir +
            "': " + (Ec ? Ec.message() : "not a directory");
    return false;
  }

  std::string Rec = serializeClosureMemo(Memo, Salt, Stats);
  std::string Final = Dir + "/" + SnapshotFileName;
  std::string Tmp = Final + ".tmp." + std::to_string(::getpid());
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    Error = "cannot write memo snapshot '" + Tmp + "'";
    return false;
  }
  std::size_t Off = 0;
  bool Ok = true;
  while (Ok && Off < Rec.size()) {
    ssize_t N = ::write(Fd, Rec.data() + Off, Rec.size() - Off);
    if (N <= 0)
      Ok = false;
    else
      Off += static_cast<std::size_t>(N);
  }
  if (Ok)
    Ok = ::fsync(Fd) == 0;
  ::close(Fd);
  if (!Ok || ::rename(Tmp.c_str(), Final.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    Error = "cannot persist memo snapshot '" + Final + "'";
    return false;
  }
  return true;
}

bool csdf::loadMemoSnapshot(const std::string &Dir, const std::string &Salt,
                            ClosureMemo &Memo, MemoSnapshotStats &Stats) {
  std::string Path = Dir + "/" + SnapshotFileName;
  std::ifstream In(Path, std::ios::binary);
  if (!In.is_open())
    return true; // first boot: nothing to adopt, nothing wrong
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  if (adoptClosureMemo(Bytes, Salt, Memo, Stats))
    return true;
  quarantineFile(Dir, Path, Stats);
  return false;
}
