//===- numeric/DbmStorage.cpp ---------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "numeric/DbmStorage.h"

#include "support/Budget.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace csdf;

DbmShared::~DbmShared() {
  if (Accountant && AccountedBytes)
    Accountant->accountBytes(-static_cast<std::int64_t>(AccountedBytes));
}

void DbmShared::reaccount() {
  if (!Accountant)
    Accountant = currentBudget();
  if (!Accountant)
    return;
  std::uint64_t Now = M.byteSize();
  Accountant->accountBytes(static_cast<std::int64_t>(Now) -
                           static_cast<std::int64_t>(AccountedBytes));
  AccountedBytes = Now;
}

void DbmStorage::resize(unsigned NewN) {
  assert(NewN >= N && "DBM storage cannot shrink via resize");
  if (NewN == N)
    return;
  if (NewN > Cap) {
    // Re-layout into a geometrically grown buffer so the engine's
    // one-variable-at-a-time growth costs one fill per variable, not one
    // O(n^2) copy per variable.
    unsigned NewCap = std::max(NewN, Cap ? Cap * 2 : 8u);
    std::vector<std::int64_t, PoolAllocator<std::int64_t>> NewData(
        static_cast<std::size_t>(NewCap) * NewCap, DbmInfinity);
    for (unsigned I = 0; I < N; ++I)
      std::copy_n(Data.data() + static_cast<std::size_t>(I) * Cap, N,
                  NewData.data() + static_cast<std::size_t>(I) * NewCap);
    Data = std::move(NewData);
    Cap = NewCap;
  } else {
    // Within capacity: unconstrain the incoming cells (they may hold
    // stale bounds from an earlier, wider use of this buffer).
    for (unsigned I = 0; I < N; ++I)
      std::fill_n(Data.data() + static_cast<std::size_t>(I) * Cap + N,
                  NewN - N, DbmInfinity);
    for (unsigned I = N; I < NewN; ++I)
      std::fill_n(Data.data() + static_cast<std::size_t>(I) * Cap, NewN,
                  DbmInfinity);
  }
  Occ.resize(NewN, 0);
  N = NewN;
}

void DbmStorage::removeVars(const std::vector<bool> &Drop) {
  assert(Drop.size() == N && "drop mask must cover every variable");
  // Kept columns as contiguous runs [first, second), found once and shared
  // by every row.
  std::vector<std::pair<unsigned, unsigned>> Runs;
  unsigned NewN = 0;
  for (unsigned J = 0; J < N;) {
    if (Drop[J]) {
      ++J;
      continue;
    }
    unsigned Begin = J;
    while (J < N && !Drop[J])
      ++J;
    Runs.emplace_back(Begin, J);
    NewN += J - Begin;
  }
  // Compact in place: rows keep their stride, so a surviving row only ever
  // moves up (never onto a later row) and within a row each run only ever
  // moves left. The exact occupancy of each compacted row is taken while
  // the row is hot, clearing any stale bits.
  for (unsigned I = 0, NI = 0; I < N; ++I) {
    if (Drop[I])
      continue;
    const std::int64_t *Src = Data.data() + static_cast<std::size_t>(I) * Cap;
    std::int64_t *Dst = Data.data() + static_cast<std::size_t>(NI) * Cap;
    unsigned NJ = 0;
    for (auto [Begin, End] : Runs) {
      std::memmove(Dst + NJ, Src + Begin, (End - Begin) * sizeof(std::int64_t));
      NJ += End - Begin;
    }
    std::uint8_t Any = 0;
    for (unsigned J = 0; J < NewN; ++J)
      Any |= static_cast<std::uint8_t>(J != NI && Dst[J] < DbmInfinity);
    Occ[NI] = Any;
    ++NI;
  }
  N = NewN;
  Occ.resize(N);
}

bool CowDbm::detach() {
  if (B.use_count() == 1)
    return false;
  auto Fresh = std::make_shared<DbmShared>(B->M);
  Fresh->Closed = B->Closed;
  Fresh->Feasible = B->Feasible;
  Fresh->PendingEdge = B->PendingEdge;
  Fresh->EverClosed = B->EverClosed;
  Fresh->reaccount();
  B = std::move(Fresh);
  return true;
}

namespace {

constexpr std::uint64_t FnvOffset = 1469598103934665603ull;
constexpr std::uint64_t FnvPrime = 1099511628211ull;

inline std::uint64_t fnvMix(std::uint64_t H, std::uint64_t V) {
  for (int Byte = 0; Byte < 8; ++Byte) {
    H ^= (V >> (8 * Byte)) & 0xff;
    H *= FnvPrime;
  }
  return H;
}

} // namespace

std::uint64_t csdf::dbmFingerprint(const DbmStorage &M) {
  unsigned N = M.size();
  std::uint64_t H = FnvOffset ^ N;
  const std::int64_t *Rows = M.rows();
  std::size_t Stride = M.rowStride();
  for (unsigned I = 0; I < N; ++I) {
    const std::int64_t *Row = Rows + I * Stride;
    for (unsigned J = 0; J < N; ++J)
      H = fnvMix(H, static_cast<std::uint64_t>(Row[J]));
  }
  return H;
}

std::vector<std::int64_t> csdf::dbmSnapshot(const DbmStorage &M) {
  unsigned N = M.size();
  std::vector<std::int64_t> Image;
  Image.reserve(static_cast<size_t>(N) * N);
  const std::int64_t *Rows = M.rows();
  std::size_t Stride = M.rowStride();
  for (unsigned I = 0; I < N; ++I)
    Image.insert(Image.end(), Rows + I * Stride, Rows + I * Stride + N);
  return Image;
}
