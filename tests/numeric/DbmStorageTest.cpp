//===- tests/numeric/DbmStorageTest.cpp -----------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the one DBM representation: the saturating bound
// addition, DbmStorage's flat row-major layout (growth, row stride, raw
// row view, value semantics), the one-sided occupancy-bitmap contract the
// closure kernel relies on, the stride-independent memo fingerprint and
// snapshot, and the copy-on-write handle (detach copies the matrix and
// the closure bookkeeping, and charges the copy to the session budget).
// Projection (removeVars) has its own suite in DbmRemoveVarsTest.
//
//===----------------------------------------------------------------------===//

#include "numeric/DbmStorage.h"

#include "support/Budget.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <memory>
#include <vector>

using namespace csdf;

namespace {

/// An N x N matrix whose entry (I, J) is I * 100 + J, so every cell is
/// distinguishable and finite.
DbmStorage numbered(unsigned N) {
  DbmStorage M;
  M.resize(N);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      M.set(I, J, static_cast<std::int64_t>(I) * 100 + J);
  return M;
}

std::vector<std::uint8_t> occupancy(const DbmStorage &M) {
  return std::vector<std::uint8_t>(M.rowOccupancy(),
                                   M.rowOccupancy() + M.size());
}

//===----------------------------------------------------------------------===//
// dbmAdd
//===----------------------------------------------------------------------===//

TEST(DbmAddTest, FiniteOperandsAddExactly) {
  EXPECT_EQ(dbmAdd(3, 4), 7);
  EXPECT_EQ(dbmAdd(-3, -4), -7);
  EXPECT_EQ(dbmAdd(-5, 5), 0);
  EXPECT_EQ(dbmAdd(DbmInfinity - 1, -1), DbmInfinity - 2);
}

TEST(DbmAddTest, InfinityIsAbsorbing) {
  EXPECT_EQ(dbmAdd(DbmInfinity, -1000), DbmInfinity);
  EXPECT_EQ(dbmAdd(-1000, DbmInfinity), DbmInfinity);
  EXPECT_EQ(dbmAdd(DbmInfinity, -DbmInfinity), DbmInfinity);
  // Anything at or above the sentinel reads as unconstrained.
  EXPECT_EQ(dbmAdd(DbmInfinity + 7, 0), DbmInfinity);
}

TEST(DbmAddTest, OperandsBelowMinusInfinityAreClamped) {
  // Only an infeasible system relaxes this far; the sum must stay within
  // +-2 * DbmInfinity instead of overflowing.
  EXPECT_EQ(dbmAdd(-3 * DbmInfinity, 0), -DbmInfinity);
  EXPECT_EQ(dbmAdd(-3 * DbmInfinity, -3 * DbmInfinity), -2 * DbmInfinity);
  EXPECT_EQ(dbmAdd(-3 * DbmInfinity, 5), -DbmInfinity + 5);
}

//===----------------------------------------------------------------------===//
// Layout and growth
//===----------------------------------------------------------------------===//

TEST(DbmStorageTest, DefaultIsEmpty) {
  DbmStorage M;
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.rowStride(), 0u);
  EXPECT_EQ(M.byteSize(), 0u);
}

TEST(DbmStorageTest, ResizeLeavesNewCellsUnconstrained) {
  // Including the diagonal: ConstraintGraph writes the zero diagonal
  // itself, the storage only promises "no constraint".
  DbmStorage M;
  M.resize(3);
  ASSERT_EQ(M.size(), 3u);
  for (unsigned I = 0; I < 3; ++I)
    for (unsigned J = 0; J < 3; ++J)
      EXPECT_EQ(M.get(I, J), DbmInfinity) << I << "," << J;
  EXPECT_EQ(occupancy(M), std::vector<std::uint8_t>(3, 0));
}

TEST(DbmStorageTest, ResizeToSameSizeKeepsBounds) {
  DbmStorage M = numbered(3);
  M.resize(3);
  for (unsigned I = 0; I < 3; ++I)
    for (unsigned J = 0; J < 3; ++J)
      EXPECT_EQ(M.get(I, J), static_cast<std::int64_t>(I) * 100 + J);
}

TEST(DbmStorageTest, RowStrideGrowsGeometrically) {
  // One-variable-at-a-time growth stays inside the first allocation of 8
  // rows, then doubles: a re-layout per doubling, not per variable.
  DbmStorage M;
  M.resize(1);
  EXPECT_EQ(M.rowStride(), 8u);
  for (unsigned N = 2; N <= 8; ++N) {
    M.resize(N);
    EXPECT_EQ(M.rowStride(), 8u) << "n=" << N;
  }
  M.resize(9);
  EXPECT_EQ(M.rowStride(), 16u);
  // A jump past twice the stride allocates exactly what was asked for.
  M.resize(40);
  EXPECT_EQ(M.rowStride(), 40u);
}

TEST(DbmStorageTest, GrowthPastCapacityCarriesBoundsOver) {
  DbmStorage M = numbered(8);
  ASSERT_EQ(M.rowStride(), 8u);
  M.resize(11);
  ASSERT_GT(M.rowStride(), 8u);
  for (unsigned I = 0; I < 11; ++I)
    for (unsigned J = 0; J < 11; ++J) {
      std::int64_t Want = I < 8 && J < 8
                              ? static_cast<std::int64_t>(I) * 100 + J
                              : DbmInfinity;
      EXPECT_EQ(M.get(I, J), Want) << I << "," << J;
    }
}

TEST(DbmStorageTest, RawRowsAgreeWithGet) {
  DbmStorage M = numbered(5);
  M.resize(6); // a non-square stride/size ratio
  const std::int64_t *Rows = M.rows();
  for (unsigned I = 0; I < M.size(); ++I)
    for (unsigned J = 0; J < M.size(); ++J)
      EXPECT_EQ(Rows[static_cast<std::size_t>(I) * M.rowStride() + J],
                M.get(I, J));
}

TEST(DbmStorageTest, ByteSizeCoversMatrixAndBitmap) {
  DbmStorage M;
  M.resize(1);
  EXPECT_GE(M.byteSize(), 8u * 8u * sizeof(std::int64_t) + 1u);
  std::uint64_t Small = M.byteSize();
  M.resize(9);
  EXPECT_GE(M.byteSize(), 16u * 16u * sizeof(std::int64_t) + 9u);
  EXPECT_GT(M.byteSize(), Small);
}

TEST(DbmStorageTest, CopiesAreIndependentValues) {
  // DbmShared holds the matrix by value and detach copies it directly, so
  // a copy must own its own buffer.
  DbmStorage A = numbered(4);
  DbmStorage B = A;
  B.set(1, 2, -7);
  B.resize(5);
  EXPECT_EQ(A.size(), 4u);
  EXPECT_EQ(A.get(1, 2), 102);
  EXPECT_EQ(B.get(1, 2), -7);
  EXPECT_EQ(B.get(4, 4), DbmInfinity);
}

//===----------------------------------------------------------------------===//
// Occupancy bitmap
//===----------------------------------------------------------------------===//

TEST(DbmStorageTest, FiniteOffDiagonalBoundMarksItsRow) {
  DbmStorage M;
  M.resize(3);
  M.set(1, 2, 5);
  EXPECT_EQ(occupancy(M), (std::vector<std::uint8_t>{0, 1, 0}));
}

TEST(DbmStorageTest, DiagonalAndUnconstrainedWritesLeaveRowsClear) {
  // A clear bit promises the row has no finite off-diagonal bound; the
  // zero diagonal every graph writes must not spoil that.
  DbmStorage M;
  M.resize(3);
  for (unsigned I = 0; I < 3; ++I)
    M.set(I, I, 0);
  M.set(0, 2, DbmInfinity);
  EXPECT_EQ(occupancy(M), std::vector<std::uint8_t>(3, 0));
}

TEST(DbmStorageTest, LoosenedRowStaysMarkedUntilProjection) {
  // The contract is one-sided: writing DbmInfinity over a bound leaves a
  // stale set bit (the kernel merely visits the row), and removeVars
  // recomputes the bitmap exactly.
  DbmStorage M;
  M.resize(3);
  M.set(1, 2, 5);
  M.set(1, 2, DbmInfinity);
  EXPECT_EQ(occupancy(M), (std::vector<std::uint8_t>{0, 1, 0}));
  M.removeVars(std::vector<bool>(3, false));
  EXPECT_EQ(occupancy(M), std::vector<std::uint8_t>(3, 0));
}

TEST(DbmStorageTest, GrownRowsStartClear) {
  DbmStorage M;
  M.resize(2);
  M.set(0, 1, 1);
  M.set(1, 0, 1);
  M.resize(12); // past the first allocation
  std::vector<std::uint8_t> Want(12, 0);
  Want[0] = Want[1] = 1;
  EXPECT_EQ(occupancy(M), Want);
}

//===----------------------------------------------------------------------===//
// Memo fingerprint and snapshot
//===----------------------------------------------------------------------===//

TEST(DbmStorageTest, SnapshotIsRowMajorLogicalImage) {
  DbmStorage M = numbered(3);
  M.resize(4);
  std::vector<std::int64_t> Want;
  for (unsigned I = 0; I < 4; ++I)
    for (unsigned J = 0; J < 4; ++J)
      Want.push_back(I < 3 && J < 3 ? static_cast<std::int64_t>(I) * 100 + J
                                    : DbmInfinity);
  EXPECT_EQ(dbmSnapshot(M), Want);
  EXPECT_TRUE(dbmSnapshot(DbmStorage()).empty());
}

TEST(DbmStorageTest, FingerprintAndSnapshotIgnoreRowStride) {
  // Same logical contents, different allocation histories: grown one
  // variable at a time (stride 8) versus projected down from 20 (stride
  // 20). Memo keys must not depend on the stride.
  DbmStorage Narrow = numbered(5);
  DbmStorage Wide;
  Wide.resize(20);
  std::vector<bool> Drop(20, true);
  for (unsigned I = 0; I < 5; ++I)
    Drop[I] = false;
  Wide.removeVars(Drop);
  for (unsigned I = 0; I < 5; ++I)
    for (unsigned J = 0; J < 5; ++J)
      Wide.set(I, J, static_cast<std::int64_t>(I) * 100 + J);
  ASSERT_NE(Narrow.rowStride(), Wide.rowStride());
  EXPECT_EQ(dbmSnapshot(Narrow), dbmSnapshot(Wide));
  EXPECT_EQ(dbmFingerprint(Narrow), dbmFingerprint(Wide));
}

TEST(DbmStorageTest, FingerprintSeparatesSizesAndBounds) {
  DbmStorage Empty;
  DbmStorage One;
  One.resize(1);
  DbmStorage OneZero;
  OneZero.resize(1);
  OneZero.set(0, 0, 0);
  EXPECT_NE(dbmFingerprint(Empty), dbmFingerprint(One));
  EXPECT_NE(dbmFingerprint(One), dbmFingerprint(OneZero));

  DbmStorage A = numbered(4);
  DbmStorage B = numbered(4);
  EXPECT_EQ(dbmFingerprint(A), dbmFingerprint(B));
  B.set(3, 1, 302);
  EXPECT_NE(dbmFingerprint(A), dbmFingerprint(B));
}

//===----------------------------------------------------------------------===//
// Copy-on-write handle
//===----------------------------------------------------------------------===//

TEST(CowDbmTest, DetachOnUniqueHandleDoesNotCopy) {
  CowDbm A;
  A.rw().M.resize(3);
  const DbmShared *Before = A.block().get();
  ASSERT_TRUE(A.unique());
  EXPECT_FALSE(A.detach());
  EXPECT_EQ(A.block().get(), Before);
}

TEST(CowDbmTest, DetachCopiesMatrixAndClosureBookkeeping) {
  CowDbm A;
  DbmShared &Src = A.rw();
  Src.M = numbered(4);
  Src.Closed = false;
  Src.Feasible = true;
  Src.PendingEdge = std::make_pair(1u, 3u);
  Src.EverClosed = true;

  CowDbm B = A;
  ASSERT_EQ(A.block(), B.block());
  EXPECT_TRUE(B.detach());
  ASSERT_NE(A.block(), B.block());
  EXPECT_TRUE(A.unique());
  EXPECT_TRUE(B.unique());

  const DbmShared &Copy = B.ro();
  EXPECT_EQ(dbmSnapshot(Copy.M), dbmSnapshot(A.ro().M));
  EXPECT_FALSE(Copy.Closed);
  EXPECT_TRUE(Copy.Feasible);
  ASSERT_TRUE(Copy.PendingEdge.has_value());
  EXPECT_EQ(*Copy.PendingEdge, std::make_pair(1u, 3u));
  EXPECT_TRUE(Copy.EverClosed);

  // And the copy is a value: writing it leaves the source alone.
  B.rw().M.set(0, 1, -50);
  EXPECT_EQ(A.ro().M.get(0, 1), 1);
}

TEST(CowDbmTest, AdoptedBlockIsSharedUntilWritten) {
  auto Memoized = std::make_shared<DbmShared>(numbered(3));
  CowDbm A;
  A.adopt(Memoized);
  EXPECT_EQ(A.block(), Memoized);
  EXPECT_FALSE(A.unique()); // the "memo" still holds it
  A.rw().M.set(2, 0, -1);
  EXPECT_NE(A.block(), Memoized);
  EXPECT_EQ(Memoized->M.get(2, 0), 200);
}

TEST(CowDbmTest, DetachedCopyIsChargedToTheSessionBudget) {
  // The budget outlives every block accounted against it.
  AnalysisBudget Budget;
  Budget.begin();
  BudgetScope Scope(&Budget);
  {
    CowDbm A;
    A.rw().M = numbered(6);
    A.rw().reaccount();
    std::uint64_t One = A.ro().M.byteSize();
    EXPECT_EQ(Budget.liveBytes(), One);
    {
      CowDbm B = A; // sharing costs nothing
      EXPECT_EQ(Budget.liveBytes(), One);
      ASSERT_TRUE(B.detach());
      EXPECT_EQ(Budget.liveBytes(), One + B.ro().M.byteSize());
    }
    // The detached copy released its bytes when its last handle died.
    EXPECT_EQ(Budget.liveBytes(), One);
  }
  EXPECT_EQ(Budget.liveBytes(), 0u);
}

} // namespace
