//===- numeric/ClosureKernel.cpp ------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// This translation unit is compiled with the kernel's SIMD flags (see
// src/numeric/CMakeLists.txt); everything that must vectorize lives here.
// tools/check-closure-vectorization.sh recompiles it with the compiler's
// vectorization report enabled and fails CI when the anchored inner loop
// is not vectorized.
//
//===----------------------------------------------------------------------===//

#include "numeric/ClosureKernel.h"

#include "support/Arena.h"
#include "support/Budget.h"

#include <algorithm>

using namespace csdf;

//===----------------------------------------------------------------------===//
// Reference kernels (v1 semantics, element-wise get/set)
//===----------------------------------------------------------------------===//

bool kernel::fullCloseRef(DbmStorage &M) {
  unsigned N = M.size();
  for (unsigned K = 0; K < N; ++K) {
    // The O(n^3) hot spot of the paper's Section IX profile: poll the
    // session budget once per outer iteration so a deadline can interrupt
    // even a single huge closure.
    budgetCheckpoint();
    for (unsigned I = 0; I < N; ++I) {
      std::int64_t BIK = M.get(I, K);
      if (BIK >= DbmInfinity)
        continue;
      for (unsigned J = 0; J < N; ++J) {
        std::int64_t Through = dbmAdd(BIK, M.get(K, J));
        if (Through < M.get(I, J))
          M.set(I, J, Through);
      }
    }
  }
  for (unsigned I = 0; I < N; ++I)
    if (M.get(I, I) < 0)
      return false;
  return true;
}

bool kernel::closeAfterEdgeRef(DbmStorage &M, unsigned I, unsigned J) {
  unsigned N = M.size();
  std::int64_t C = M.get(I, J);
  if (dbmAdd(M.get(J, I), C) < 0)
    return false;
  for (unsigned A = 0; A < N; ++A) {
    std::int64_t AI = M.get(A, I);
    if (AI >= DbmInfinity)
      continue;
    std::int64_t AIC = dbmAdd(AI, C);
    for (unsigned Bc = 0; Bc < N; ++Bc) {
      std::int64_t Through = dbmAdd(AIC, M.get(J, Bc));
      if (Through < M.get(A, Bc))
        M.set(A, Bc, Through);
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Flat kernels
//===----------------------------------------------------------------------===//

namespace {

/// Clamps Row[Lo, Hi) into [-DbmInfinity, DbmInfinity] in place, so that
/// minPlusRow can add any entry to a bound in that range without
/// overflow: no such sum leaves +-2 * DbmInfinity. The clamp changes no
/// addition's result, because dbmAdd already reads an entry below
/// -DbmInfinity as -DbmInfinity and one at or above DbmInfinity as
/// unconstrained. Out-of-range entries come only from relaxation around a
/// negative cycle (an infeasible system, whose contents nobody reads) or
/// from a caller storing such a bound. An in-range row, the engine's only
/// kind, costs one read-only vectorized pass; clamping inside the
/// min-plus loop instead would cost a third or more per entry.
inline void clampRow(std::int64_t *Row, unsigned Lo, unsigned Hi) {
  std::int64_t Min = 0, Max = 0;
  for (unsigned J = Lo; J < Hi; ++J) {
    Min = Row[J] < Min ? Row[J] : Min;
    Max = Row[J] > Max ? Row[J] : Max;
  }
  if (Min >= -DbmInfinity && Max <= DbmInfinity)
    return;
  for (unsigned J = Lo; J < Hi; ++J)
    Row[J] = std::clamp(Row[J], -DbmInfinity, DbmInfinity);
}

/// Branchless saturating min-plus over one row segment:
///   RowI[j] = min(RowI[j], BIK (+) RowK[j])   for j in [Lo, Hi)
/// where (+) is dbmAdd with BIK known finite. RowK[Lo, Hi) must have been
/// through clampRow, and BIK is clamped to -DbmInfinity here, so the add
/// cannot overflow. The select on RowK[j] >= DbmInfinity reproduces
/// dbmAdd's absorbing infinity exactly (a plain add would let a negative
/// BIK pull infinity back into the finite range). Compare/select/min are
/// all lane-wise ops, so with restrict-qualified pointers the loop
/// auto-vectorizes.
///
/// Callers must guarantee RowI != RowK: every call site either skips the
/// aliasing iteration (it is provably a no-op on feasible systems) or
/// addresses disjoint rows.
inline void minPlusRow(std::int64_t *__restrict RowI,
                       const std::int64_t *__restrict RowK, std::int64_t BIK,
                       unsigned Lo, unsigned Hi) {
  BIK = BIK < -DbmInfinity ? -DbmInfinity : BIK;
  for (unsigned J = Lo; J < Hi; ++J) { // CSDF-VEC-ANCHOR
    std::int64_t KJ = RowK[J];
    std::int64_t T = BIK + KJ;
    T = KJ >= DbmInfinity ? DbmInfinity : T;
    RowI[J] = RowI[J] < T ? RowI[J] : T;
  }
}

/// One Floyd–Warshall panel: for K in [KLo, KHi), relax rows [ILo, IHi)
/// against row K over columns [JLo, JHi). With all three ranges equal to
/// a tile this is the diagonal phase; (K, K, J) the row panel; (K, I, K)
/// the column panel; (K, I, J) the remainder — the classic blocked
/// schedule falls out of one helper because the panel always reads
/// A[i][k] and B[k][j] straight from the matrix, which at each phase are
/// exactly the blocks the schedule requires to be final (or the block
/// being updated, for the self-referencing diagonal/panel phases).
///
/// Skips: rows with no finite off-diagonal bound can neither contribute
/// (row K empty => B[k][j] infinite for all j != k, and B[k][k] = 0
/// relaxes nothing) nor improve (row I empty => A[i][k] infinite), and
/// closure never adds a first finite bound to an empty row, so the
/// occupancy bitmap taken at entry stays valid throughout. I == K is
/// skipped because A[k][k] = 0 on feasible systems makes it a no-op, and
/// it is the one pairing where RowI would alias RowK.
///
/// Each row K segment goes through clampRow before rows relax against it
/// (row K is not written while K is fixed, since I == K is skipped),
/// unless \p KRowsClamped says the caller already clamped the whole rows
/// [KLo, KHi) once they were final.
void panel(std::int64_t *M, std::size_t Stride, const std::uint8_t *Occ,
           unsigned KLo, unsigned KHi, unsigned ILo, unsigned IHi,
           unsigned JLo, unsigned JHi, bool KRowsClamped = false) {
  for (unsigned K = KLo; K < KHi; ++K) {
    if (!Occ[K])
      continue;
    std::int64_t *RowK = M + static_cast<std::size_t>(K) * Stride;
    if (!KRowsClamped)
      clampRow(RowK, JLo, JHi);
    for (unsigned I = ILo; I < IHi; ++I) {
      if (I == K || !Occ[I])
        continue;
      std::int64_t *RowI = M + static_cast<std::size_t>(I) * Stride;
      std::int64_t BIK = RowI[K];
      if (BIK >= DbmInfinity)
        continue;
      minPlusRow(RowI, RowK, BIK, JLo, JHi);
    }
  }
}

} // namespace

bool kernel::fullClose(DbmStorage &D) {
  const unsigned N = D.size();
  std::int64_t *M = D.rows();
  const std::size_t Stride = D.rowStride();
  const std::uint8_t *Occ = D.rowOccupancy();
  constexpr unsigned T = ClosureTile;

  for (unsigned KB = 0; KB < N; KB += T) {
    // Deadline/memory poll per outer k-panel, the blocked counterpart of
    // the reference kernel's per-k checkpoint.
    budgetCheckpoint();
    const unsigned KE = std::min(KB + T, N);
    // Phase 1: the diagonal tile closes over itself.
    panel(M, Stride, Occ, KB, KE, KB, KE, KB, KE);
    // Phase 2: row panels (diagonal tile is the A operand).
    for (unsigned JB = 0; JB < N; JB += T)
      if (JB != KB)
        panel(M, Stride, Occ, KB, KE, KB, KE, JB, std::min(JB + T, N));
    // The tile's rows are final from here on (phases 3 and 4 write only
    // rows outside it), so they are clamped once, not once per tile that
    // relaxes against them.
    for (unsigned K = KB; K < KE; ++K)
      if (Occ[K])
        clampRow(M + static_cast<std::size_t>(K) * Stride, 0, N);
    // Phase 3: column panels (diagonal tile is the B operand).
    for (unsigned IB = 0; IB < N; IB += T)
      if (IB != KB)
        panel(M, Stride, Occ, KB, KE, IB, std::min(IB + T, N), KB, KE,
              /*KRowsClamped=*/true);
    // Phase 4: remainder tiles (row/column panels are the operands).
    for (unsigned IB = 0; IB < N; IB += T) {
      if (IB == KB)
        continue;
      const unsigned IE = std::min(IB + T, N);
      for (unsigned JB = 0; JB < N; JB += T)
        if (JB != KB)
          panel(M, Stride, Occ, KB, KE, IB, IE, JB, std::min(JB + T, N),
                /*KRowsClamped=*/true);
    }
  }

  for (unsigned I = 0; I < N; ++I)
    if (M[static_cast<std::size_t>(I) * Stride + I] < 0)
      return false;
  return true;
}

bool kernel::closeAfterEdge(DbmStorage &D, unsigned I, unsigned J) {
  const unsigned N = D.size();
  std::int64_t *M = D.rows();
  const std::size_t Stride = D.rowStride();
  const std::uint8_t *Occ = D.rowOccupancy();

  std::int64_t *RowJ = M + static_cast<std::size_t>(J) * Stride;
  std::int64_t C = M[static_cast<std::size_t>(I) * Stride + J];
  if (dbmAdd(RowJ[I], C) < 0)
    return false;
  clampRow(RowJ, 0, N); // Row J is never written below.

  for (unsigned A = 0; A < N; ++A) {
    // Row A only improves through a finite A->I bound, so unoccupied rows
    // cannot change; A == J is a no-op (J->I->J >= 0 was just checked)
    // and the one aliasing pairing.
    if (A == J || !Occ[A])
      continue;
    std::int64_t *RowA = M + static_cast<std::size_t>(A) * Stride;
    std::int64_t AI = RowA[I];
    if (AI >= DbmInfinity)
      continue;
    std::int64_t AIC = dbmAdd(AI, C);
    if (AIC >= DbmInfinity)
      continue; // dbmAdd saturates: nothing can improve through it.
    minPlusRow(RowA, RowJ, AIC, 0, N);
  }
  return true;
}
