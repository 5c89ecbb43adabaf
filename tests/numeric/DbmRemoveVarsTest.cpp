//===- tests/numeric/DbmRemoveVarsTest.cpp --------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Property suite for batched variable projection. DbmStorage::removeVars
// drops a whole mask of variables in one compaction; it must agree entry
// for entry with a test-local reference that removes the same variables
// one at a time through element-wise get/set, on random dense, sparse and
// saturated closed matrices straddling the closure tile and the capacity
// boundaries. The occupancy bitmap must come out
// exact, closure and feasibility must survive, copy-on-write siblings
// must be untouched, and the memo fingerprint must equal the sequential
// result's. ConstraintGraph::removeVarsIf is checked the same way against
// a graph that drops the same names one removeVar at a time.
//
//===----------------------------------------------------------------------===//

#include "numeric/ClosureKernel.h"
#include "numeric/ConstraintGraph.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

using namespace csdf;

namespace {

/// Logical N x N contents, layout-independent.
std::vector<std::int64_t> contents(const DbmStorage &M) {
  std::vector<std::int64_t> Out;
  unsigned N = M.size();
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      Out.push_back(M.get(I, J));
  return Out;
}

/// The sequential reference: removes one variable by rebuilding the matrix
/// through get/set, so it shares no code with DbmStorage::removeVars.
DbmStorage removeOneRef(const DbmStorage &M, unsigned Victim) {
  DbmStorage Out;
  unsigned N = M.size();
  Out.resize(N - 1);
  for (unsigned I = 0, NI = 0; I < N; ++I) {
    if (I == Victim)
      continue;
    for (unsigned J = 0, NJ = 0; J < N; ++J) {
      if (J == Victim)
        continue;
      Out.set(NI, NJ, M.get(I, J));
      ++NJ;
    }
    ++NI;
  }
  return Out;
}

/// Removes every masked variable one at a time, highest index first so
/// the remaining victims keep their indices.
DbmStorage removeSequentialRef(const DbmStorage &M,
                               const std::vector<bool> &Drop) {
  DbmStorage Cur = M;
  for (unsigned I = static_cast<unsigned>(Drop.size()); I-- > 0;)
    if (Drop[I])
      Cur = removeOneRef(Cur, I);
  return Cur;
}

/// Random closed feasible matrix over N variables, grown one variable at a
/// time (the capacity-stride resize path the engine uses). Retries until
/// the closure is feasible (at most a few times: negative bounds are
/// rare and sparse, and Lo >= 0 makes the first try feasible).
DbmStorage randomClosed(std::mt19937 &Rng, unsigned N, double Density,
                        std::int64_t Lo, std::int64_t Hi,
                        bool Saturated = false) {
  std::uniform_real_distribution<double> Coin(0.0, 1.0);
  std::uniform_int_distribution<std::int64_t> Bound(Lo, Hi);
  std::uniform_int_distribution<int> Kind(0, 2);
  for (int Try = 0;; ++Try) {
    EXPECT_LT(Try, 100) << "no feasible random matrix";
    DbmStorage M;
    for (unsigned I = 1; I <= N; ++I)
      M.resize(I);
    for (unsigned I = 0; I < N; ++I)
      M.set(I, I, 0);
    for (unsigned I = 0; I < N; ++I)
      for (unsigned J = 0; J < N; ++J) {
        if (I == J || Coin(Rng) >= Density)
          continue;
        if (!Saturated) {
          M.set(I, J, Bound(Rng));
          continue;
        }
        // Bounds at and across the saturation point, as in the closure
        // kernel's saturation test.
        switch (Kind(Rng)) {
        case 0:
          M.set(I, J, DbmInfinity - 1);
          break;
        case 1:
          M.set(I, J, DbmInfinity / 2);
          break;
        default:
          M.set(I, J, Bound(Rng));
          break;
        }
      }
    if (kernel::fullCloseRef(M) || Try >= 100)
      return M;
  }
}

/// The masks every matrix is projected with: none, one, a contiguous
/// block, alternating, and everything but the zero variable.
std::vector<std::pair<const char *, std::vector<bool>>> masksFor(unsigned N) {
  std::vector<std::pair<const char *, std::vector<bool>>> Masks;
  Masks.emplace_back("none", std::vector<bool>(N, false));
  std::vector<bool> One(N, false);
  One[N / 2] = true;
  Masks.emplace_back("one", One);
  std::vector<bool> Block(N, false);
  for (unsigned I = N / 4; I < N / 4 + (N + 2) / 3 && I < N; ++I)
    Block[I] = true;
  Masks.emplace_back("contiguous", Block);
  std::vector<bool> Alternating(N, false);
  for (unsigned I = 1; I < N; I += 2)
    Alternating[I] = true;
  Masks.emplace_back("alternating", Alternating);
  std::vector<bool> AllButZero(N, true);
  AllButZero[0] = false;
  Masks.emplace_back("all-but-zero", AllButZero);
  return Masks;
}

/// The occupancy bitmap is exact: a row's bit is set if and only if the
/// row holds a finite off-diagonal bound.
void expectExactOccupancy(const DbmStorage &D) {
  for (unsigned I = 0; I < D.size(); ++I) {
    bool Any = false;
    for (unsigned J = 0; J < D.size(); ++J)
      Any = Any || (I != J && D.get(I, J) < DbmInfinity);
    EXPECT_EQ(D.rowOccupancy()[I] != 0, Any) << "row " << I;
  }
}

/// Checks one batched projection against the sequential reference.
void checkProjection(const DbmStorage &Input, const std::vector<bool> &Drop,
                     const std::string &What) {
  SCOPED_TRACE(What);
  DbmStorage Ref = removeSequentialRef(Input, Drop);
  DbmStorage Batched = Input;
  Batched.removeVars(Drop);
  ASSERT_EQ(Batched.size(), Ref.size());
  EXPECT_EQ(contents(Batched), contents(Ref));
  EXPECT_EQ(dbmFingerprint(Batched), dbmFingerprint(Ref));
  expectExactOccupancy(Batched);
  // Projection of a closed feasible matrix is closed and feasible:
  // re-closing finds nothing to tighten.
  DbmStorage Reclosed = Batched;
  EXPECT_TRUE(kernel::fullCloseRef(Reclosed));
  EXPECT_EQ(contents(Reclosed), contents(Batched));
}

const unsigned Sizes[] = {1, kernel::ClosureTile - 1, kernel::ClosureTile,
                          kernel::ClosureTile + 1, 64};

TEST(DbmRemoveVarsTest, DenseMatricesMatchSequentialReference) {
  std::mt19937 Rng(5150);
  for (unsigned N : Sizes)
    for (auto &[Name, Drop] : masksFor(N)) {
      DbmStorage M = randomClosed(Rng, N, 0.3, 0, 40);
      checkProjection(M, Drop, "n=" + std::to_string(N) + " mask=" + Name);
    }
}

TEST(DbmRemoveVarsTest, SparseMatricesMatchSequentialReference) {
  std::mt19937 Rng(6061);
  for (unsigned N : Sizes)
    for (auto &[Name, Drop] : masksFor(N)) {
      DbmStorage M = randomClosed(Rng, N, 0.02, -1, 30);
      checkProjection(M, Drop, "n=" + std::to_string(N) + " mask=" + Name);
    }
}

TEST(DbmRemoveVarsTest, SaturatedMatricesMatchSequentialReference) {
  std::mt19937 Rng(7177);
  for (unsigned N : Sizes)
    for (auto &[Name, Drop] : masksFor(N)) {
      DbmStorage M = randomClosed(Rng, N, 0.2, 0, 20, /*Saturated=*/true);
      checkProjection(M, Drop, "n=" + std::to_string(N) + " mask=" + Name);
    }
}

TEST(DbmRemoveVarsTest, RegrowAfterProjectionStartsUnconstrained) {
  // Projection leaves the capacity (and stale cells past the new size)
  // behind; growing again must not resurrect them, and growing past the
  // capacity must carry the compacted rows over.
  std::mt19937 Rng(8288);
  for (unsigned N : {kernel::ClosureTile, 64u}) {
    DbmStorage M = randomClosed(Rng, N, 0.5, 0, 20);
    std::vector<bool> Drop(N, false);
    for (unsigned I = 1; I < N; I += 3)
      Drop[I] = true;
    checkProjection(M, Drop, "before regrow");
    M.removeVars(Drop);
    auto Kept = contents(M);
    unsigned K = M.size();
    for (unsigned Grow = K + 1; Grow <= 2 * N + 1; ++Grow) {
      M.resize(Grow);
      M.set(Grow - 1, Grow - 1, 0);
    }
    for (unsigned I = 0; I < M.size(); ++I)
      for (unsigned J = 0; J < M.size(); ++J) {
        if (I < K && J < K)
          EXPECT_EQ(M.get(I, J), Kept[I * K + J]);
        else
          EXPECT_EQ(M.get(I, J), I == J ? 0 : DbmInfinity);
      }
    expectExactOccupancy(M);
    // And the grown matrix projects like the reference too.
    std::vector<bool> Again(M.size(), false);
    for (unsigned I = 0; I < M.size(); I += 2)
      Again[I] = I != 0;
    checkProjection(M, Again, "after regrow");
  }
}

TEST(DbmRemoveVarsTest, CowSiblingIsUntouched) {
  std::mt19937 Rng(9399);
  for (unsigned N : Sizes) {
    DbmStorage M = randomClosed(Rng, N, 0.3, 0, 40);
    std::vector<bool> Drop = masksFor(N)[3].second; // alternating
    DbmStorage Ref = removeSequentialRef(M, Drop);

    CowDbm A;
    A.rw().M = M;
    CowDbm Sibling = A;
    ASSERT_FALSE(A.unique());
    auto Before = contents(Sibling.ro().M);
    EXPECT_TRUE(A.detach());
    A.rw().M.removeVars(Drop);

    EXPECT_EQ(contents(Sibling.ro().M), Before);
    EXPECT_EQ(contents(A.ro().M), contents(Ref));
    EXPECT_EQ(dbmFingerprint(A.ro().M), dbmFingerprint(Ref));
  }
}

//===----------------------------------------------------------------------===//
// ConstraintGraph::removeVarsIf
//===----------------------------------------------------------------------===//

class RemoveVarsIfTest : public ::testing::Test {
protected:
  static std::string name(unsigned I) { return "v" + std::to_string(I); }

  ConstraintGraph randomGraph(std::mt19937 &Rng, unsigned N) {
    ConstraintGraph G(&Stats);
    std::uniform_int_distribution<unsigned> Var(0, N - 1);
    std::uniform_int_distribution<std::int64_t> Bound(0, 16);
    for (unsigned I = 0; I < N; ++I)
      G.ensureVar(name(I));
    for (unsigned E = 0; E < 3 * N; ++E) {
      unsigned I = Var(Rng), J = Var(Rng);
      if (I != J)
        G.addLE(name(I), name(J), Bound(Rng));
    }
    G.addUpperBound(name(Var(Rng)), 5);
    G.addLowerBound(name(Var(Rng)), -5);
    return G;
  }

  StatsRegistry Stats;
};

TEST_F(RemoveVarsIfTest, MatchesOneAtATimeRemoval) {
  std::mt19937 Rng(4321);
  for (unsigned N : {1u, 6u, 33u}) {
    for (unsigned Stride : {1u, 2u, 3u}) {
      // The graphs stay unclosed until the removal: projection itself must
      // close first, or bounds implied through a dropped variable are lost.
      std::mt19937 Replay = Rng;
      ConstraintGraph G = randomGraph(Rng, N);
      ConstraintGraph Fresh = randomGraph(Replay, N);
      ConstraintGraph Seq = G;
      ConstraintGraph Sibling = G;
      auto Dropped = [&](unsigned I) { return I % Stride == 0; };

      G.removeVarsIf([&](VarId Id) {
        const std::string &Var = G.symbols().name(Id);
        return Dropped(static_cast<unsigned>(std::stoul(Var.substr(1))));
      });
      for (unsigned I = 0; I < N; ++I)
        if (Dropped(I))
          Seq.removeVar(name(I));

      SCOPED_TRACE("n=" + std::to_string(N) + " stride=" +
                   std::to_string(Stride));
      EXPECT_EQ(G.varNames(), Seq.varNames());
      EXPECT_EQ(G.str(), Seq.str());
      EXPECT_EQ(Sibling.str(), Fresh.str());
      for (unsigned I = 0; I < N; ++I) {
        EXPECT_EQ(G.hasVar(name(I)), !Dropped(I));
        for (unsigned J = 0; J < N; ++J)
          if (I != J && !Dropped(I) && !Dropped(J)) {
            EXPECT_EQ(G.bestBound(name(I), name(J)),
                      Sibling.bestBound(name(I), name(J)));
          }
      }
    }
  }
}

TEST_F(RemoveVarsIfTest, ProjectionStaysClosedAndFeasible) {
  std::mt19937 Rng(2468);
  ConstraintGraph G = randomGraph(Rng, 12);
  ASSERT_TRUE(G.isFeasible());
  G.removeVarsIf(
      [&](VarId Id) { return G.symbols().name(Id).size() > 2; });
  auto Closures = [&] {
    return Stats.counter("cg.closure.full.calls") +
           Stats.counter("cg.closure.incr.calls");
  };
  std::int64_t Before = Closures();
  // Queries on a closed graph never re-close it.
  EXPECT_TRUE(G.isFeasible());
  for (unsigned I = 0; I < 10; ++I)
    for (unsigned J = 0; J < 10; ++J)
      (void)G.bestBound(name(I), name(J));
  EXPECT_EQ(Closures(), Before);
}

TEST_F(RemoveVarsIfTest, NoMatchLeavesGraphShared) {
  std::mt19937 Rng(99);
  ConstraintGraph G = randomGraph(Rng, 5);
  ConstraintGraph Copy = G;
  ASSERT_TRUE(G.sharesStorage());
  G.removeVarsIf([](VarId) { return false; });
  EXPECT_TRUE(G.sharesStorage());
  EXPECT_EQ(G.varNames(), Copy.varNames());
}

TEST_F(RemoveVarsIfTest, ZeroVariableIsNeverOffered) {
  ConstraintGraph G(&Stats);
  G.addUpperBound("x", 3);
  G.addLowerBound("x", 3);
  std::vector<std::string> Offered;
  G.removeVarsIf([&](VarId Id) {
    Offered.push_back(G.symbols().name(Id));
    return false;
  });
  EXPECT_EQ(Offered, std::vector<std::string>{"x"});
  EXPECT_EQ(G.constValue("x"), 3);
}

} // namespace
