//===- tests/numeric/CowInterningTest.cpp - COW / interning / memo tests -------===//
//
// Tests for the interned-variable, copy-on-write numeric core: SymbolTable
// id stability and namespace ids, CowDbm sharing and detach semantics,
// closure-memo hits, and property-style checks that removeVar /
// removeVarsIf / renameNamespaces / equivalentForms preserve the closed
// form.
//
//===----------------------------------------------------------------------===//

#include "numeric/ConstraintGraph.h"

#include <gtest/gtest.h>

#include <thread>

using namespace csdf;

namespace {

//===----------------------------------------------------------------------===//
// SymbolTable
//===----------------------------------------------------------------------===//

TEST(SymbolTableTest, InternIsIdempotentAndDense) {
  SymbolTable T;
  VarId X = T.intern("x");
  VarId Y = T.intern("y");
  EXPECT_NE(X, Y);
  EXPECT_EQ(T.intern("x"), X);
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(T.name(X), "x");
  EXPECT_EQ(T.name(Y), "y");
}

TEST(SymbolTableTest, LookupDoesNotCreate) {
  SymbolTable T;
  EXPECT_FALSE(T.lookup("ghost").has_value());
  VarId Id = T.intern("ghost");
  ASSERT_TRUE(T.lookup("ghost").has_value());
  EXPECT_EQ(*T.lookup("ghost"), Id);
}

TEST(SymbolTableTest, IdsSurviveLaterInterning) {
  SymbolTable T;
  VarId First = T.intern("a");
  for (int I = 0; I < 100; ++I)
    T.intern("v" + std::to_string(I));
  EXPECT_EQ(T.intern("a"), First);
  EXPECT_EQ(T.name(First), "a");
}

TEST(SymbolTableTest, SplitsNamesAtTheFirstDot) {
  SymbolTable T;
  VarId I = T.intern("p0.i");
  VarId Nested = T.intern("p0.q3.x");
  VarId Bare = T.intern("np");
  VarId Leading = T.intern(".x");
  NsId P0 = T.internNs("p0");
  EXPECT_EQ(T.nsOf(I), P0);
  EXPECT_EQ(T.nsOf(Nested), P0);
  EXPECT_EQ(T.nsName(P0), "p0");
  EXPECT_EQ(T.nsOf(Bare), NoNs);
  EXPECT_EQ(T.nsOf(Leading), NoNs);
  EXPECT_EQ(T.lookupNs("p0"), P0);
  EXPECT_FALSE(T.lookupNs("q3").has_value())
      << "only the first component is a namespace";
}

TEST(SymbolTableTest, InNamespaceFindsOrCreatesTheSibling) {
  SymbolTable T;
  VarId I0 = T.intern("p0.i");
  VarId I1 = T.intern("p1.i");
  NsId P1 = T.internNs("p1"), P2 = T.internNs("p2");
  EXPECT_EQ(T.inNamespace(I0, P1), I1);
  EXPECT_EQ(T.inNamespace(I0, T.nsOf(I0)), I0);
  std::size_t Before = T.size();
  VarId I2 = T.inNamespace(I0, P2);
  EXPECT_EQ(T.size(), Before + 1);
  EXPECT_EQ(T.name(I2), "p2.i");
  EXPECT_EQ(T.nsOf(I2), P2);
  // Memoized: the second request creates nothing and agrees with intern.
  EXPECT_EQ(T.inNamespace(I0, P2), I2);
  EXPECT_EQ(T.size(), Before + 1);
  EXPECT_EQ(T.intern("p2.i"), I2);
  // The local part after the first dot is kept whole.
  VarId Nested = T.intern("p0.q3.x");
  EXPECT_EQ(T.name(T.inNamespace(Nested, P1)), "p1.q3.x");
  // Names without a namespace have no sibling.
  VarId Np = T.intern("np");
  EXPECT_EQ(T.inNamespace(Np, P1), Np);
}

TEST(SymbolTableTest, RenameNamespacesRemapsIdsWithoutCopying) {
  StatsRegistry Stats;
  auto Syms = std::make_shared<SymbolTable>();
  ConstraintGraph G(&Stats, Syms);
  G.assign("p0.i", LinearExpr(1));
  G.assign("p1.i", LinearExpr(2));
  G.assign("p2.i", LinearExpr(3));
  G.addUpperBound("np", 9);
  ASSERT_TRUE(G.isFeasible());
  ConstraintGraph Copy = G;
  std::vector<std::string> SlotsBefore = G.varNames();
  NsId P0 = Syms->internNs("p0"), P1 = Syms->internNs("p1"),
       P2 = Syms->internNs("p2");
  // A 3-cycle p0 -> p1 -> p2 -> p0, applied at once.
  G.renameNamespaces({{P0, P1}, {P1, P2}, {P2, P0}});
  EXPECT_TRUE(G.sharesStorage());
  EXPECT_EQ(Stats.counter("cg.cow.detaches"), 0);
  EXPECT_EQ(G.constValue("p1.i"), 1);
  EXPECT_EQ(G.constValue("p2.i"), 2);
  EXPECT_EQ(G.constValue("p0.i"), 3);
  EXPECT_TRUE(G.provesLE(LinearExpr("np", 0), LinearExpr(9)));
  // Slots keep their positions; only the names behind them moved.
  std::vector<std::string> SlotsAfter = G.varNames();
  ASSERT_EQ(SlotsAfter.size(), SlotsBefore.size());
  EXPECT_EQ(SlotsAfter[0], "p1.i");
  EXPECT_EQ(SlotsAfter[1], "p2.i");
  EXPECT_EQ(SlotsAfter[2], "p0.i");
  EXPECT_EQ(SlotsAfter[3], "np");
  // The copy is untouched.
  EXPECT_EQ(Copy.constValue("p0.i"), 1);
  // The empty renaming is a no-op.
  G.renameNamespaces({});
  EXPECT_EQ(G.varNames(), SlotsAfter);
}

TEST(SymbolTableTest, GraphsShareOneTable) {
  auto Syms = std::make_shared<SymbolTable>();
  ConstraintGraph A(&StatsRegistry::global(), Syms);
  ConstraintGraph B(&StatsRegistry::global(), Syms);
  A.ensureVar("x");
  B.ensureVar("x");
  ASSERT_EQ(A.varIds().size(), 1u);
  ASSERT_EQ(B.varIds().size(), 1u);
  EXPECT_EQ(A.varIds()[0], B.varIds()[0]);
  EXPECT_EQ(&A.symbols(), &B.symbols());
}

//===----------------------------------------------------------------------===//
// Copy-on-write sharing
//===----------------------------------------------------------------------===//

class CowTest : public ::testing::Test {
protected:
  ConstraintGraph make() {
    return ConstraintGraph(&Stats, Syms, Memo);
  }
  StatsRegistry Stats;
  SymbolTablePtr Syms = std::make_shared<SymbolTable>();
  ClosureMemoPtr Memo; // Off unless a test opts in.
};

TEST_F(CowTest, CopySharesUntilMutation) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 3);
  ConstraintGraph B = A;
  EXPECT_TRUE(A.sharesStorage());
  EXPECT_TRUE(B.sharesStorage());
  EXPECT_EQ(Stats.counter("cg.cow.copies"), 1);
  EXPECT_EQ(Stats.counter("cg.cow.detaches"), 0);

  // Queries never detach.
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr("y", 3)));
  EXPECT_TRUE(B.sharesStorage());

  // First mutation detaches exactly once.
  B.addLE("x", "y", 1);
  EXPECT_EQ(Stats.counter("cg.cow.detaches"), 1);
  EXPECT_FALSE(A.sharesStorage());
  EXPECT_FALSE(B.sharesStorage());
}

TEST_F(CowTest, MutatingCopyLeavesOriginalIntact) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 5);
  ConstraintGraph B = A;
  B.addLE("x", "y", 1);
  B.addUpperBound("x", 0);
  // A still only knows x <= y + 5.
  EXPECT_TRUE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 5)));
  EXPECT_FALSE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 1)));
  EXPECT_FALSE(A.provesLE(LinearExpr("x", 0), LinearExpr(0)));
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr("y", 1)));
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr(0)));
}

TEST_F(CowTest, ClosureThroughOneCopyIsVisibleToAll) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 1);
  A.addLE("y", "z", 1);
  ConstraintGraph B = A; // Shares the unclosed matrix.

  // Closing A closes the shared block; B must not pay again.
  A.close();
  std::int64_t ClosuresAfterA = Stats.counter("cg.closure.full.calls") +
                                Stats.counter("cg.closure.incr.calls");
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr("z", 2)));
  EXPECT_EQ(Stats.counter("cg.closure.full.calls") +
                Stats.counter("cg.closure.incr.calls"),
            ClosuresAfterA);
}

TEST_F(CowTest, EnsureVarOnCopyDoesNotResizeOriginal) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 2);
  ConstraintGraph B = A;
  B.ensureVar("fresh");
  EXPECT_EQ(B.numVars(), 3u);
  EXPECT_EQ(A.numVars(), 2u);
  EXPECT_TRUE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 2)));
}

TEST_F(CowTest, SelfAssignIsSafe) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 2);
  A = *&A;
  EXPECT_TRUE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 2)));
}

TEST_F(CowTest, ChainedCopiesDetachIndependently) {
  ConstraintGraph A = make();
  A.addLE("x", "y", 4);
  ConstraintGraph B = A;
  ConstraintGraph C = B;
  C.addLE("x", "y", 2);
  B.addLE("x", "y", 3);
  EXPECT_TRUE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 4)));
  EXPECT_FALSE(A.provesLE(LinearExpr("x", 0), LinearExpr("y", 3)));
  EXPECT_TRUE(B.provesLE(LinearExpr("x", 0), LinearExpr("y", 3)));
  EXPECT_FALSE(B.provesLE(LinearExpr("x", 0), LinearExpr("y", 2)));
  EXPECT_TRUE(C.provesLE(LinearExpr("x", 0), LinearExpr("y", 2)));
}

//===----------------------------------------------------------------------===//
// Closure memo
//===----------------------------------------------------------------------===//

class MemoTest : public ::testing::Test {
protected:
  ConstraintGraph make() {
    return ConstraintGraph(&Stats, Syms, Memo);
  }
  /// A graph whose close() takes the full-closure path: a cold matrix
  /// (never closed) batches every tightening after the first, so the next
  /// close is a full Floyd-Warshall the memo serves.
  ConstraintGraph makeNeedingFullClose(std::int64_t Seed) {
    ConstraintGraph G = make();
    G.addLE("a", "b", Seed);
    G.addLE("b", "c", Seed + 1);
    G.addLE("c", "d", Seed + 2);
    return G;
  }
  StatsRegistry Stats;
  SymbolTablePtr Syms = std::make_shared<SymbolTable>();
  ClosureMemoPtr Memo = std::make_shared<ClosureMemo>();
};

TEST_F(MemoTest, SecondIdenticalCloseHitsMemo) {
  ConstraintGraph A = makeNeedingFullClose(1);
  A.close();
  std::int64_t Misses = Stats.counter("cg.closure.memo.misses");
  std::int64_t Hits = Stats.counter("cg.closure.memo.hits");
  EXPECT_GT(Misses, 0);

  ConstraintGraph B = makeNeedingFullClose(1);
  B.close();
  EXPECT_GT(Stats.counter("cg.closure.memo.hits"), Hits);
  EXPECT_TRUE(A.equals(B));
}

TEST_F(MemoTest, DifferentConstraintsMissMemo) {
  ConstraintGraph A = makeNeedingFullClose(1);
  A.close();
  ConstraintGraph B = makeNeedingFullClose(7);
  B.close();
  EXPECT_EQ(Stats.counter("cg.closure.memo.hits"), 0);
  EXPECT_FALSE(A.equals(B));
}

TEST_F(MemoTest, MutatingAdoptedResultDoesNotCorruptMemo) {
  ConstraintGraph A = makeNeedingFullClose(1);
  A.close(); // Inserted into the memo.
  ConstraintGraph B = makeNeedingFullClose(1);
  B.close(); // Adopts the memoized block.
  B.addUpperBound("a", -100); // Must detach from the memo entry.

  ConstraintGraph C = makeNeedingFullClose(1);
  C.close(); // Hits the memo again; must match A, not B.
  EXPECT_TRUE(C.equals(A));
  EXPECT_FALSE(C.equals(B));
}

TEST_F(MemoTest, InfeasibleResultIsMemoizedCorrectly) {
  auto MakeInfeasible = [&]() {
    ConstraintGraph G = makeNeedingFullClose(1);
    ConstraintGraph H = make();
    H.addLE("a", "b", -5);
    H.addLE("b", "a", -5); // Cycle of weight -10.
    G.meetWith(H);
    return G;
  };
  ConstraintGraph A = MakeInfeasible();
  EXPECT_FALSE(A.isFeasible());
  ConstraintGraph B = MakeInfeasible();
  EXPECT_FALSE(B.isFeasible());
}

//===----------------------------------------------------------------------===//
// Property-style checks: mutations preserve the closed form
//===----------------------------------------------------------------------===//

class ClosedFormPropertyTest : public ::testing::Test {
protected:
  /// Deterministic pseudo-random graph over N named variables.
  ConstraintGraph randomGraph(unsigned N, std::uint64_t Seed) {
    ConstraintGraph G(&Stats);
    std::uint64_t State = Seed * 6364136223846793005ull + 1442695040888963407ull;
    auto Next = [&]() {
      State = State * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<std::uint32_t>(State >> 33);
    };
    for (unsigned E = 0; E < 3 * N; ++E) {
      unsigned I = Next() % N;
      unsigned J = Next() % N;
      if (I == J)
        continue;
      // Non-negative weights keep the graph feasible.
      G.addLE(name(I), name(J), static_cast<std::int64_t>(Next() % 17));
    }
    return G;
  }
  static std::string name(unsigned I) { return "v" + std::to_string(I); }
  StatsRegistry Stats;
};

TEST_F(ClosedFormPropertyTest, RemoveVarPreservesRemainingBounds) {
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G = randomGraph(6, Seed);
    ASSERT_TRUE(G.isFeasible());
    ConstraintGraph Before = G;
    G.removeVar(name(2));
    for (unsigned I = 0; I < 6; ++I) {
      for (unsigned J = 0; J < 6; ++J) {
        if (I == J || I == 2 || J == 2)
          continue;
        EXPECT_EQ(G.bestBound(name(I), name(J)),
                  Before.bestBound(name(I), name(J)))
            << "seed " << Seed << " pair v" << I << " v" << J;
      }
    }
  }
}

TEST_F(ClosedFormPropertyTest, RemoveVarsIfPreservesRemainingBounds) {
  auto Dropped = [](unsigned I) { return I == 1 || I == 2 || I == 4; };
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G = randomGraph(7, Seed);
    ASSERT_TRUE(G.isFeasible());
    ConstraintGraph Before = G;
    G.removeVarsIf([&](VarId Id) {
      const std::string &Var = G.symbols().name(Id);
      for (unsigned I = 0; I < 7; ++I)
        if (Dropped(I) && Var == name(I))
          return true;
      return false;
    });
    for (unsigned I = 0; I < 7; ++I) {
      EXPECT_EQ(G.hasVar(name(I)), Before.hasVar(name(I)) && !Dropped(I));
      for (unsigned J = 0; J < 7; ++J) {
        if (I == J || Dropped(I) || Dropped(J))
          continue;
        EXPECT_EQ(G.bestBound(name(I), name(J)),
                  Before.bestBound(name(I), name(J)))
            << "seed " << Seed << " pair v" << I << " v" << J;
      }
    }
  }
}

TEST_F(ClosedFormPropertyTest, RenameVarsPreservesBoundsUnderNewNames) {
  // The variables live in namespaces a.* and b.*; swapping the two
  // namespaces renames every variable at once.
  auto Scoped = [](const char *Ns, unsigned I) {
    return std::string(Ns) + ".v" + std::to_string(I);
  };
  auto NsOf = [](unsigned I) { return I % 2 ? "b" : "a"; };
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G(&Stats);
    std::uint64_t State = Seed * 0x9E3779B97F4A7C15ull;
    for (unsigned I = 0; I < 5; ++I)
      for (unsigned J = 0; J < 5; ++J) {
        State = State * 6364136223846793005ull + 1442695040888963407ull;
        if (I != J)
          G.addLE(Scoped(NsOf(I), I), Scoped(NsOf(J), J),
                  static_cast<std::int64_t>((State >> 33) % 17));
      }
    ConstraintGraph Before = G;
    SymbolTable &Syms = *G.symbolsPtr();
    NsId A = Syms.internNs("a"), B = Syms.internNs("b");
    G.renameNamespaces({{A, B}, {B, A}});
    EXPECT_TRUE(G.sharesStorage()) << "a rename must not copy the matrix";
    for (unsigned I = 0; I < 5; ++I) {
      for (unsigned J = 0; J < 5; ++J) {
        if (I == J)
          continue;
        const char *SwappedI = NsOf(I)[0] == 'a' ? "b" : "a";
        const char *SwappedJ = NsOf(J)[0] == 'a' ? "b" : "a";
        EXPECT_EQ(G.bestBound(Scoped(SwappedI, I), Scoped(SwappedJ, J)),
                  Before.bestBound(Scoped(NsOf(I), I), Scoped(NsOf(J), J)))
            << "seed " << Seed;
      }
    }
  }
}

TEST_F(ClosedFormPropertyTest, EquivalentFormsAreProvablyEqual) {
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G = randomGraph(5, Seed);
    // Pin a couple of equalities so equivalentForms has something to find.
    G.addEQ(LinearExpr(name(0), 0), LinearExpr(name(1), 3));
    G.addEQ(LinearExpr(name(3), 0), LinearExpr(42));
    for (unsigned V = 0; V < 5; ++V) {
      LinearExpr E(name(V), 1);
      for (const LinearExpr &Form : G.equivalentForms(E))
        EXPECT_TRUE(G.provesEQ(E, Form))
            << "seed " << Seed << ": " << E.str() << " vs " << Form.str();
    }
  }
}

TEST_F(ClosedFormPropertyTest, ResolvedFormQueriesMatchStringQueries) {
  for (std::uint64_t Seed = 1; Seed <= 5; ++Seed) {
    ConstraintGraph G = randomGraph(5, Seed);
    for (unsigned I = 0; I < 5; ++I) {
      for (unsigned J = 0; J < 5; ++J) {
        for (std::int64_t C : {-3, 0, 3}) {
          LinearExpr L(name(I), 0), R(name(J), C);
          EXPECT_EQ(G.provesLE(G.resolve(L), G.resolve(R)),
                    G.provesLE(L, R))
              << "seed " << Seed;
        }
      }
    }
    // Forms mentioning unknown variables behave like the string path too.
    LinearExpr Unknown("never-seen", 0);
    EXPECT_EQ(G.provesLE(G.resolve(Unknown), G.resolve(LinearExpr(5))),
              G.provesLE(Unknown, LinearExpr(5)));
    EXPECT_EQ(G.provesLE(G.resolve(Unknown), G.resolve(Unknown)),
              G.provesLE(Unknown, Unknown));
  }
}

//===----------------------------------------------------------------------===//
// Thread-safe stats
//===----------------------------------------------------------------------===//

TEST(StatsThreadSafetyTest, ConcurrentCountersSumExactly) {
  StatsRegistry R;
  constexpr int Threads = 4;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&R]() {
      for (int I = 0; I < PerThread; ++I)
        R.addCounter("shared.counter");
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(R.counter("shared.counter"), Threads * PerThread);
}

} // namespace
