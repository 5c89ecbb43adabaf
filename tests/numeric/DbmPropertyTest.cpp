//===- tests/numeric/DbmPropertyTest.cpp - Randomized lattice laws -------------===//
//
// Property tests over randomly generated constraint graphs: the domain
// operations must satisfy the abstract-interpretation laws the pCFG
// engine relies on (closure soundness, join as upper bound, meet as lower
// bound, widening stability, havoc monotonicity). Uses a deterministic
// xorshift generator so failures are reproducible.
//
//===----------------------------------------------------------------------===//

#include "numeric/ClosureKernel.h"
#include "numeric/ConstraintGraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace csdf;

namespace {

class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed | 1) {}

  std::uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1Dull;
  }

  std::int64_t range(std::int64_t Lo, std::int64_t Hi) {
    return Lo + static_cast<std::int64_t>(next() %
                                          static_cast<std::uint64_t>(
                                              Hi - Lo + 1));
  }

private:
  std::uint64_t State;
};

std::string varName(int I) { return "v" + std::to_string(I); }

/// Builds a random feasible-ish graph over NumVars variables.
ConstraintGraph randomGraph(Rng &R, int NumVars, int NumEdges) {
  ConstraintGraph G;
  for (int E = 0; E < NumEdges; ++E) {
    int A = static_cast<int>(R.range(0, NumVars - 1));
    int B = static_cast<int>(R.range(0, NumVars - 1));
    if (A == B)
      continue;
    // Bias toward non-negative bounds so most graphs stay feasible.
    G.addLE(varName(A), varName(B), R.range(-1, 6));
  }
  return G;
}

/// A concrete assignment satisfying... we instead check laws relationally
/// via implies(), which is the graph's own entailment; closure soundness
/// is checked by sampling entailed facts.
class DbmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DbmPropertyTest, JoinIsUpperBound) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 5, 8);
    ConstraintGraph B = randomGraph(R, 5, 8);
    ConstraintGraph J = A;
    J.joinWith(B);
    EXPECT_TRUE(A.implies(J)) << "A must refine join(A,B)";
    EXPECT_TRUE(B.implies(J)) << "B must refine join(A,B)";
  }
}

TEST_P(DbmPropertyTest, JoinIsCommutativeUpToEquivalence) {
  Rng R(GetParam() + 100);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 4, 7);
    ConstraintGraph B = randomGraph(R, 4, 7);
    ConstraintGraph AB = A;
    AB.joinWith(B);
    ConstraintGraph BA = B;
    BA.joinWith(A);
    EXPECT_TRUE(AB.equals(BA));
  }
}

TEST_P(DbmPropertyTest, MeetIsLowerBound) {
  Rng R(GetParam() + 200);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 5, 6);
    ConstraintGraph B = randomGraph(R, 5, 6);
    ConstraintGraph M = A;
    M.meetWith(B);
    EXPECT_TRUE(M.implies(A));
    EXPECT_TRUE(M.implies(B));
  }
}

TEST_P(DbmPropertyTest, WideningIsUpperBoundOfOldState) {
  Rng R(GetParam() + 300);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph Old = randomGraph(R, 5, 8);
    ConstraintGraph New = randomGraph(R, 5, 8);
    ConstraintGraph W = Old;
    W.widenWith(New);
    EXPECT_TRUE(Old.implies(W));
    EXPECT_TRUE(New.implies(W));
  }
}

TEST_P(DbmPropertyTest, WideningChainStabilizes) {
  // Repeated widening against ever-weaker states must reach a fixpoint
  // quickly (thresholds add at most a constant number of extra steps).
  Rng R(GetParam() + 400);
  ConstraintGraph State;
  State.assign("x", LinearExpr(0));
  State.addLowerBound("n", 4);
  int Steps = 0;
  for (; Steps < 20; ++Steps) {
    ConstraintGraph Next = State;
    Next.assign("x", LinearExpr("x", static_cast<std::int64_t>(
                                         R.range(1, 3))));
    ConstraintGraph W = State;
    W.widenWith(Next);
    if (W.equals(State))
      break;
    State = W;
  }
  EXPECT_LT(Steps, 10) << "widening chain too long";
}

TEST_P(DbmPropertyTest, GraphAgreesWithReferenceClosure) {
  // The same random constraints go into a ConstraintGraph (flat kernels,
  // cold batching, single-edge repair once warm) and into a plain matrix
  // closed once by the reference Floyd-Warshall loop.
  Rng R(GetParam() + 500);
  constexpr int NumVars = 5;
  for (int Trial = 0; Trial < 10; ++Trial) {
    ConstraintGraph G;
    DbmStorage Ref;
    Ref.resize(NumVars);
    for (int I = 0; I < NumVars; ++I)
      Ref.set(I, I, 0);
    bool Seen[NumVars] = {};
    for (int E = 0; E < 9; ++E) {
      int A = static_cast<int>(R.range(0, NumVars - 1));
      int B = static_cast<int>(R.range(0, NumVars - 1));
      std::int64_t C = R.range(-1, 6);
      // A query mid-build closes the graph, so later tightenings take the
      // warm single-edge repair path instead of the cold batch.
      if (R.range(0, 2) == 0)
        G.isFeasible();
      if (A == B)
        continue;
      G.addLE(varName(A), varName(B), C);
      Seen[A] = Seen[B] = true;
      Ref.set(A, B, std::min(Ref.get(A, B), C));
    }
    bool RefFeasible = kernel::fullCloseRef(Ref);
    ASSERT_EQ(G.isFeasible(), RefFeasible) << "trial " << Trial;
    if (!RefFeasible)
      continue;
    for (int A = 0; A < NumVars; ++A)
      for (int B = 0; B < NumVars; ++B) {
        if (A == B)
          continue;
        std::optional<std::int64_t> Want;
        if (Seen[A] && Seen[B] && Ref.get(A, B) < DbmInfinity)
          Want = Ref.get(A, B);
        EXPECT_EQ(G.bestBound(varName(A), varName(B)), Want)
            << "trial " << Trial << ": " << varName(A) << " vs "
            << varName(B);
      }
  }
}

TEST_P(DbmPropertyTest, HavocWeakens) {
  Rng R(GetParam() + 600);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 5, 8);
    if (!A.isFeasible())
      continue;
    ConstraintGraph H = A;
    H.havoc(varName(static_cast<int>(R.range(0, 4))));
    EXPECT_TRUE(A.implies(H));
  }
}

TEST_P(DbmPropertyTest, RemoveVarPreservesOtherEntailments) {
  Rng R(GetParam() + 700);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 5, 9);
    if (!A.isFeasible())
      continue;
    ConstraintGraph P = A;
    P.removeVar(varName(2));
    for (int X : {0, 1, 3, 4})
      for (int Y : {0, 1, 3, 4}) {
        if (X == Y)
          continue;
        EXPECT_EQ(A.bestBound(varName(X), varName(Y)),
                  P.bestBound(varName(X), varName(Y)));
      }
  }
}

TEST_P(DbmPropertyTest, RemoveVarsIfPreservesOtherEntailments) {
  Rng R(GetParam() + 800);
  for (int Trial = 0; Trial < 20; ++Trial) {
    ConstraintGraph A = randomGraph(R, 7, 14);
    if (!A.isFeasible())
      continue;
    ConstraintGraph P = A;
    P.removeVarsIf([&](VarId Id) {
      const std::string &Var = P.symbols().name(Id);
      return Var == varName(1) || Var == varName(3) || Var == varName(4);
    });
    for (int X : {0, 2, 5, 6})
      for (int Y : {0, 2, 5, 6}) {
        if (X == Y)
          continue;
        EXPECT_EQ(A.bestBound(varName(X), varName(Y)),
                  P.bestBound(varName(X), varName(Y)));
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbmPropertyTest,
                         ::testing::Values(1, 7, 42, 1234, 987654));

} // namespace
