//===- tests/numeric/ConstraintGraphTest.cpp - DBM domain tests --------------===//

#include "numeric/ConstraintGraph.h"

#include <gtest/gtest.h>

using namespace csdf;

namespace {

class ConstraintGraphTest : public ::testing::Test {
protected:
  ConstraintGraph make() { return ConstraintGraph(); }
};

TEST_F(ConstraintGraphTest, EmptyGraphIsFeasibleTop) {
  ConstraintGraph G = make();
  EXPECT_TRUE(G.isFeasible());
  EXPECT_EQ(G.numVars(), 0u);
}

TEST_F(ConstraintGraphTest, TransitivityIsClosed) {
  ConstraintGraph G = make();
  G.addLE("a", "b", 1); // a <= b + 1
  G.addLE("b", "c", 2); // b <= c + 2
  EXPECT_TRUE(G.provesLE(LinearExpr("a", 0), LinearExpr("c", 3)));
  EXPECT_FALSE(G.provesLE(LinearExpr("a", 0), LinearExpr("c", 2)));
}

TEST_F(ConstraintGraphTest, ContradictionIsInfeasible) {
  ConstraintGraph G = make();
  G.addUpperBound("x", 3);
  G.addLowerBound("x", 5);
  EXPECT_FALSE(G.isFeasible());
}

TEST_F(ConstraintGraphTest, InfeasibleProvesEverything) {
  ConstraintGraph G = make();
  G.addUpperBound("x", 0);
  G.addLowerBound("x", 1);
  EXPECT_TRUE(G.provesLE(LinearExpr(100), LinearExpr(0)));
}

TEST_F(ConstraintGraphTest, ConstValueDetection) {
  ConstraintGraph G = make();
  G.addEQ(LinearExpr("x", 0), LinearExpr(5));
  EXPECT_EQ(G.constValue("x"), 5);
  EXPECT_FALSE(G.constValue("y").has_value());
}

TEST_F(ConstraintGraphTest, EqualityPropagatesThroughChain) {
  ConstraintGraph G = make();
  G.addEQ(LinearExpr("x", 0), LinearExpr("y", 1)); // x = y + 1
  G.addEQ(LinearExpr("y", 0), LinearExpr(4));
  EXPECT_EQ(G.constValue("x"), 5);
  EXPECT_EQ(G.offsetBetween("x", "y"), 1);
}

TEST_F(ConstraintGraphTest, SameVarComparisonsNeedNoGraph) {
  ConstraintGraph G = make();
  EXPECT_TRUE(G.provesLE(LinearExpr("q", 1), LinearExpr("q", 2)));
  EXPECT_FALSE(G.provesLE(LinearExpr("q", 2), LinearExpr("q", 1)));
}

TEST_F(ConstraintGraphTest, AssignConstant) {
  ConstraintGraph G = make();
  G.assign("x", LinearExpr(7));
  EXPECT_EQ(G.constValue("x"), 7);
  G.assign("x", LinearExpr(9));
  EXPECT_EQ(G.constValue("x"), 9);
}

TEST_F(ConstraintGraphTest, AssignVarPlusConst) {
  ConstraintGraph G = make();
  G.assign("y", LinearExpr(3));
  G.assign("x", LinearExpr("y", 2));
  EXPECT_EQ(G.constValue("x"), 5);
  // Reassigning y must not retroactively change x.
  G.assign("y", LinearExpr(100));
  EXPECT_EQ(G.constValue("x"), 5);
}

TEST_F(ConstraintGraphTest, SelfIncrementShiftsExactly) {
  ConstraintGraph G = make();
  G.assign("i", LinearExpr(1));
  G.assign("i", LinearExpr("i", 1)); // i := i + 1
  EXPECT_EQ(G.constValue("i"), 2);
}

TEST_F(ConstraintGraphTest, SelfIncrementPreservesRelations) {
  ConstraintGraph G = make();
  G.addEQ(LinearExpr("i", 0), LinearExpr("n", 0)); // i == n
  G.assign("i", LinearExpr("i", 1));
  EXPECT_EQ(G.offsetBetween("i", "n"), 1); // i == n + 1
}

TEST_F(ConstraintGraphTest, HavocForgetsOnlyOneVariable) {
  ConstraintGraph G = make();
  G.assign("x", LinearExpr(1));
  G.assign("y", LinearExpr(2));
  G.havoc("x");
  EXPECT_FALSE(G.constValue("x").has_value());
  EXPECT_EQ(G.constValue("y"), 2);
}

TEST_F(ConstraintGraphTest, HavocKeepsImpliedFacts) {
  ConstraintGraph G = make();
  G.addLE("a", "b", 0);
  G.addLE("b", "c", 0);
  G.havoc("b");
  // a <= c survives through the closure even though b is gone.
  EXPECT_TRUE(G.provesLE(LinearExpr("a", 0), LinearExpr("c", 0)));
}

TEST_F(ConstraintGraphTest, RemoveVarProjects) {
  ConstraintGraph G = make();
  G.addLE("a", "b", 1);
  G.addLE("b", "c", 1);
  G.removeVar("b");
  EXPECT_FALSE(G.hasVar("b"));
  EXPECT_TRUE(G.provesLE(LinearExpr("a", 0), LinearExpr("c", 2)));
}

TEST_F(ConstraintGraphTest, JoinKeepsCommonFacts) {
  ConstraintGraph A = make();
  A.assign("x", LinearExpr(1));
  ConstraintGraph B = make();
  B.assign("x", LinearExpr(3));
  A.joinWith(B);
  EXPECT_TRUE(A.isFeasible());
  EXPECT_FALSE(A.constValue("x").has_value());
  // But the range [1..3] is retained.
  EXPECT_TRUE(A.provesLE(LinearExpr("x", 0), LinearExpr(3)));
  EXPECT_TRUE(A.provesLE(LinearExpr(1), LinearExpr("x", 0)));
}

TEST_F(ConstraintGraphTest, JoinWithInfeasibleIsIdentity) {
  ConstraintGraph A = make();
  A.assign("x", LinearExpr(1));
  ConstraintGraph Bot = make();
  Bot.addUpperBound("q", 0);
  Bot.addLowerBound("q", 1);
  A.joinWith(Bot);
  EXPECT_EQ(A.constValue("x"), 1);

  ConstraintGraph Bot2 = make();
  Bot2.addUpperBound("q", 0);
  Bot2.addLowerBound("q", 1);
  ConstraintGraph B = make();
  B.assign("y", LinearExpr(2));
  Bot2.joinWith(B);
  EXPECT_EQ(Bot2.constValue("y"), 2);
}

TEST_F(ConstraintGraphTest, JoinUnionOfVariableSets) {
  ConstraintGraph A = make();
  A.assign("x", LinearExpr(1));
  ConstraintGraph B = make();
  B.assign("y", LinearExpr(2));
  A.joinWith(B);
  // x constrained only on one side -> unconstrained after join.
  EXPECT_FALSE(A.constValue("x").has_value());
  EXPECT_FALSE(A.constValue("y").has_value());
}

TEST_F(ConstraintGraphTest, MeetConjoins) {
  ConstraintGraph A = make();
  A.addUpperBound("x", 5);
  ConstraintGraph B = make();
  B.addLowerBound("x", 5);
  A.meetWith(B);
  EXPECT_EQ(A.constValue("x"), 5);
}

TEST_F(ConstraintGraphTest, MeetCanBecomeInfeasible) {
  ConstraintGraph A = make();
  A.addUpperBound("x", 1);
  ConstraintGraph B = make();
  B.addLowerBound("x", 2);
  A.meetWith(B);
  EXPECT_FALSE(A.isFeasible());
}

TEST_F(ConstraintGraphTest, WideningDropsUnstableBounds) {
  ConstraintGraph Old = make();
  Old.assign("i", LinearExpr(1)); // i == 1
  ConstraintGraph New = make();
  New.assign("i", LinearExpr(2)); // i == 2
  New.addLowerBound("i", 1);      // also knows i >= 1
  Old.widenWith(New);
  // Upper bound unstable -> dropped; lower bound stable -> kept.
  EXPECT_FALSE(Old.constValue("i").has_value());
  EXPECT_TRUE(Old.provesLE(LinearExpr(1), LinearExpr("i", 0)));
  EXPECT_FALSE(Old.provesLE(LinearExpr("i", 0), LinearExpr(1000000)));
}

TEST_F(ConstraintGraphTest, WideningReachesFixpoint) {
  // Simulating i = 1; while ... i = i + 1: widening must converge.
  ConstraintGraph State = make();
  State.assign("i", LinearExpr(1));
  for (int Iter = 0; Iter < 3; ++Iter) {
    ConstraintGraph Next = State;
    Next.assign("i", LinearExpr("i", 1));
    ConstraintGraph Widened = State;
    Widened.widenWith(Next);
    if (Widened.equals(State))
      break;
    State = Widened;
    EXPECT_LT(Iter, 2) << "widening failed to converge";
  }
  EXPECT_TRUE(State.provesLE(LinearExpr(1), LinearExpr("i", 0)));
}

TEST_F(ConstraintGraphTest, ImpliesIsReflexiveAndOrdered) {
  ConstraintGraph A = make();
  A.assign("x", LinearExpr(5));
  ConstraintGraph B = make();
  B.addUpperBound("x", 10);
  EXPECT_TRUE(A.implies(A));
  EXPECT_TRUE(A.implies(B));
  EXPECT_FALSE(B.implies(A));
}

TEST_F(ConstraintGraphTest, EquivalentFormsFindsAliases) {
  ConstraintGraph G = make();
  G.addEQ(LinearExpr("ub", 0), LinearExpr("i", -1)); // ub == i - 1
  G.addEQ(LinearExpr("i", 0), LinearExpr(3));
  std::vector<LinearExpr> Forms =
      G.equivalentForms(LinearExpr("ub", 0));
  // Expect ub, i-1, and the constant 2.
  EXPECT_NE(std::find(Forms.begin(), Forms.end(), LinearExpr("ub", 0)),
            Forms.end());
  EXPECT_NE(std::find(Forms.begin(), Forms.end(), LinearExpr("i", -1)),
            Forms.end());
  EXPECT_NE(std::find(Forms.begin(), Forms.end(), LinearExpr(2)),
            Forms.end());
}

TEST_F(ConstraintGraphTest, RenameVars) {
  ConstraintGraph G = make();
  G.assign("s.x", LinearExpr(4));
  G.assign("y", LinearExpr(1));
  SymbolTable &Syms = *G.symbolsPtr();
  G.renameNamespaces({{Syms.internNs("s"), Syms.internNs("t")}});
  EXPECT_FALSE(G.hasVar("s.x"));
  EXPECT_EQ(G.constValue("t.x"), 4);
  EXPECT_EQ(G.constValue("y"), 1) << "names without a namespace stay";
}

TEST_F(ConstraintGraphTest, SwapRename) {
  ConstraintGraph G = make();
  G.assign("a.v", LinearExpr(1));
  G.assign("b.v", LinearExpr(2));
  G.addLE(LinearExpr("a.v", 0), LinearExpr("b.v", -1));
  SymbolTable &Syms = *G.symbolsPtr();
  NsId A = Syms.internNs("a"), B = Syms.internNs("b");
  G.renameNamespaces({{A, B}, {B, A}});
  EXPECT_EQ(G.constValue("a.v"), 2);
  EXPECT_EQ(G.constValue("b.v"), 1);
  EXPECT_TRUE(G.provesLE(LinearExpr("b.v", 0), LinearExpr("a.v", -1)));
}

TEST_F(ConstraintGraphTest, StrMentionsConstraints) {
  ConstraintGraph G = make();
  G.addUpperBound("x", 3);
  std::string S = G.str();
  EXPECT_NE(S.find("x"), std::string::npos);
}

TEST_F(ConstraintGraphTest, StatsCountClosures) {
  StatsRegistry Local;
  ConstraintGraph G(&Local);
  G.addLE("a", "b", 0);
  G.isFeasible(); // Triggers one closure (incremental: single edge).
  G.addLE("b", "c", 0);
  G.addLE("c", "a", 0);
  G.isFeasible();
  EXPECT_GT(Local.counter("cg.closure.incr.calls") +
                Local.counter("cg.closure.full.calls"),
            0);
}

TEST_F(ConstraintGraphTest, LoopCounterScenarioFromFigure5) {
  // Models the exchange-with-root loop head state: i is the loop counter,
  // the released receiver block is [1 .. i-1] after the increment.
  ConstraintGraph G = make();
  G.assign("i", LinearExpr(1));
  G.addLowerBound("np", 2);
  // First iteration body: released block is [i .. i] == [1 .. 1].
  G.assign("lo", LinearExpr("i", 0));
  G.assign("hi", LinearExpr("i", 0));
  G.assign("i", LinearExpr("i", 1));
  // Now lo == i-1 and hi == i-1 must be provable.
  EXPECT_TRUE(G.provesEQ(LinearExpr("lo", 0), LinearExpr("i", -1)));
  EXPECT_TRUE(G.provesEQ(LinearExpr("hi", 0), LinearExpr("i", -1)));
}

} // namespace
