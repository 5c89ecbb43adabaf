//===- tests/procset/ProcSetTest.cpp - Symbolic range tests -------------------===//

#include "procset/ProcSet.h"

#include <gtest/gtest.h>

#include <random>

using namespace csdf;

namespace {

class ProcSetTest : public ::testing::Test {
protected:
  ConstraintGraph G;

  void SetUp() override {
    // A typical analysis context: 2 <= np, i == 2.
    G.addLowerBound("np", 2);
    G.assign("i", LinearExpr(2));
  }
};

TEST_F(ProcSetTest, AllRangeIsNonEmpty) {
  EXPECT_TRUE(ProcRange::all().provablyNonEmpty(G));
  EXPECT_FALSE(ProcRange::all().provablyEmpty(G));
}

TEST_F(ProcSetTest, SingletonIsSingleton) {
  ProcRange R = ProcRange::singleton(LinearExpr(0));
  EXPECT_TRUE(R.provablySingleton(G));
  EXPECT_TRUE(R.provablyNonEmpty(G));
}

TEST_F(ProcSetTest, EmptyWhenUbBelowLb) {
  ProcRange R(LinearExpr(3), LinearExpr(2));
  EXPECT_TRUE(R.provablyEmpty(G));
  EXPECT_FALSE(R.provablyNonEmpty(G));
}

TEST_F(ProcSetTest, SymbolicEmptinessNeedsFacts) {
  // [np .. np-1] is provably empty for any np.
  ProcRange R(LinearExpr("np", 0), LinearExpr("np", -1));
  EXPECT_TRUE(R.provablyEmpty(G));
}

TEST_F(ProcSetTest, UnknownRelationIsNeither) {
  // [a .. b] with nothing known: neither empty nor non-empty provable.
  ProcRange R(LinearExpr("a", 0), LinearExpr("b", 0));
  EXPECT_FALSE(R.provablyEmpty(G));
  EXPECT_FALSE(R.provablyNonEmpty(G));
}

TEST_F(ProcSetTest, AdjacencyThroughConstraintGraph) {
  // [1 .. i-1] and [i .. i] are adjacent because i's value is irrelevant.
  ProcRange A(LinearExpr(1), LinearExpr("i", -1));
  ProcRange B = ProcRange::singleton(LinearExpr("i", 0));
  EXPECT_TRUE(provablyAdjacent(A, B, G));
  EXPECT_FALSE(provablyAdjacent(B, A, G));
}

TEST_F(ProcSetTest, AdjacencyViaConstValue) {
  // i == 2, so [1 .. 1] and [i .. np-1] are adjacent.
  ProcRange A(LinearExpr(1), LinearExpr(1));
  ProcRange B(LinearExpr("i", 0), LinearExpr("np", -1));
  EXPECT_TRUE(provablyAdjacent(A, B, G));
}

TEST_F(ProcSetTest, MergeAdjacent) {
  ProcRange A(LinearExpr(1), LinearExpr("i", -1));
  ProcRange B(LinearExpr("i", 0), LinearExpr("np", -1));
  auto M = tryMerge(A, B, G);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->lb().primary(), LinearExpr(1));
  EXPECT_EQ(M->ub().primary(), LinearExpr("np", -1));
}

TEST_F(ProcSetTest, MergeContained) {
  ProcRange A(LinearExpr(0), LinearExpr("np", -1));
  ProcRange B(LinearExpr(1), LinearExpr(1));
  auto M = tryMerge(A, B, G);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(provablyEqual(*M, A, G));
}

TEST_F(ProcSetTest, MergeFailsForGap) {
  ProcRange A(LinearExpr(0), LinearExpr(0));
  ProcRange B(LinearExpr(5), LinearExpr(9));
  EXPECT_FALSE(tryMerge(A, B, G).has_value());
}

TEST_F(ProcSetTest, ContainsAndDisjoint) {
  ProcRange All = ProcRange::all();
  ProcRange One = ProcRange::singleton(LinearExpr(0));
  ProcRange Rest(LinearExpr(1), LinearExpr("np", -1));
  EXPECT_TRUE(provablyContains(All, One, G));
  EXPECT_TRUE(provablyContains(All, Rest, G));
  EXPECT_FALSE(provablyContains(One, All, G));
  EXPECT_TRUE(provablyDisjoint(One, Rest, G));
  EXPECT_FALSE(provablyDisjoint(All, Rest, G));
}

TEST_F(ProcSetTest, DifferenceSplitsAtFront) {
  // [1..np-1] minus [1..1]: before empty, after [2..np-1]. Needs np >= 3
  // to prove the remainder non-empty; np >= 2 only proves containment, so
  // strengthen.
  G.addLowerBound("np", 3);
  ProcRange R(LinearExpr(1), LinearExpr("np", -1));
  ProcRange M(LinearExpr(1), LinearExpr(1));
  auto D = tryDifference(R, M, G);
  ASSERT_TRUE(D.has_value());
  EXPECT_FALSE(D->Before.has_value());
  ASSERT_TRUE(D->After.has_value());
  EXPECT_EQ(D->After->lb().primary(), LinearExpr(2));
  EXPECT_EQ(D->After->ub().primary(), LinearExpr("np", -1));
}

TEST_F(ProcSetTest, DifferenceKeepsPossiblyEmptyLeftovers) {
  // [0..np-1] minus [i..i] with i == 2 and np >= 2: the 'after' part
  // [3..np-1] is neither provably empty nor provably non-empty. Such
  // leftovers are kept as possibly-empty sets; their emptiness may be
  // discovered later (the paper deletes sets when they are *discovered*
  // to be empty).
  G.addLowerBound("np", 3); // Needed for provable containment of [i..i].
  ProcRange R = ProcRange::all();
  ProcRange M = ProcRange::singleton(LinearExpr("i", 0));
  auto D = tryDifference(R, M, G);
  ASSERT_TRUE(D.has_value());
  ASSERT_TRUE(D->Before.has_value());
  ASSERT_TRUE(D->After.has_value());
  EXPECT_FALSE(D->After->provablyEmpty(G));
  EXPECT_FALSE(D->After->provablyNonEmpty(G));
}

TEST_F(ProcSetTest, DifferenceMiddleWithEnoughFacts) {
  G.addLE("i", "np", -2); // i <= np - 2: after part non-empty... needs i+1 <= np-1.
  ProcRange R = ProcRange::all();
  ProcRange M = ProcRange::singleton(LinearExpr("i", 0));
  auto D = tryDifference(R, M, G);
  ASSERT_TRUE(D.has_value());
  ASSERT_TRUE(D->Before.has_value());
  ASSERT_TRUE(D->After.has_value());
  EXPECT_EQ(D->Before->ub().primary(), LinearExpr("i", -1));
  EXPECT_EQ(D->After->lb().primary(), LinearExpr("i", 1));
}

TEST_F(ProcSetTest, DifferenceNotContainedFails) {
  ProcRange R(LinearExpr(1), LinearExpr(3));
  ProcRange M(LinearExpr(2), LinearExpr(9));
  EXPECT_FALSE(tryDifference(R, M, G).has_value());
}

TEST_F(ProcSetTest, IntersectComparableBounds) {
  ProcRange A(LinearExpr(0), LinearExpr("np", -1));
  ProcRange B(LinearExpr(1), LinearExpr("np", 5));
  auto I = tryIntersect(A, B, G);
  ASSERT_TRUE(I.has_value());
  EXPECT_EQ(I->lb().primary(), LinearExpr(1));
  EXPECT_EQ(I->ub().primary(), LinearExpr("np", -1));
}

TEST_F(ProcSetTest, IntersectIncomparableFails) {
  ProcRange A(LinearExpr("a", 0), LinearExpr(10));
  ProcRange B(LinearExpr("b", 0), LinearExpr(10));
  EXPECT_FALSE(tryIntersect(A, B, G).has_value());
}

TEST_F(ProcSetTest, ShiftedRange) {
  ProcRange R(LinearExpr(1), LinearExpr("np", -1));
  ProcRange S = R.shifted(-1);
  EXPECT_EQ(S.lb().primary(), LinearExpr(0));
  EXPECT_EQ(S.ub().primary(), LinearExpr("np", -2));
}

TEST_F(ProcSetTest, EnrichAddsAliases) {
  SymBound B(LinearExpr("i", 0));
  B.enrich(G); // i == 2 is known.
  EXPECT_NE(std::find(B.forms().begin(), B.forms().end(), LinearExpr(2)),
            B.forms().end());
}

TEST_F(ProcSetTest, WideningKeepsCommonForms) {
  // Figure 5's loop invariant: first pass ub is {1, i} (i == 1 then), the
  // second pass ub is {2, i} (i == 2 now); the common form `i` survives.
  ConstraintGraph G1;
  G1.assign("i", LinearExpr(1));
  ConstraintGraph G2;
  G2.assign("i", LinearExpr(2));
  ProcRange Old(LinearExpr(1), LinearExpr(1));
  ProcRange New(LinearExpr(1), LinearExpr(2));
  // Enriching Old under G1 adds ub form i; New under G2 adds ub form i.
  auto W = widenRange(Old, G1, New, G2);
  ASSERT_TRUE(W.has_value());
  const auto &Forms = W->ub().forms();
  EXPECT_NE(std::find(Forms.begin(), Forms.end(), LinearExpr("i", 0)),
            Forms.end());
}

TEST_F(ProcSetTest, WideningFailsWithoutCommonForm) {
  ConstraintGraph G1;
  G1.assign("i", LinearExpr(1));
  ConstraintGraph G2;
  G2.assign("j", LinearExpr(2));
  ProcRange Old(LinearExpr(1), LinearExpr(1));
  ProcRange New(LinearExpr(1), LinearExpr(2));
  EXPECT_FALSE(widenRange(Old, G1, New, G2).has_value());
}

/// The paper's widening spelled out over LinearExprs: enrich both ranges
/// through their graphs, then keep the common forms.
std::optional<ProcRange> enrichThenIntersect(const ProcRange &OldR,
                                             const ConstraintGraph &OldG,
                                             const ProcRange &NewR,
                                             const ConstraintGraph &NewG) {
  ProcRange A = OldR;
  A.enrich(OldG);
  ProcRange B = NewR;
  B.enrich(NewG);
  auto Lb = A.lb().intersectForms(B.lb());
  auto Ub = A.ub().intersectForms(B.ub());
  if (!Lb || !Ub)
    return std::nullopt;
  return ProcRange(*Lb, *Ub);
}

TEST(ProcSetWidenTest, MatchesEnrichThenIntersectOnRandomGraphs) {
  std::mt19937 Rng(77);
  auto Pick = [&](unsigned N) { return static_cast<unsigned>(Rng() % N); };
  const std::vector<std::string> Vars = {"np", "p0.i", "p0.lo$", "p1.i",
                                         "q0.lo", "k"};
  auto RandomForm = [&] {
    if (Pick(3) == 0)
      return LinearExpr(static_cast<std::int64_t>(Pick(5)));
    return LinearExpr(Vars[Pick(Vars.size())],
                      static_cast<std::int64_t>(Pick(5)) - 2);
  };
  using Constraint = std::pair<LinearExpr, LinearExpr>;
  auto RandomConstraints = [&](unsigned N) {
    std::vector<Constraint> Cs;
    for (unsigned E = 0; E < N; ++E)
      Cs.emplace_back(LinearExpr(Vars[Pick(Vars.size())], 0), RandomForm());
    return Cs;
  };
  auto RandomGraph = [&](ConstraintGraph G,
                         const std::vector<Constraint> &Common) {
    // Equalities make aliases; a few inequalities make near misses.
    for (const auto &[A, B] : Common)
      G.addEQ(A, B);
    for (const auto &[A, B] : RandomConstraints(Pick(3))) {
      if (Pick(3) == 0)
        G.addLE(A, B);
      else
        G.addEQ(A, B);
    }
    return G;
  };
  auto RandomBound = [&] {
    SymBound B(RandomForm());
    if (Pick(3) == 0)
      B.addForm(RandomForm());
    return B;
  };
  unsigned Agreed = 0;
  for (int Trial = 0; Trial < 400; ++Trial) {
    SCOPED_TRACE("trial " + std::to_string(Trial));
    // Half the trials share one table (as every graph of an analysis run
    // does); the rest give each graph its own.
    auto Shared = std::make_shared<SymbolTable>();
    bool SameTable = Trial % 2 == 0;
    // Both graphs share some equalities, so some aliases survive.
    std::vector<Constraint> Common = RandomConstraints(Pick(4));
    ConstraintGraph OldG = RandomGraph(
        ConstraintGraph(&StatsRegistry::global(),
                        SameTable ? Shared : nullptr),
        Common);
    ConstraintGraph NewG = RandomGraph(
        ConstraintGraph(&StatsRegistry::global(),
                        SameTable ? Shared : nullptr),
        Common);
    ProcRange OldR(RandomBound(), RandomBound());
    ProcRange NewR = Pick(2) ? OldR : ProcRange(RandomBound(), RandomBound());
    auto Want = enrichThenIntersect(OldR, OldG, NewR, NewG);
    auto Got = widenRange(OldR, OldG, NewR, NewG);
    ASSERT_EQ(Got.has_value(), Want.has_value());
    if (!Got)
      continue;
    EXPECT_EQ(Got->str(), Want->str());
    EXPECT_EQ(Got->lb().primary(), Want->lb().primary());
    EXPECT_EQ(Got->ub().primary(), Want->ub().primary());
    ++Agreed;
  }
  // The generator must exercise the surviving-forms path, not only the
  // failures.
  EXPECT_GT(Agreed, 40u);
}

TEST_F(ProcSetTest, BoundStrFormats) {
  SymBound B(LinearExpr("i", 0));
  B.addForm(LinearExpr(2));
  EXPECT_EQ(B.str(), "{2,i}");
  EXPECT_EQ(ProcRange::all().str(), "[0..np-1]");
}

TEST_F(ProcSetTest, RenameVars) {
  ProcRange R(LinearExpr("i", 0), LinearExpr("np", -1));
  ProcRange S = R.withRenamedVars([](const std::string &V) {
    return "ps0::" + V;
  });
  EXPECT_EQ(S.lb().primary(), LinearExpr("ps0::i", 0));
  EXPECT_EQ(S.ub().primary(), LinearExpr("ps0::np", -1));
}

} // namespace
