//===- tests/pcfg/PcfgStateTest.cpp - State bookkeeping tests ------------------===//

#include "pcfg/PcfgState.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace csdf;

namespace {

ProcSetEntry makeSet(const std::string &Name, ProcRange Range,
                     CfgNodeId Node) {
  ProcSetEntry E;
  E.Name = Name;
  E.Range = std::move(Range);
  E.Node = Node;
  return E;
}

TEST(PcfgStateTest, ScopedVarSeparatesGlobalsFromLocals) {
  ProcSetEntry Set = makeSet("p0", ProcRange::all(), 0);
  std::set<std::string> Assigned = {"x", "i"};
  EXPECT_EQ(PcfgState::scopedVar(Set, "x", Assigned), "p0.x");
  EXPECT_EQ(PcfgState::scopedVar(Set, "np", Assigned), "np");
  EXPECT_EQ(PcfgState::scopedVar(Set, "nrows", Assigned), "nrows");
}

TEST(PcfgStateTest, RenameSetMovesVariablesAndRangeReferences) {
  PcfgState St;
  St.Sets.push_back(makeSet("s7", ProcRange(LinearExpr("s7.lo$", 0),
                                            LinearExpr("np", -1)),
                            3));
  St.Cg.assign("s7.lo$", LinearExpr(2));
  St.Cg.assign("s7.i", LinearExpr(5));
  St.renameSet(0, "p0");
  EXPECT_EQ(St.Sets[0].Name, "p0");
  EXPECT_EQ(St.Cg.constValue("p0.lo$"), 2);
  EXPECT_EQ(St.Cg.constValue("p0.i"), 5);
  EXPECT_FALSE(St.Cg.hasVar("s7.i"));
  EXPECT_EQ(St.Sets[0].Range.lb().primary(), LinearExpr("p0.lo$", 0));
}

TEST(PcfgStateTest, CanonicalizeSortsByNodeThenBound) {
  PcfgState St;
  St.Sets.push_back(makeSet("a", ProcRange(LinearExpr(5), LinearExpr(9)), 7));
  St.Sets.push_back(makeSet("b", ProcRange(LinearExpr(0), LinearExpr(4)), 3));
  St.canonicalize();
  EXPECT_EQ(St.Sets[0].Node, 3u);
  EXPECT_EQ(St.Sets[0].Name, "p0");
  EXPECT_EQ(St.Sets[1].Node, 7u);
  EXPECT_EQ(St.Sets[1].Name, "p1");
}

TEST(PcfgStateTest, CanonicalizeRenumbersPendingNamespaces) {
  PcfgState St;
  St.Sets.push_back(makeSet("p0", ProcRange::all(), 1));
  PendingSend P;
  P.SendNode = 4;
  P.Seq = 9;
  P.FreezeNs = "q9";
  P.Senders = ProcRange(LinearExpr("q9.lo", 0), LinearExpr("q9.hi", 0));
  St.Cg.assign("q9.lo", LinearExpr(1));
  St.Cg.assign("q9.hi", LinearExpr(3));
  St.InFlight.push_back(P);
  St.canonicalize();
  EXPECT_EQ(St.InFlight[0].FreezeNs, "q0");
  EXPECT_EQ(St.InFlight[0].Seq, 0u);
  EXPECT_EQ(St.Cg.constValue("q0.lo"), 1);
  EXPECT_EQ(St.InFlight[0].Senders.lb().primary(),
            LinearExpr("q0.lo", 0));
}

TEST(PcfgStateTest, CanonicalizeSwapsTwoSetNamespaces) {
  // p1 sorts first, so p0 <-> p1 must swap without a scratch name.
  PcfgState St;
  St.Sets.push_back(makeSet("p0", ProcRange(LinearExpr("p0.lo$", 0),
                                            LinearExpr("p1.lo$", -1)),
                            7));
  St.Sets.push_back(makeSet("p1", ProcRange(LinearExpr("p1.lo$", 0),
                                            LinearExpr("np", -1)),
                            3));
  St.Cg.assign("p0.lo$", LinearExpr(0));
  St.Cg.assign("p1.lo$", LinearExpr(4));
  St.Cg.assign("p0.x", LinearExpr(10));
  St.Cg.assign("p1.x", LinearExpr(11));
  St.canonicalize();
  ASSERT_EQ(St.Sets.size(), 2u);
  EXPECT_EQ(St.Sets[0].Node, 3u);
  EXPECT_EQ(St.Sets[0].Name, "p0");
  EXPECT_EQ(St.Sets[1].Name, "p1");
  EXPECT_EQ(St.Cg.constValue("p0.x"), 11);
  EXPECT_EQ(St.Cg.constValue("p1.x"), 10);
  EXPECT_EQ(St.Sets[0].Range.lb().primary(), LinearExpr("p0.lo$", 0));
  // The other set's bound follows its namespace too.
  EXPECT_EQ(St.Sets[1].Range.ub().primary(), LinearExpr("p0.lo$", -1));
  EXPECT_EQ(St.Cg.constValue("p0.lo$"), 4);
}

TEST(PcfgStateTest, CanonicalizeRotatesAThreeCycle) {
  PcfgState St;
  // Stored as p0, p1, p2 but sorting to p2, p0, p1: p2 -> p0, p0 -> p1,
  // p1 -> p2.
  St.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(1), LinearExpr(1)), 5));
  St.Sets.push_back(makeSet("p1", ProcRange(LinearExpr(2), LinearExpr(2)), 6));
  St.Sets.push_back(makeSet("p2", ProcRange(LinearExpr(0), LinearExpr(0)), 4));
  St.Cg.assign("p0.v", LinearExpr(100));
  St.Cg.assign("p1.v", LinearExpr(101));
  St.Cg.assign("p2.v", LinearExpr(102));
  St.canonicalize();
  EXPECT_EQ(St.Sets[0].Node, 4u);
  EXPECT_EQ(St.Sets[1].Node, 5u);
  EXPECT_EQ(St.Sets[2].Node, 6u);
  EXPECT_EQ(St.Cg.constValue("p0.v"), 102);
  EXPECT_EQ(St.Cg.constValue("p1.v"), 100);
  EXPECT_EQ(St.Cg.constValue("p2.v"), 101);
  EXPECT_EQ(St.Cg.numVars(), 3u);
}

TEST(PcfgStateTest, CanonicalizeKeepsSharedFreezeNamespacesShared) {
  // Two leftover pieces of one partially consumed send share q7; an older
  // send owns q4. FIFO order is q4's send, then the two pieces.
  PcfgState St;
  St.Sets.push_back(makeSet("p0", ProcRange::all(), 1));
  auto Piece = [](unsigned Seq, const std::string &Ns) {
    PendingSend P;
    P.SendNode = 9;
    P.Seq = Seq;
    P.FreezeNs = Ns;
    P.Senders = ProcRange(LinearExpr(Ns + ".lo", 0), LinearExpr(Ns + ".hi", 0));
    P.Value = LinearExpr(Ns + ".val", 0);
    return P;
  };
  St.InFlight.push_back(Piece(8, "q7"));
  St.InFlight.push_back(Piece(2, "q4"));
  St.InFlight.push_back(Piece(9, "q7"));
  St.Cg.assign("q7.val", LinearExpr(70));
  St.Cg.assign("q4.val", LinearExpr(40));
  St.canonicalize();
  ASSERT_EQ(St.InFlight.size(), 3u);
  EXPECT_EQ(St.InFlight[0].FreezeNs, "q0");
  EXPECT_EQ(St.InFlight[1].FreezeNs, "q1");
  EXPECT_EQ(St.InFlight[2].FreezeNs, "q1");
  EXPECT_EQ(St.InFlight[2].Value, LinearExpr("q1.val", 0));
  EXPECT_EQ(St.Cg.constValue("q0.val"), 40);
  EXPECT_EQ(St.Cg.constValue("q1.val"), 70);
  EXPECT_EQ(St.InFlight[2].Seq, 2u);
  EXPECT_EQ(St.NextSeq, 5u);
}

TEST(PcfgStateTest, CanonicalizeOfCanonicalStateChangesNothing) {
  PcfgState St;
  St.Sets.push_back(makeSet("p0", ProcRange(LinearExpr("p0.lo$", 0),
                                            LinearExpr("np", -1)),
                            1));
  St.Cg.assign("p0.lo$", LinearExpr(1));
  St.canonicalize();
  std::size_t Interned = St.Cg.symbols().size();
  ConstraintGraph Before = St.Cg;
  St.canonicalize();
  EXPECT_EQ(St.Cg.symbols().size(), Interned);
  EXPECT_EQ(St.Cg.varNames(), Before.varNames());
  EXPECT_TRUE(St.Cg.sharesStorage());
}

//===----------------------------------------------------------------------===//
// One-permutation canonicalize against the two-phase reference
//===----------------------------------------------------------------------===//

/// Renames one namespace across the graph, ranges and pending payloads,
/// matching variables by their `<From>.` prefix.
void renameOneNamespace(PcfgState &St, const std::string &From,
                        const std::string &To) {
  if (From == To)
    return;
  SymbolTable &Syms = *St.Cg.symbolsPtr();
  St.Cg.renameNamespaces({{Syms.internNs(From), Syms.internNs(To)}});
  std::string Prefix = From + ".";
  auto RenameVar = [&](const std::string &Var) {
    if (Var.rfind(Prefix, 0) == 0)
      return To + "." + Var.substr(Prefix.size());
    return Var;
  };
  auto RenameLin = [&](std::optional<LinearExpr> &L) {
    if (L)
      L = L->withRenamedVar(RenameVar);
  };
  for (ProcSetEntry &Set : St.Sets)
    Set.Range = Set.Range.withRenamedVars(RenameVar);
  for (PendingSend &P : St.InFlight) {
    P.Senders = P.Senders.withRenamedVars(RenameVar);
    P.AggRange = P.AggRange.withRenamedVars(RenameVar);
    RenameLin(P.DestUniform);
    RenameLin(P.Tag);
    RenameLin(P.Value);
  }
}

/// The two-phase canonicalization used before namespaces had ids, kept
/// here only as the reference: every set namespace goes to `tmp$<I>` and
/// then to `p<I>`, every freeze namespace to `tmpq$<I>` and then to
/// `q<I>`, one namespace at a time.
void referenceCanonicalize(PcfgState &St) {
  std::stable_sort(St.Sets.begin(), St.Sets.end(),
                   [](const ProcSetEntry &A, const ProcSetEntry &B) {
                     if (A.Node != B.Node)
                       return A.Node < B.Node;
                     return A.Range.lb().primary() < B.Range.lb().primary();
                   });
  for (size_t I = 0; I < St.Sets.size(); ++I) {
    std::string Tmp = "tmp$" + std::to_string(I);
    renameOneNamespace(St, St.Sets[I].Name, Tmp);
    St.Sets[I].Name = Tmp;
  }
  for (size_t I = 0; I < St.Sets.size(); ++I) {
    std::string Final = "p" + std::to_string(I);
    renameOneNamespace(St, St.Sets[I].Name, Final);
    St.Sets[I].Name = Final;
  }
  std::stable_sort(St.InFlight.begin(), St.InFlight.end(),
                   [](const PendingSend &A, const PendingSend &B) {
                     return A.Seq < B.Seq;
                   });
  std::vector<std::string> DistinctNs;
  for (const PendingSend &P : St.InFlight)
    if (std::find(DistinctNs.begin(), DistinctNs.end(), P.FreezeNs) ==
        DistinctNs.end())
      DistinctNs.push_back(P.FreezeNs);
  for (int Phase = 0; Phase < 2; ++Phase) {
    for (size_t I = 0; I < DistinctNs.size(); ++I) {
      std::string From = Phase == 0 ? DistinctNs[I] : "tmpq$" + std::to_string(I);
      std::string To = Phase == 0 ? "tmpq$" + std::to_string(I)
                                  : "q" + std::to_string(I);
      renameOneNamespace(St, From, To);
      for (PendingSend &P : St.InFlight)
        if (P.FreezeNs == From)
          P.FreezeNs = To;
    }
  }
  for (size_t I = 0; I < St.InFlight.size(); ++I)
    St.InFlight[I].Seq = static_cast<unsigned>(I);
  St.NextSeq = static_cast<unsigned>(St.InFlight.size() + DistinctNs.size());
}

/// A random state: up to four sets drawn from a pool of fresh and
/// canonical names (so some renames are identities, swaps or cycles),
/// ranges that reference their own and other sets' anchors, and pending
/// sends whose pieces may share a freeze namespace.
PcfgState randomState(std::mt19937 &Rng) {
  auto Pick = [&](unsigned N) { return static_cast<unsigned>(Rng() % N); };
  PcfgState St;
  std::vector<std::string> SetPool = {"s0", "s1", "s5", "p0", "p1", "p2"};
  std::shuffle(SetPool.begin(), SetPool.end(), Rng);
  unsigned NumSets = 1 + Pick(4);
  for (unsigned I = 0; I < NumSets; ++I) {
    const std::string &Ns = SetPool[I];
    St.Cg.assign(Ns + ".lo$", LinearExpr(Pick(6)));
    St.Cg.assign(Ns + ".i", LinearExpr(Pick(5)));
    LinearExpr Lb = Pick(2) ? LinearExpr(Ns + ".lo$", 0)
                            : LinearExpr(static_cast<std::int64_t>(Pick(3)));
    LinearExpr Ub = Pick(2) ? LinearExpr("np", -1)
                            : LinearExpr(SetPool[Pick(NumSets)] + ".lo$",
                                         static_cast<std::int64_t>(Pick(3)));
    St.Sets.push_back(makeSet(Ns, ProcRange(Lb, Ub), Pick(3)));
  }
  for (unsigned I = 1; I < NumSets; ++I)
    St.Cg.addLE(LinearExpr(SetPool[I - 1] + ".i", 0),
                LinearExpr(SetPool[I] + ".i", Pick(4)));

  std::vector<std::string> FreezePool = {"q0", "q1", "q3", "q4", "q8"};
  std::shuffle(FreezePool.begin(), FreezePool.end(), Rng);
  std::vector<unsigned> Seqs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::shuffle(Seqs.begin(), Seqs.end(), Rng);
  unsigned NumPending = Pick(5), NextFreeze = 0;
  std::string Ns;
  for (unsigned I = 0; I < NumPending; ++I) {
    // Pieces of one partially consumed send share its namespace.
    if (I == 0 || Pick(3) != 0)
      Ns = FreezePool[NextFreeze++ % FreezePool.size()];
    PendingSend P;
    P.SendNode = 10 + Pick(2);
    P.Seq = Seqs[I];
    P.FreezeNs = Ns;
    P.Senders =
        ProcRange(LinearExpr(Ns + ".lo", 0), LinearExpr(Ns + ".hi", 0));
    St.Cg.assign(Ns + ".lo", LinearExpr(Pick(4)));
    St.Cg.assign(Ns + ".hi", LinearExpr(Ns + ".lo", Pick(3)));
    if (Pick(2))
      P.Tag = LinearExpr(Ns + ".tag", 0);
    if (Pick(2))
      P.Value = LinearExpr(St.Sets[Pick(NumSets)].Name + ".i", 1);
    if (Pick(3) == 0) {
      P.IsAggregate = true;
      P.AggRange =
          ProcRange(LinearExpr(Ns + ".alo", 0), LinearExpr("np", -1));
    } else {
      P.DestUniform = LinearExpr(St.Sets[0].Name + ".lo$", 0);
    }
    St.InFlight.push_back(std::move(P));
  }
  St.NextSeq = 10;
  return St;
}

TEST(PcfgStateTest, CanonicalizeMatchesTwoPhaseReference) {
  std::mt19937 Rng(20261020);
  for (int Trial = 0; Trial < 300; ++Trial) {
    SCOPED_TRACE("trial " + std::to_string(Trial));
    PcfgState Fast = randomState(Rng);
    PcfgState Ref = Fast;
    Fast.canonicalize();
    referenceCanonicalize(Ref);
    ASSERT_EQ(Fast.Sets.size(), Ref.Sets.size());
    for (size_t I = 0; I < Fast.Sets.size(); ++I) {
      EXPECT_EQ(Fast.Sets[I].Name, Ref.Sets[I].Name);
      EXPECT_EQ(Fast.Sets[I].Node, Ref.Sets[I].Node);
      EXPECT_EQ(Fast.Sets[I].Range.str(), Ref.Sets[I].Range.str());
    }
    ASSERT_EQ(Fast.InFlight.size(), Ref.InFlight.size());
    for (size_t I = 0; I < Fast.InFlight.size(); ++I) {
      const PendingSend &A = Fast.InFlight[I], &B = Ref.InFlight[I];
      EXPECT_EQ(A.FreezeNs, B.FreezeNs);
      EXPECT_EQ(A.Seq, B.Seq);
      EXPECT_EQ(A.Senders.str(), B.Senders.str());
      EXPECT_EQ(A.AggRange.str(), B.AggRange.str());
      EXPECT_EQ(A.Tag, B.Tag);
      EXPECT_EQ(A.Value, B.Value);
      EXPECT_EQ(A.DestUniform, B.DestUniform);
    }
    EXPECT_EQ(Fast.NextSeq, Ref.NextSeq);
    // Same variables in the same slots, same constraints.
    EXPECT_EQ(Fast.Cg.varNames(), Ref.Cg.varNames());
    EXPECT_EQ(Fast.Cg.str(), Ref.Cg.str());
  }
}

TEST(PcfgStateTest, ConfigKeyCoversSetsAndPendings) {
  PcfgState St;
  St.Sets.push_back(makeSet("p0", ProcRange::all(), 2));
  EXPECT_EQ(St.configKey(), "n2;|");
  PendingSend P;
  P.SendNode = 5;
  P.FreezeNs = "q0";
  St.InFlight.push_back(P);
  EXPECT_EQ(St.configKey(), "n2;|s5;");
}

TEST(PcfgStateTest, JoinRequiresSameShape) {
  PcfgState A;
  A.Sets.push_back(makeSet("p0", ProcRange::all(), 2));
  PcfgState B;
  B.Sets.push_back(makeSet("p0", ProcRange::all(), 3)); // Different node.
  EXPECT_FALSE(joinStates(A, B));
}

TEST(PcfgStateTest, JoinKeepsCommonBoundForm) {
  // Old: [1..1] with i == 1; new: [1..2] with i == 2 -> common ub form
  // i... both sides must expose the alias through their own graphs.
  PcfgState A;
  A.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(1), LinearExpr(1)), 2));
  A.Cg.assign("p0.i", LinearExpr(1));
  PcfgState B;
  B.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(1), LinearExpr(2)), 2));
  B.Cg.assign("p0.i", LinearExpr(2));
  ASSERT_TRUE(joinStates(A, B));
  // The joined bound keeps a stable representation and the CG covers both
  // iterations.
  EXPECT_TRUE(A.Cg.provesLE(LinearExpr(1), LinearExpr("p0.i", 0)));
  EXPECT_TRUE(A.Cg.provesLE(LinearExpr("p0.i", 0), LinearExpr(2)));
  // Whatever form was chosen, it must denote the range [1..i] semantically:
  // ub == i must be provable from the stored bound form.
  SymBound Ub = A.Sets[0].Range.ub();
  EXPECT_TRUE(Ub.provablyEQ(SymBound(LinearExpr("p0.i", 0)), A.Cg));
}

TEST(PcfgStateTest, JoinFailsWithoutCommonForm) {
  PcfgState A;
  A.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(1), LinearExpr(1)), 2));
  PcfgState B;
  B.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(1), LinearExpr(2)), 2));
  // No variable relates 1 and 2 in either graph.
  EXPECT_FALSE(joinStates(A, B));
}

TEST(PcfgStateTest, WidenDropsUnstableValueBounds) {
  PcfgState A;
  A.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(0), LinearExpr(0)), 2));
  A.Cg.assign("p0.i", LinearExpr(2));
  PcfgState B;
  B.Sets.push_back(makeSet("p0", ProcRange(LinearExpr(0), LinearExpr(0)), 2));
  B.Cg.assign("p0.i", LinearExpr(3));
  ASSERT_TRUE(widenStates(A, B));
  EXPECT_TRUE(A.Cg.provesLE(LinearExpr(2), LinearExpr("p0.i", 0)));
  EXPECT_FALSE(A.Cg.constValue("p0.i").has_value());
}

TEST(PcfgStateTest, StatesEqualChecksRangesAndGraph) {
  PcfgState A;
  A.Sets.push_back(makeSet("p0", ProcRange::all(), 2));
  PcfgState B;
  B.Sets.push_back(makeSet("p0", ProcRange::all(), 2));
  EXPECT_TRUE(statesEqual(A, B));
  B.Cg.assign("p0.x", LinearExpr(1));
  EXPECT_FALSE(statesEqual(A, B));
}

TEST(PcfgStateTest, FactsIntersectOnJoin) {
  PcfgState A;
  A.Sets.push_back(makeSet("p0", ProcRange::all(), 2));
  A.Facts.addRewrite("np", Poly::var("nrows").times(Poly::var("nrows")));
  A.Facts.addRewrite("ncols", Poly::var("nrows"));
  PcfgState B;
  B.Sets.push_back(makeSet("p0", ProcRange::all(), 2));
  B.Facts.addRewrite("np", Poly::var("nrows").times(Poly::var("nrows")));
  ASSERT_TRUE(joinStates(A, B));
  // Only the common fact survives.
  EXPECT_EQ(A.Facts.numRewrites(), 1u);
}

} // namespace
