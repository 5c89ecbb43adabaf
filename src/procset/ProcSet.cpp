//===- procset/ProcSet.cpp -----------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "procset/ProcSet.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace csdf;

SymBound::SymBound(std::vector<LinearExpr> TheForms)
    : Forms(std::move(TheForms)) {
  assert(!Forms.empty() && "a bound needs at least one form");
  std::sort(Forms.begin(), Forms.end());
  Forms.erase(std::unique(Forms.begin(), Forms.end()), Forms.end());
}

void SymBound::addForm(const LinearExpr &Form) {
  auto It = std::lower_bound(Forms.begin(), Forms.end(), Form);
  if (It != Forms.end() && *It == Form)
    return;
  Forms.insert(It, Form);
}

void SymBound::enrich(const ConstraintGraph &G) {
  std::vector<LinearExpr> Extra;
  for (const LinearExpr &F : Forms)
    for (const LinearExpr &Alias : G.equivalentForms(F))
      Extra.push_back(Alias);
  for (const LinearExpr &E : Extra)
    addForm(E);
}

SymBound SymBound::plus(std::int64_t Delta) const {
  SymBound R;
  for (const LinearExpr &F : Forms)
    R.addForm(F.plus(Delta));
  return R;
}

std::optional<SymBound> SymBound::intersectForms(const SymBound &O) const {
  std::vector<LinearExpr> Common;
  std::set_intersection(Forms.begin(), Forms.end(), O.Forms.begin(),
                        O.Forms.end(), std::back_inserter(Common));
  if (Common.empty())
    return std::nullopt;
  return SymBound(std::move(Common));
}

namespace {

/// Resolves every form of a bound once, so the A x B comparison loops
/// below run on interned slots instead of re-hashing names per pair.
std::vector<ConstraintGraph::ResolvedForm>
resolveForms(const std::vector<LinearExpr> &Forms, const ConstraintGraph &G,
             std::int64_t Delta) {
  std::vector<ConstraintGraph::ResolvedForm> R;
  R.reserve(Forms.size());
  for (const LinearExpr &F : Forms) {
    ConstraintGraph::ResolvedForm Form = G.resolve(F);
    Form.C += Delta;
    R.push_back(Form);
  }
  return R;
}

} // namespace

bool SymBound::provablyLE(const SymBound &O, const ConstraintGraph &G,
                          std::int64_t Slack) const {
  auto As = resolveForms(Forms, G, 0);
  auto Bs = resolveForms(O.Forms, G, Slack);
  for (const auto &A : As)
    for (const auto &B : Bs)
      if (G.provesLE(A, B))
        return true;
  return false;
}

bool SymBound::provablyEQ(const SymBound &O, const ConstraintGraph &G,
                          std::int64_t Offset) const {
  auto As = resolveForms(Forms, G, 0);
  auto Bs = resolveForms(O.Forms, G, Offset);
  for (const auto &A : As)
    for (const auto &B : Bs)
      if (G.provesLE(A, B) && G.provesLE(B, A))
        return true;
  return false;
}

std::string SymBound::str() const {
  if (Forms.size() == 1)
    return Forms.front().str();
  return "{" +
         joinMapped(Forms, ",",
                    [](const LinearExpr &F) { return F.str(); }) +
         "}";
}

bool ProcRange::provablyEmpty(const ConstraintGraph &G) const {
  return Ub.provablyLE(Lb, G, /*Slack=*/-1);
}

bool ProcRange::provablyNonEmpty(const ConstraintGraph &G) const {
  return Lb.provablyLE(Ub, G);
}

bool ProcRange::provablySingleton(const ConstraintGraph &G) const {
  return Lb.provablyEQ(Ub, G);
}

bool csdf::provablyEqual(const ProcRange &A, const ProcRange &B,
                         const ConstraintGraph &G) {
  return A.lb().provablyEQ(B.lb(), G) && A.ub().provablyEQ(B.ub(), G);
}

bool csdf::provablyAdjacent(const ProcRange &A, const ProcRange &B,
                            const ConstraintGraph &G) {
  return B.lb().provablyEQ(A.ub(), G, /*Offset=*/1);
}

bool csdf::provablyContains(const ProcRange &R, const ProcRange &M,
                            const ConstraintGraph &G) {
  return R.lb().provablyLE(M.lb(), G) && M.ub().provablyLE(R.ub(), G);
}

bool csdf::provablyDisjoint(const ProcRange &A, const ProcRange &B,
                            const ConstraintGraph &G) {
  return A.ub().provablyLE(B.lb(), G, /*Slack=*/-1) ||
         B.ub().provablyLE(A.lb(), G, /*Slack=*/-1);
}

std::optional<ProcRange> csdf::tryMerge(const ProcRange &A, const ProcRange &B,
                                        const ConstraintGraph &G) {
  if (provablyAdjacent(A, B, G))
    return ProcRange(A.lb(), B.ub());
  if (provablyAdjacent(B, A, G))
    return ProcRange(B.lb(), A.ub());
  if (provablyContains(A, B, G))
    return A;
  if (provablyContains(B, A, G))
    return B;
  return std::nullopt;
}

std::optional<RangeDifference> csdf::tryDifference(const ProcRange &R,
                                                   const ProcRange &M,
                                                   const ConstraintGraph &G) {
  if (!provablyContains(R, M, G))
    return std::nullopt;
  // Leftovers whose emptiness is not yet decidable are kept as possibly
  // empty sets — the paper deletes process sets "because some of them were
  // discovered to be empty", i.e. emptiness may be discovered later (for
  // instance on a loop's exit edge where i == np becomes known).
  RangeDifference Diff;
  ProcRange Before(R.lb(), M.lb().plus(-1));
  if (!Before.provablyEmpty(G))
    Diff.Before = Before;
  ProcRange After(M.ub().plus(1), R.ub());
  if (!After.provablyEmpty(G))
    Diff.After = After;
  return Diff;
}

std::optional<ProcRange> csdf::tryIntersect(const ProcRange &A,
                                            const ProcRange &B,
                                            const ConstraintGraph &G) {
  // Lower bound: the provably larger of the two.
  SymBound Lo;
  if (A.lb().provablyLE(B.lb(), G))
    Lo = B.lb();
  else if (B.lb().provablyLE(A.lb(), G))
    Lo = A.lb();
  else
    return std::nullopt;
  SymBound Hi;
  if (A.ub().provablyLE(B.ub(), G))
    Hi = A.ub();
  else if (B.ub().provablyLE(A.ub(), G))
    Hi = B.ub();
  else
    return std::nullopt;
  return ProcRange(Lo, Hi);
}

namespace {

using IdForm = ConstraintGraph::IdForm;

/// Every form of \p B together with its aliases under \p G, as ids of
/// G's table (duplicates kept; the classes are a handful of forms).
std::vector<IdForm> aliasClass(const SymBound &B, const ConstraintGraph &G) {
  std::vector<IdForm> Class;
  for (const LinearExpr &F : B.forms())
    G.aliasesOf(F, Class);
  return Class;
}

/// The forms of \p OldB's alias class under \p OldG that are also in
/// \p NewB's class under \p NewG, spelled as LinearExprs only once they
/// survive. Ids of the new graph are translated into the old graph's
/// table when the two differ.
std::optional<SymBound> commonForms(const SymBound &OldB,
                                    const ConstraintGraph &OldG,
                                    const SymBound &NewB,
                                    const ConstraintGraph &NewG) {
  std::vector<IdForm> Old = aliasClass(OldB, OldG);
  std::vector<IdForm> New = aliasClass(NewB, NewG);
  if (&OldG.symbols() != &NewG.symbols())
    for (IdForm &F : New)
      if (F.Id != InvalidVarId)
        F.Id = OldG.symbolsPtr()->intern(NewG.symbols().name(F.Id));
  std::vector<LinearExpr> Common;
  for (const IdForm &F : Old)
    if (std::find(New.begin(), New.end(), F) != New.end())
      Common.push_back(OldG.formExpr(F));
  if (Common.empty())
    return std::nullopt;
  return SymBound(std::move(Common));
}

} // namespace

std::optional<ProcRange> csdf::widenRange(const ProcRange &OldR,
                                          const ConstraintGraph &OldG,
                                          const ProcRange &NewR,
                                          const ConstraintGraph &NewG) {
  auto Lb = commonForms(OldR.lb(), OldG, NewR.lb(), NewG);
  auto Ub = commonForms(OldR.ub(), OldG, NewR.ub(), NewG);
  if (!Lb || !Ub)
    return std::nullopt;
  return ProcRange(*Lb, *Ub);
}
