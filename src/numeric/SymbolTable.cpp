//===- numeric/SymbolTable.cpp --------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "numeric/SymbolTable.h"

#include <cassert>

using namespace csdf;

VarId SymbolTable::intern(const std::string &Name) {
  auto It = IdsByName.find(Name);
  if (It != IdsByName.end())
    return It->second;
  VarId Id = static_cast<VarId>(Names.size());
  Names.push_back(Name);
  IdsByName.emplace(Name, Id);
  NameSplit S;
  std::size_t Dot = Name.find('.');
  if (Dot != std::string::npos && Dot != 0) {
    S.Ns = internNs(Name.substr(0, Dot));
    S.Local = LocalIdsByName
                  .emplace(Name.substr(Dot + 1),
                           static_cast<std::uint32_t>(LocalIdsByName.size()))
                  .first->second;
    IdsBySplit.emplace(siblingKey(S.Ns, S.Local), Id);
  }
  Split.push_back(S);
  return Id;
}

std::optional<VarId> SymbolTable::lookup(const std::string &Name) const {
  auto It = IdsByName.find(Name);
  if (It == IdsByName.end())
    return std::nullopt;
  return It->second;
}

NsId SymbolTable::internNs(const std::string &Ns) {
  assert(Ns.find('.') == std::string::npos && "namespaces have no '.'");
  auto It = NsIdsByName.find(Ns);
  if (It != NsIdsByName.end())
    return It->second;
  NsId Id = static_cast<NsId>(NsNames.size());
  NsNames.push_back(Ns);
  NsIdsByName.emplace(Ns, Id);
  return Id;
}

std::optional<NsId> SymbolTable::lookupNs(const std::string &Ns) const {
  auto It = NsIdsByName.find(Ns);
  if (It == NsIdsByName.end())
    return std::nullopt;
  return It->second;
}

VarId SymbolTable::inNamespace(VarId Id, NsId Ns) {
  NameSplit S = Split[Id];
  if (S.Ns == NoNs || S.Ns == Ns)
    return Id;
  auto It = IdsBySplit.find(siblingKey(Ns, S.Local));
  if (It != IdsBySplit.end())
    return It->second;
  const std::string &Name = Names[Id];
  return intern(NsNames[Ns] + Name.substr(Name.find('.')));
}
