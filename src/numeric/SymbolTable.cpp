//===- numeric/SymbolTable.cpp --------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "numeric/SymbolTable.h"

using namespace csdf;

VarId SymbolTable::intern(const std::string &Name) {
  auto It = IdsByName.find(Name);
  if (It != IdsByName.end())
    return It->second;
  VarId Id = static_cast<VarId>(Names.size());
  Names.push_back(Name);
  IdsByName.emplace(Name, Id);
  return Id;
}

std::optional<VarId> SymbolTable::lookup(const std::string &Name) const {
  auto It = IdsByName.find(Name);
  if (It == IdsByName.end())
    return std::nullopt;
  return It->second;
}
