//===- numeric/SymbolTable.h - Interned variable names -------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense integer identifiers for analysis variable names — the paper's
/// Section IX optimization direction 1 ("variable indices instead of
/// names"). One SymbolTable is shared by every component of one analysis
/// run (constraint graphs, process-set queries, the matcher, the
/// sequential dataflow analyses), so a variable name is hashed at most
/// once per appearance and every internal comparison is an integer
/// compare. The string API of the consuming classes remains as a thin
/// boundary for the CLI, lint passes and tests.
///
/// Ids are append-only: interning never invalidates previously handed-out
/// VarIds, which is what lets long-lived analysis states cache them.
/// Names live in a deque, so a reference returned by name() also stays
/// valid across later intern() calls (ConstraintGraph::renameVars holds
/// one while interning).
///
/// The table is not thread-safe. An analysis run is single-threaded, and
/// concurrent runs (batch threads mode) each intern into their own table.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_NUMERIC_SYMBOLTABLE_H
#define CSDF_NUMERIC_SYMBOLTABLE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

namespace csdf {

/// A dense index into a SymbolTable. Valid only together with the table
/// that produced it.
using VarId = std::uint32_t;

inline constexpr VarId InvalidVarId = static_cast<VarId>(-1);

/// Append-only intern pool mapping variable names to dense VarIds.
class SymbolTable {
public:
  SymbolTable() = default;

  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// Returns the id of \p Name, creating it on first sight.
  VarId intern(const std::string &Name);

  /// Returns the id of \p Name if it was ever interned.
  std::optional<VarId> lookup(const std::string &Name) const;

  /// The name behind \p Id, which must have been obtained from this table.
  const std::string &name(VarId Id) const { return Names[Id]; }

  /// Number of interned names.
  std::size_t size() const { return Names.size(); }

private:
  std::deque<std::string> Names;
  std::unordered_map<std::string, VarId> IdsByName;
};

/// Tables are shared per analysis run.
using SymbolTablePtr = std::shared_ptr<SymbolTable>;

} // namespace csdf

#endif // CSDF_NUMERIC_SYMBOLTABLE_H
