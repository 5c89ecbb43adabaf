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
/// valid across later intern() calls.
///
/// Namespaces. The pCFG engine scopes per-set and per-send variables as
/// `<namespace>.<local>` (`p0.i`, `q3.lo`). Each name is split once, when
/// it is first interned, at its first `.` into a namespace id (NsId) and a
/// local part, so renaming or projecting a whole namespace is integer work:
/// nsOf() answers a variable's namespace and inNamespace() maps a variable
/// to its sibling in another namespace through an integer-keyed map. The
/// sibling's string is built and hashed only the first time it is needed.
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
#include <utility>
#include <vector>

namespace csdf {

/// A dense index into a SymbolTable. Valid only together with the table
/// that produced it.
using VarId = std::uint32_t;

inline constexpr VarId InvalidVarId = static_cast<VarId>(-1);

/// A dense index into a SymbolTable's namespace pool.
using NsId = std::uint32_t;

/// The namespace of names without one (`np`, `x`, the zero variable).
inline constexpr NsId NoNs = static_cast<NsId>(-1);

/// A simultaneous namespace renaming: every variable in the first
/// namespace of a pair moves to the second. The targets must not collide
/// with a namespace that stays in use.
using NsRenaming = std::vector<std::pair<NsId, NsId>>;

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

  //===--------------------------------------------------------------------===
  // Namespaces
  //===--------------------------------------------------------------------===

  /// Returns the id of namespace \p Ns (a name without `.`), creating it
  /// on first sight.
  NsId internNs(const std::string &Ns);

  /// Returns the id of namespace \p Ns if any name or caller used it.
  std::optional<NsId> lookupNs(const std::string &Ns) const;

  /// The name behind namespace \p Ns.
  const std::string &nsName(NsId Ns) const { return NsNames[Ns]; }

  /// The namespace of \p Id (NoNs for names without one).
  NsId nsOf(VarId Id) const { return Split[Id].Ns; }

  /// The variable with \p Id's local part in namespace \p Ns: for
  /// `p0.i` and the namespace `p1`, the id of `p1.i`. Names without a
  /// namespace map to themselves.
  VarId inNamespace(VarId Id, NsId Ns);

private:
  /// Where a name splits: its namespace and its local part's id (both
  /// unset for names without a namespace).
  struct NameSplit {
    NsId Ns = NoNs;
    std::uint32_t Local = 0;
  };

  static std::uint64_t siblingKey(NsId Ns, std::uint32_t Local) {
    return (static_cast<std::uint64_t>(Ns) << 32) | Local;
  }

  std::deque<std::string> Names;
  std::unordered_map<std::string, VarId> IdsByName;
  std::vector<NameSplit> Split;
  std::deque<std::string> NsNames;
  std::unordered_map<std::string, NsId> NsIdsByName;
  std::unordered_map<std::string, std::uint32_t> LocalIdsByName;
  /// (namespace, local) -> variable, for every interned namespaced name.
  std::unordered_map<std::uint64_t, VarId> IdsBySplit;
};

/// Tables are shared per analysis run.
using SymbolTablePtr = std::shared_ptr<SymbolTable>;

} // namespace csdf

#endif // CSDF_NUMERIC_SYMBOLTABLE_H
