//===- numeric/ClosureKernel.h - Flat transitive-closure kernels ---------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The numeric core's v2 closure kernels. Section IX of the paper puts
/// 92.5% of analysis time into constraint-graph transitive closure; the
/// v1 kernels made a dynamically dispatched get/set call per element, which
/// forbids vectorization outright. These kernels instead run on
/// DbmStorage's raw contiguous rows with a branchless saturating
/// min-plus inner loop the compiler auto-vectorizes (CI verifies the
/// vectorization report), plus:
///
///   * cache blocking — the classic blocked Floyd–Warshall (diagonal /
///     row-panel / column-panel / remainder phases) in ClosureTile-sized
///     tiles, so the working set of the inner loops stays in L1/L2 at
///     n = 128..256 instead of streaming the whole matrix per k;
///   * sparse row skipping — the per-row occupancy bitmap maintained by
///     DbmStorage::set lets both the k and i loops skip rows with no
///     finite off-diagonal bound, collapsing cold closures on the common
///     mostly-unconstrained graphs;
///   * exact semantics — for feasible systems the result is
///     entry-for-entry identical to the reference Floyd–Warshall (min-plus
///     over bounds <= DbmInfinity is order-independent), infeasibility is
///     detected on exactly the same inputs, and the session budget is
///     still polled per outer k-panel so deadlines can interrupt a huge
///     closure. ClosureKernelTest pins all of this against the reference.
///
/// The v1 reference loops are kept public as the test oracle.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_NUMERIC_CLOSUREKERNEL_H
#define CSDF_NUMERIC_CLOSUREKERNEL_H

#include "numeric/DbmStorage.h"

namespace csdf {
namespace kernel {

/// Tile edge for the blocked Floyd–Warshall phases. 32 rows of 32
/// int64 bounds = 8 KiB per tile operand, three operands well inside L1;
/// the bench_closure `blocked_sweep` workload is the tuning record.
inline constexpr unsigned ClosureTile = 32;

/// Transitively closes \p M in place with the blocked/sparse flat kernel.
/// Returns false when the constraint
/// system is infeasible (a negative cycle exists). Polls the session
/// budget per outer k-panel.
bool fullClose(DbmStorage &M);

/// Repairs closure after edge (I, J) was tightened; requires \p M was
/// closed before the tightening. Returns false on infeasibility.
bool closeAfterEdge(DbmStorage &M, unsigned I, unsigned J);

/// Reference implementations: the v1 naive triple loop over element-wise
/// get/set, the oracle the ClosureKernelTest property suite compares the
/// flat kernels against. Never on the analysis path.
bool fullCloseRef(DbmStorage &M);
bool closeAfterEdgeRef(DbmStorage &M, unsigned I, unsigned J);

} // namespace kernel
} // namespace csdf

#endif // CSDF_NUMERIC_CLOSUREKERNEL_H
