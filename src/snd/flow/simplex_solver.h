// Primal network simplex for the transportation problem; the default
// solver.
//
// The basis is a spanning tree over the S + T bins plus an artificial
// root, stored in per-node parent / thread (preorder) / subtree-size /
// last-successor arrays, as in LEMON's NetworkSimplex (Kovács, "Minimum-
// cost flow algorithms: an experimental evaluation", 2015). The solve
// starts from the tree of artificial root arcs and iterates:
//  * pricing - block search over the cost matrix in blocks of sqrt(S*T)
//    cells, reading costs straight from the TransportProblem;
//  * cycle   - both endpoints of the entering cell climb to their join
//    node, guided by subtree sizes;
//  * ratio   - the strongly feasible leaving rule (last blocking arc in
//    cycle order), which keeps every tree strongly feasible and so rules
//    out cycling on degenerate pivots;
//  * update  - splice the moved subtree in the thread and shift the
//    potentials of that subtree only.
// A pivot costs O(block + cycle + moved subtree), not O(S + T), and the
// working state is O(S + T): no per-cell arrays.
//
// Masses are real-valued; the price tolerance is 1e-9 * (1 + max cost).
// A pivot cap guards against floating-point stalling by falling back to
// the SSP solver.
// Solve is const and keeps its working state local to the call, so one
// solver may be shared by any number of threads.
#ifndef SND_FLOW_SIMPLEX_SOLVER_H_
#define SND_FLOW_SIMPLEX_SOLVER_H_

#include "snd/flow/solver.h"

namespace snd {

class SimplexSolver final : public TransportSolver {
 public:
  TransportPlan Solve(const TransportProblem& problem) const override;
  const char* name() const override { return "simplex"; }
};

}  // namespace snd

#endif  // SND_FLOW_SIMPLEX_SOLVER_H_
