// Solver interface for the transportation problem. SndCalculator runs
// SimplexSolver (primal network simplex over a spanning tree) on every
// term; the other implementations are constructed directly where they
// are needed:
//
//  * SspSolver         - successive shortest paths with potentials;
//                        the simplex's pivot-cap fallback and an exact
//                        reference for real-valued masses.
//  * CostScalingSolver - Goldberg-Tarjan cost-scaling push-relabel (the
//                        algorithm behind the paper's CS2 code); requires
//                        integral costs and masses. Test and benchmark
//                        reference only.
//  * OracleSolver      - exhaustive search for tiny integral instances;
//                        test ground truth only.
#ifndef SND_FLOW_SOLVER_H_
#define SND_FLOW_SOLVER_H_

#include "snd/flow/transport_problem.h"

namespace snd {

class TransportSolver {
 public:
  virtual ~TransportSolver() = default;

  // Returns an optimal plan. The problem must be balanced (enforced by
  // TransportProblem's constructor).
  virtual TransportPlan Solve(const TransportProblem& problem) const = 0;

  virtual const char* name() const = 0;
};

}  // namespace snd

#endif  // SND_FLOW_SOLVER_H_
