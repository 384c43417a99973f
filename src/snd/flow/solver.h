// Solver interface for the transportation problem, with three production
// implementations that cross-validate each other:
//
//  * kSimplex     - primal network simplex over a spanning tree; the
//                   default. Fast in practice on the dense instances
//                   produced by EMD.
//  * kSsp         - successive shortest paths with potentials (Dijkstra);
//                   accepts real-valued masses (within kMassTolerance).
//  * kCostScaling - Goldberg-Tarjan cost-scaling push-relabel, the
//                   algorithm behind the CS2 code used by the paper;
//                   requires integral costs and masses.
#ifndef SND_FLOW_SOLVER_H_
#define SND_FLOW_SOLVER_H_

#include <memory>

#include "snd/flow/transport_problem.h"

namespace snd {

enum class TransportAlgorithm {
  kSimplex,
  kSsp,
  kCostScaling,
};

const char* TransportAlgorithmName(TransportAlgorithm algorithm);

class TransportSolver {
 public:
  virtual ~TransportSolver() = default;

  // Returns an optimal plan. The problem must be balanced (enforced by
  // TransportProblem's constructor).
  virtual TransportPlan Solve(const TransportProblem& problem) const = 0;

  virtual const char* name() const = 0;
};

std::unique_ptr<TransportSolver> MakeTransportSolver(
    TransportAlgorithm algorithm);

}  // namespace snd

#endif  // SND_FLOW_SOLVER_H_
