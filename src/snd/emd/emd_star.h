// EMD* (Section 4, Eq. 4): the paper's generalization of EMD that evens
// out total-mass mismatch with *local* bank bins attached to clusters of
// histogram bins, so the penalty for newly appeared mass depends on where
// in the network it appeared.
//
// This header provides the dense reference computation: extend both
// histograms with bank bins, build the extended ground distance D-tilde,
// and solve the balanced transportation problem. The value returned is the
// optimal transportation cost, which per Eq. 4 equals
// EMD(P~, Q~, D~) * max(total(P), total(Q)).
//
// Bank access distances use the per-source cluster distance
//   D~(u, bank(c)) = gamma(c) + min_{q in c} D(u, q)
// because one multi-source search per bank cluster yields exactly these
// minima, which keeps the Theorem 4 fast path exact (FastVsReferenceTest)
// while preserving the Theorem 3 metricity argument.
#ifndef SND_EMD_EMD_STAR_H_
#define SND_EMD_EMD_STAR_H_

#include <optional>
#include <vector>

#include "snd/emd/banks.h"
#include "snd/emd/dense_matrix.h"
#include "snd/flow/solver.h"

namespace snd {

struct EmdStarOptions {
  // When set, both histograms are extended to this common total mass
  // (capacity M - total(X) spread over X's banks) instead of giving the
  // mismatch to the lighter histogram only. With a common M shared across
  // a whole set of histograms the extension is pair-independent, which
  // makes EMD* provably metric via Theorem 1; the paper's pair-dependent
  // capacities (the default, common_total_mass unset) admit rare triangle
  // violations, as EmdStarTest.TriangleCounterexampleForPaperCapacities
  // shows.
  // Requires M >= max(total(P), total(Q)); M == max(...) reproduces the
  // default exactly.
  std::optional<double> common_total_mass;
};

// The bank-extended histograms and ground distance of Eq. 4. Bin order:
// the n regular bins followed by the num_banks() bank bins.
struct ExtendedProblem {
  std::vector<double> p_tilde;
  std::vector<double> q_tilde;
  DenseMatrix d_tilde;
};

// Builds the extended problem for histograms `p`, `q` over ground distance
// `ground` (n x n) with the given bank structure.
ExtendedProblem BuildExtendedProblem(const std::vector<double>& p,
                                     const std::vector<double>& q,
                                     const DenseMatrix& ground,
                                     const BankSpec& banks,
                                     const EmdStarOptions& options);

// Computes EMD*(P, Q) = optimal transportation cost of the extended
// problem. Requires banks unless the histograms are balanced.
double ComputeEmdStar(const std::vector<double>& p,
                      const std::vector<double>& q, const DenseMatrix& ground,
                      const BankSpec& banks, const TransportSolver& solver,
                      const EmdStarOptions& options = {});

}  // namespace snd

#endif  // SND_EMD_EMD_STAR_H_
