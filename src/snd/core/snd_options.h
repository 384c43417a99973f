// Configuration of the Social Network Distance computation.
#ifndef SND_CORE_SND_OPTIONS_H_
#define SND_CORE_SND_OPTIONS_H_

#include <cstdint>

#include "snd/opinion/icc_model.h"
#include "snd/opinion/lt_model.h"
#include "snd/opinion/model_agnostic.h"
#include "snd/paths/sssp_engine.h"

namespace snd {

// Which ground-distance model (Section 3, item iii) drives the
// transportation costs.
enum class GroundModelKind {
  kModelAgnostic,
  kIndependentCascade,
  kLinearThreshold,
};

const char* GroundModelKindName(GroundModelKind kind);

// Where the EMD* bank bins live (Section 4's allocation spectrum).
enum class BankStrategy {
  // One global bank: EMDalpha-like behavior (mass mismatch penalized
  // uniformly, blind to location).
  kSingleGlobal,
  // One or more banks per label-propagation community: cheaper, but the
  // penalty is flat within each community (new activations anywhere in a
  // community cost the same gamma), which blunts the anomaly signal when
  // communities are large.
  kPerCluster,
  // One bank attached to every bin with capacity proportional to the
  // lighter histogram's mass at that bin (gamma = 0): newly appeared mass
  // is paid for by transporting it from where the same opinion already
  // lives. The most location-sensitive allocation and the default.
  kPerBin,
};

const char* BankStrategyName(BankStrategy strategy);

// How the per-cluster bank ground distances gamma(c) are chosen.
enum class GammaPolicy {
  // gamma(c) = gamma_scale * 0.5 * (structural upper bound on the cluster
  // diameter); satisfies Theorem 3's metricity condition on symmetric
  // graphs when gamma_scale >= 1.
  kStructuralBound,
  // gamma(c) = fixed_gamma for every cluster/bank.
  kFixed,
};

struct SndOptions {
  GroundModelKind model = GroundModelKind::kModelAgnostic;
  ModelAgnosticParams agnostic;
  IccParams icc;
  LtParams lt;

  // Every term's transportation problem goes to the network simplex
  // (SimplexSolver), so no field here selects a solver.

  // Shortest-path backend behind every ground-distance search (CLI:
  // --sssp). kAuto picks Dial's bucket queue when the model's
  // MaxEdgeCost() (Assumption 2's U) is small relative to the graph size,
  // sequential delta-stepping outside that regime on large graphs,
  // binary-heap Dijkstra otherwise (ResolveSsspBackend). With
  // Dial, terms with enough origins run their searches up to 32 at a
  // time through DialLaneEngine. SND values are bitwise identical for
  // every choice.
  SsspBackend sssp_backend = SsspBackend::kAuto;

  BankStrategy bank_strategy = BankStrategy::kPerBin;
  int32_t banks_per_cluster = 1;
  GammaPolicy gamma_policy = GammaPolicy::kStructuralBound;
  double gamma_scale = 1.0;
  double fixed_gamma = 8.0;
  // Bank capacities are always exactly proportional to the cluster masses
  // (ComputeBankCapacities), which preserves the location signal: every
  // same-opinion user contributes supply in proportion to its mass. The
  // resulting masses are real-valued, balanced and conserved within
  // kMassTolerance (relative) rather than exactly.

  // Label-propagation clustering (BankStrategy::kPerCluster).
  uint64_t clustering_seed = 42;
  int32_t lp_max_iterations = 20;
  int32_t lp_min_community_size = 4;

  // No field here selects threading: the four EMD* terms of a pair run
  // as concurrent jobs on the shared ThreadPool, with results bitwise
  // identical for any thread count. Run with SND_THREADS=1 (or
  // ThreadPool::SetGlobalThreads(1)) for strictly serial execution.
};

}  // namespace snd

#endif  // SND_CORE_SND_OPTIONS_H_
