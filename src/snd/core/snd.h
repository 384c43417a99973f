// Social Network Distance (SND) - the paper's primary contribution.
//
// SND (Eq. 3) compares two states of a social network holding polar
// opinions as
//   SND(G1, G2) = 1/2 * [ EMD*(G1+, G2+, D(G1,+)) + EMD*(G1-, G2-, D(G1,-))
//                       + EMD*(G2+, G1+, D(G2,+)) + EMD*(G2-, G1-, D(G2,-)) ]
// where G^op is the indicator histogram of opinion `op` and D(G, op) the
// shortest-path ground distance of the chosen propagation model.
//
// Two computation paths are provided:
//  * Compute()          - the fast path of Theorem 4: Lemma 2 cancels the
//                         per-user common mass, Lemma 1 drops empty bins,
//                         and each term searches from the smaller side of
//                         its reduced transportation problem (one SSSP per
//                         changed user, or one per bank-side bin and
//                         active bank cluster) to build exactly the ground
//                         distances it needs; with the Dial backend the
//                         searches run up to 32 at a time in
//                         DialLaneEngine sweeps. The four terms run
//                         concurrently, one pool job each. Time
//                         O(n_delta * (m + n log n) + transport(n_delta)).
//  * ComputeReference() - the direct dense computation (all-pairs ground
//                         distance + full EMD*), used for validation and
//                         as the Fig. 11 direct-solver baseline. The two
//                         paths agree exactly; tests enforce this.
//
// The unit of parallel work is one (pair, term) evaluation: Compute runs
// its four terms as concurrent jobs on the shared thread pool, and batch
// evaluation (anomaly series, ROC sweeps, pairwise clustering) through
// PairwiseDistanceMatrix / AdjacentDistanceSeries / BatchDistances runs
// pairs x 4 such jobs, caching the per-(state, opinion) edge costs and
// reversed-cost buffers across terms and pairs. A term runs its searches
// serially on its job's scratch, so its pass plan does not depend on the
// thread count. All parallel paths are deterministic: results are
// bitwise identical for any thread count.
#ifndef SND_CORE_SND_H_
#define SND_CORE_SND_H_

#include <array>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "snd/core/snd_options.h"
#include "snd/emd/banks.h"
#include "snd/emd/dense_matrix.h"
#include "snd/flow/simplex_solver.h"
#include "snd/graph/graph.h"
#include "snd/opinion/distance_types.h"  // StatePairs, BatchDistanceFn.
#include "snd/opinion/network_state.h"
#include "snd/opinion/opinion_model.h"
#include "snd/paths/sssp_engine.h"
#include "snd/util/mutex.h"

namespace snd {

class DialLaneEngine;

// One of the four EMD* terms of Eq. 3.
struct SndTermResult {
  Opinion op = Opinion::kPositive;
  // True for the terms whose ground distance derives from the first
  // argument state (EMD*(G1^op, G2^op, D(G1, op))).
  bool forward = true;
  double cost = 0.0;
  int32_t num_suppliers = 0;
  int32_t num_consumers = 0;
  int32_t num_banks = 0;
  // Shortest-path searches the term ran: min(plain-side bins, bank-side
  // bins + active bank clusters) - see ComputeTermFast.
  int32_t num_searches = 0;
  // Engine passes that ran them: DialLaneEngine sweeps of up to 32 lanes
  // plus single searches (equal to num_searches when the term does not
  // batch).
  int32_t num_passes = 0;
};

struct SndResult {
  double value = 0.0;
  std::array<SndTermResult, 4> terms;
  // Number of users whose opinion differs between the two states.
  int32_t n_delta = 0;
  double total_seconds = 0.0;
};

class SndCalculator {
 public:
  // `graph` must outlive the calculator. Construction performs the
  // state-independent precomputation: the propagation model, the reversed
  // graph, the bank clustering and the bank ground distances.
  SndCalculator(const Graph* graph, SndOptions options);
  ~SndCalculator();

  SndCalculator(const SndCalculator&) = delete;
  SndCalculator& operator=(const SndCalculator&) = delete;

  // Fast Theorem-4 computation of SND(a, b): the four terms run as
  // concurrent jobs on the shared thread pool (at most four threads).
  SndResult Compute(const NetworkState& a, const NetworkState& b) const;

  // Convenience: Compute(a, b).value.
  double Distance(const NetworkState& a, const NetworkState& b) const;

  // Batch engine: SND values for every (i, j) in `pairs` (indices into
  // `states`), evaluated as pairs x 4 term jobs on the shared thread pool
  // with the per-(state, opinion) edge costs and reversed-cost buffers
  // computed once and shared across all terms and pairs. result[k]
  // corresponds to pairs[k]; values are bitwise identical to
  // Distance(states[i], states[j]) for any thread count.
  std::vector<double> BatchDistances(const std::vector<NetworkState>& states,
                                     const StatePairs& pairs) const;

  // Symmetric pairwise distance matrix over `states` (each unordered pair
  // evaluated once; zero diagonal). Backed by BatchDistances.
  DenseMatrix PairwiseDistanceMatrix(
      const std::vector<NetworkState>& states) const;

  // d[t] = SND(states[t], states[t+1]); size states.size() - 1. The
  // workhorse of the Section 6.2 time-series workloads. Backed by
  // BatchDistances.
  std::vector<double> AdjacentDistanceSeries(
      const std::vector<NetworkState>& states) const;

  // The batch engine as a BatchDistanceFn for the analysis-layer APIs
  // (AdjacentDistances, PairwiseDistances, MetricIndex). The calculator
  // must outlive the returned callback.
  BatchDistanceFn BatchFn() const;

  // The per-(state, opinion) edge-cost store of the batch engine,
  // exposed opaquely so long-lived callers (the service layer) can keep
  // edge costs and reversed-cost buffers warm across *calls* over one
  // resident state series, not just across the pairs of one call.
  class EdgeCostCache;

  // A reusable cache over `*states`. Requirements, unchecked beyond what
  // SND_CHECKs can see: `*states` outlives the cache; between calls it
  // may only grow by appending (an append-only series keeps every cached
  // entry valid); existing elements are never mutated in place. Replace
  // the cache when the series is replaced. The calculator must outlive
  // the cache (the cache costs edges with the calculator's model).
  std::shared_ptr<EdgeCostCache> MakeEdgeCostCache(
      const std::vector<NetworkState>* states) const;

  // BatchDistances with a caller-owned cache created by MakeEdgeCostCache
  // over this same `states` vector: per-(state, opinion) work done by an
  // earlier call is not repeated. Values are bitwise identical to the
  // cache-less overload.
  std::vector<double> BatchDistances(const std::vector<NetworkState>& states,
                                     const StatePairs& pairs,
                                     EdgeCostCache* cache) const;

  // Carries `old_cache` (built by the calculator of `summary`'s base
  // graph over the same `states` vector) across a graph mutation: every
  // (state, opinion) entry that was built in the old cache is re-created
  // for this calculator's graph via the model's PatchEdgeCosts, counted
  // as edge_cost_patches. Entries the model declines to patch (and
  // entries never built) are left lazy, to be rebuilt on first use as
  // usual. `patched`, if non-null, receives the (state index, opinion)
  // list that was successfully carried over. Must not race with readers
  // of `old_cache`.
  std::shared_ptr<EdgeCostCache> MakeEdgeCostCachePatched(
      const std::vector<NetworkState>* states, const EdgeCostCache& old_cache,
      const MutationSummary& summary,
      std::vector<std::pair<int32_t, Opinion>>* patched) const;

  // Whether the (state, opinion) edge costs were already built (or
  // patched) in `cache`. Lets mutation-time certificate logic restrict
  // itself to entries that are actually warm.
  static bool EdgeCostsBuilt(const EdgeCostCache& cache, int32_t state,
                             Opinion op);

  // Drops the first `count` states from `cache` after the caller has
  // erased the same prefix of the backing states vector (sliding-window
  // retention). Entry k of the trimmed cache corresponds to the new
  // states[k]. Must not race with readers of `cache`.
  static void TrimEdgeCostCache(EdgeCostCache* cache, int32_t count);

  // Reverse shortest-path distances d(s, target) for every source s under
  // the ground distance D(states[state], op), served from `cache` (costs
  // built on demand). One full reverse SSSP, counted in sssp_runs. Used
  // by the service layer's mutation certificates: after add_edge(u, v)
  // with new-edge cost c, a source s keeps all its ground-distance rows
  // iff d(s, u) + c >= d(s, v) on the pre-mutation graph; after
  // remove_edge, iff d(s, v) is unchanged between the two graphs.
  std::vector<int64_t> DistancesToNode(const std::vector<NetworkState>& states,
                                       int32_t state, Opinion op,
                                       int32_t target,
                                       EdgeCostCache* cache) const;

  // The users whose ground-distance *rows* feed the EMD* term
  // EMD*(from^op, to^op, D(from-or-to, op)): the surviving suppliers
  // after Lemma 2 cancellation, plus — when the supply side is lighter,
  // so banks join the supply side — the members of every active bank
  // cluster. These are distance *rows* d(s, .), whichever direction the
  // term happens to search them in. If none of these users' distance
  // rows changed, the term's value is unchanged. Sorted ascending,
  // deduplicated.
  std::vector<int32_t> TermRowSources(const NetworkState& from,
                                      const NetworkState& to,
                                      Opinion op) const;

  // The per-edge cost of the new-graph CSR edge `e` (endpoints u->v)
  // under D(states[state], op), served from `cache`. Builds the entry if
  // needed.
  int32_t EdgeCostAt(const std::vector<NetworkState>& states, int32_t state,
                     Opinion op, int64_t e, EdgeCostCache* cache) const;

  // Dense reference computation (O(n) SSSPs + full transportation).
  SndResult ComputeReference(const NetworkState& a,
                             const NetworkState& b) const;

  // The ground distance matrix D(state, op) as a dense matrix, with
  // unreachable pairs mapped to DisconnectionCost(). Exposed for tests and
  // for the EMD-layer benches.
  DenseMatrix GroundDistanceMatrix(const NetworkState& state,
                                   Opinion op) const;

  // Finite stand-in for unreachable ground distances: larger than any
  // realizable shortest path (max edge cost * n), preserving the triangle
  // inequality. Both computation paths share this convention.
  int64_t DisconnectionCost() const;

  const BankSpec& banks() const { return banks_; }
  const OpinionModel& model() const { return *model_; }
  const SndOptions& options() const { return options_; }

  // The concrete SSSP backend behind every ground-distance search
  // (SndOptions::sssp_backend with kAuto resolved against the graph size,
  // the model's MaxEdgeCost() and the construction-time global thread
  // count).
  SsspBackend sssp_backend() const { return sssp_backend_; }

 private:
  struct TermSpec {
    const NetworkState* distance_state;  // Defines D.
    const NetworkState* from;            // Supplies mass.
    const NetworkState* to;              // Demands mass.
    Opinion op;
    bool forward;
  };

  // Reusable per-lane scratch so term jobs do not reallocate the O(n)
  // SSSP workspaces for every term of every pair. The engine is built
  // by MakeEngine() against the calculator's resolved backend; `sources`
  // holds one search's seeds (a bin, or every member of a bank cluster),
  // whichever side of the term the search starts from. `lanes` (128 B per
  // node on int16 lanes) is created by the first batched pass that runs
  // on this scratch.
  struct TermScratch {
    explicit TermScratch(const SndCalculator& calc);
    ~TermScratch();
    std::unique_ptr<SsspEngine> engine;
    std::unique_ptr<DialLaneEngine> lanes;
    std::vector<int64_t> cluster_min;
    std::vector<SsspSource> sources;
  };

  // Optional precomputed inputs for one term evaluation. Default (no
  // cache) means: compute the edge costs locally.
  struct TermContext {
    EdgeCostCache* cache = nullptr;  // With distance_state_index below.
    int32_t distance_state_index = -1;
  };

  // One EMD* term, its searches run serially on `scratch`.
  SndTermResult ComputeTermFast(const TermSpec& spec, const TermContext& ctx,
                                TermScratch* scratch) const;
  SndTermResult ComputeTermReference(const TermSpec& spec) const;
  std::array<TermSpec, 4> MakeTermSpecs(const NetworkState& a,
                                        const NetworkState& b) const;

  // Runs job(k, scratch) for every k in [0, num_jobs) on the shared pool,
  // each on its lane's term scratch. Compute and BatchDistances make one
  // job per (pair, term): the four terms of a pair are independent, so a
  // single pair spreads over up to four pool threads.
  void RunTermJobs(int64_t num_jobs,
                   const std::function<void(int64_t, TermScratch*)>& job) const;

  // A fresh reusable engine for this calculator's graph/model (one per
  // scratch lane; engines are not thread-safe).
  std::unique_ptr<SsspEngine> MakeEngine() const;

  // A spare term scratch, or a new one. Callers hand it back with
  // ReturnScratch when their computation ends, so the search workspaces
  // (the lane rows alone take 128 B per node) are allocated once per
  // concurrent caller rather than once per call; freeing and reallocating
  // them per call also makes the allocator grow the heap around them.
  std::unique_ptr<TermScratch> TakeScratch() const;
  void ReturnScratch(std::unique_ptr<TermScratch> scratch) const;

  const Graph* graph_;
  SndOptions options_;
  std::unique_ptr<OpinionModel> model_;
  SsspBackend sssp_backend_ = SsspBackend::kDijkstra;  // Resolved in ctor.
  // Whether terms may run their searches through DialLaneEngine: the
  // backend is Dial and int32 lanes hold every distance (LanesFit).
  bool batch_searches_ = false;
  SimplexSolver solver_;  // Stateless; shared by threads.
  Graph reversed_;
  std::vector<int64_t> reverse_origin_;  // Reversed edge -> original edge.
  BankSpec banks_;
  std::vector<std::vector<int32_t>> cluster_members_;

  mutable Mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<TermScratch>> spare_scratch_
      SND_GUARDED_BY(scratch_mu_);
};

}  // namespace snd

#endif  // SND_CORE_SND_H_
