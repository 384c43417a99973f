// Distance-based search over network states with triangle-inequality
// pruning (the paper's Section 4 remark that EMD*'s metricity "can be
// exploited to improve practical performance of distance-based search",
// citing Clarkson's survey).
//
// MetricIndex stores a database of states and the distances from a set of
// pivot states to every database entry. A nearest-neighbor query first
// computes the query's distances to the pivots; the triangle inequality
// then lower-bounds every database distance as
//   d(q, x) >= max_p |d(q, p) - d(p, x)|,
// and entries whose bound exceeds the best distance found so far are
// skipped without evaluating the (expensive) measure. The distance must
// be (close to) metric for the pruning to be exact; with SND's default
// pair-dependent bank capacities the bound is near-exact in practice
// (triangle violations are rare, see
// EmdStarTest.TriangleCounterexampleForPaperCapacities) and the index
// optionally re-checks pruned candidates.
#ifndef SND_ANALYSIS_METRIC_SEARCH_H_
#define SND_ANALYSIS_METRIC_SEARCH_H_

#include <cstdint>
#include <vector>

#include "snd/baselines/baselines.h"
#include "snd/opinion/network_state.h"

namespace snd {

struct MetricSearchStats {
  int64_t distance_evaluations = 0;
  int64_t pruned = 0;
};

class MetricIndex {
 public:
  // Builds the index over `database` with `num_pivots` pivots (the first
  // states in a deterministic max-spread order). `fn` is retained; both
  // must outlive the index.
  MetricIndex(const std::vector<NetworkState>* database, DistanceFn fn,
              int32_t num_pivots);

  // Batch-aware construction: the pivot rows (num_pivots * |database|
  // distance evaluations, the expensive part of indexing) are computed
  // through `batch_fn` (e.g. SndCalculator::BatchFn), which parallelizes
  // and shares per-state work. Queries still use the pointwise `fn`. The
  // resulting index is identical to the pointwise-constructed one.
  MetricIndex(const std::vector<NetworkState>* database, DistanceFn fn,
              int32_t num_pivots, const BatchDistanceFn& batch_fn);

  // Index of the database state nearest to `query` (exact under a metric
  // distance). `stats`, when non-null, receives evaluation/prune counts.
  int32_t NearestNeighbor(const NetworkState& query,
                          MetricSearchStats* stats = nullptr) const;

  int32_t num_pivots() const { return static_cast<int32_t>(pivots_.size()); }

 private:
  const std::vector<NetworkState>* database_;
  DistanceFn fn_;
  std::vector<int32_t> pivots_;
  // pivot_dist_[p][i] = fn(database[pivots_[p]], database[i]).
  std::vector<std::vector<double>> pivot_dist_;
};

}  // namespace snd

#endif  // SND_ANALYSIS_METRIC_SEARCH_H_
