// Pluggable single-source shortest-path engine layer.
//
// Every ground-distance consumer (the per-term searches of the reduced
// SND transportation problem, the dense reference matrix, cluster
// diameters, the ICC model's distance-to-active-set) runs its searches
// through the SsspEngine interface instead of a hard-wired algorithm:
//
//  * DijkstraEngine - binary-heap Dijkstra, no assumptions on costs
//    beyond non-negativity. O((n + m) log n) per search.
//  * DialEngine     - Dial's bucket queue for the bounded integer costs of
//    the paper's Assumption 2 (every cost <= U). O(n + m + radius) per
//    search; this plays the role of the radix-heap Dijkstra of Ahuja et
//    al. behind Theorem 4's complexity bound.
//  * DeltaSteppingEngine - Meyer & Sanders bucketed delta-stepping:
//    buckets of width Delta keyed by floor(dist / Delta), light edges
//    (cost <= Delta) relaxed in per-bucket rounds, heavy edges once per
//    settled bucket. Rounds run sequentially on the calling thread; SND
//    gets its parallelism from one EMD* term per pool job, each on its
//    lane's engine.
//    The result is the unique shortest-path distances, bitwise
//    identical to Dijkstra/Dial.
//
// Engines own reusable workspaces: the distance array, heap/buckets and
// target bitmap are allocated once and recycled across Run calls, so the
// back-to-back searches of the fast SND path allocate nothing.
//
// Beside the interface, DialLaneEngine (paths/dial_lanes.h) runs up to 32
// full Dial searches in one bucket sweep, one per 16-bit SIMD lane of
// each node's distance row (rerun on 32-bit lanes when a distance
// outgrows 16 bits); the SND fast path batches a term's searches
// through it when the backend is Dial. Every engine run reports its
// settled-node count to the obs trace (paths.settled_per_run is settled
// nodes over engine runs): for the single-source engines that is the
// nodes settled by one search, for a lane batch the node pops of the
// whole sweep, where one pop expands one or more lanes.
//
// SsspGoal adds target-pruned early exit: a search can stop as soon as a
// supplied target set is settled (distances final) instead of settling
// all n nodes. Each SND term reads a search only at the opposite side of
// its reduced problem: the bank-side bins and bank-cluster members for a
// search from a plain-side bin, the plain-side bins for a search from
// the bank side (a bin, or a bank cluster seeded from all its members) -
// typically far fewer than n. Settled-target entries are exact, so
// results are bitwise identical to a full search on those entries, for
// every backend and either search direction.
#ifndef SND_PATHS_SSSP_ENGINE_H_
#define SND_PATHS_SSSP_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "snd/graph/graph.h"
#include "snd/paths/sssp.h"

namespace snd {

// Algorithm selection, surfaced as SndOptions::sssp_backend and the CLI's
// --sssp flag. kAuto resolves per graph/model via ResolveSsspBackend.
enum class SsspBackend {
  kAuto,
  kDijkstra,
  kDial,
  kDeltaStepping,
};

const char* SsspBackendName(SsspBackend backend);

// What one search must settle: every node, or just a target set.
class SsspGoal {
 public:
  // Settle all n nodes (the classic full search).
  static SsspGoal AllNodes() { return SsspGoal(); }

  // Stop once every node of `targets` is settled. Duplicates are fine.
  // The span must stay alive for the duration of the Run call.
  static SsspGoal SettleTargets(std::span<const int32_t> targets) {
    SsspGoal goal;
    goal.settle_all_ = false;
    goal.targets_ = targets;
    return goal;
  }

  bool settle_all() const { return settle_all_; }
  std::span<const int32_t> targets() const { return targets_; }

 private:
  SsspGoal() = default;

  bool settle_all_ = true;
  std::span<const int32_t> targets_;
};

// Tracks which goal targets remain unsettled during one run. Reset is
// O(targets) - marks use a generation stamp, so the O(n) array is never
// cleared between runs.
class SsspTargetSet {
 public:
  explicit SsspTargetSet(int32_t num_nodes)
      : mark_(static_cast<size_t>(num_nodes), 0) {}

  // Marks `targets` (deduplicated) as unsettled.
  void Reset(std::span<const int32_t> targets) {
    ++generation_;
    remaining_ = 0;
    for (int32_t t : targets) {
      SND_CHECK(0 <= t && t < static_cast<int32_t>(mark_.size()));
      if (mark_[static_cast<size_t>(t)] != generation_) {
        mark_[static_cast<size_t>(t)] = generation_;
        ++remaining_;
      }
    }
  }

  int64_t remaining() const { return remaining_; }

  // Records that `node` is settled. Returns true when it was the last
  // unsettled target, i.e. the search may stop.
  bool Settle(int32_t node) {
    if (mark_[static_cast<size_t>(node)] == generation_) {
      mark_[static_cast<size_t>(node)] = 0;
      return --remaining_ == 0;
    }
    return false;
  }

 private:
  std::vector<uint64_t> mark_;  // == generation_: unsettled target.
  uint64_t generation_ = 0;
  int64_t remaining_ = 0;
};

// A reusable shortest-path solver bound to a fixed node count.
class SsspEngine {
 public:
  virtual ~SsspEngine() = default;

  // Computes shortest distances from `sources` over `edge_costs`
  // (CSR-aligned, non-negative). Returns a span of size num_nodes, valid
  // until the next Run or destruction. Unreachable nodes hold
  // kUnreachableDistance. With a SettleTargets goal the entries of the
  // goal's targets are exact (identical to a full search); other entries
  // may be tentative upper bounds or kUnreachableDistance.
  virtual std::span<const int64_t> Run(const Graph& g,
                                       std::span<const int32_t> edge_costs,
                                       std::span<const SsspSource> sources,
                                       const SsspGoal& goal) = 0;

  virtual SsspBackend backend() const = 0;
  virtual const char* name() const = 0;
};

// Binary-heap Dijkstra. Valid for any non-negative costs.
class DijkstraEngine : public SsspEngine {
 public:
  explicit DijkstraEngine(int32_t num_nodes);

  std::span<const int64_t> Run(const Graph& g,
                               std::span<const int32_t> edge_costs,
                               std::span<const SsspSource> sources,
                               const SsspGoal& goal) override;

  SsspBackend backend() const override { return SsspBackend::kDijkstra; }
  const char* name() const override { return "dijkstra"; }

 private:
  std::vector<int64_t> dist_;
  std::vector<std::pair<int64_t, int32_t>> heap_;
  SsspTargetSet targets_;
};

// Dial's bucket queue. Every edge cost must lie in [0, max_cost]
// (Assumption 2's U); the live distance window then spans at most
// max_cost + 1 values, so a circular bucket array replaces the heap and
// every queue operation is O(1).
class DialEngine : public SsspEngine {
 public:
  DialEngine(int32_t num_nodes, int32_t max_cost);

  std::span<const int64_t> Run(const Graph& g,
                               std::span<const int32_t> edge_costs,
                               std::span<const SsspSource> sources,
                               const SsspGoal& goal) override;

  SsspBackend backend() const override { return SsspBackend::kDial; }
  const char* name() const override { return "dial"; }
  int32_t max_cost() const { return max_cost_; }

 private:
  int32_t max_cost_;
  std::vector<int64_t> dist_;
  std::vector<std::vector<int32_t>> buckets_;
  SsspTargetSet targets_;
};

// Meyer & Sanders delta-stepping. Buckets of width `delta` keyed by
// floor(dist / delta); light edges (cost <= delta) are relaxed in
// repeated per-bucket rounds, heavy edges once when the bucket settles.
// Every round runs on the calling thread.
class DeltaSteppingEngine : public SsspEngine {
 public:
  // `delta` == 0 picks ChooseSsspDelta(n, m, max_cost) per Run from the
  // actual graph density.
  DeltaSteppingEngine(int32_t num_nodes, int32_t max_cost, int64_t delta = 0);

  std::span<const int64_t> Run(const Graph& g,
                               std::span<const int32_t> edge_costs,
                               std::span<const SsspSource> sources,
                               const SsspGoal& goal) override;

  SsspBackend backend() const override { return SsspBackend::kDeltaStepping; }
  const char* name() const override { return "delta"; }
  int32_t max_cost() const { return max_cost_; }
  // The bucket width of the most recent Run (the configured value, or the
  // per-graph heuristic choice when configured as 0).
  int64_t last_delta() const { return last_delta_; }

 private:
  void RelaxFrontier(const Graph& g, std::span<const int32_t> edge_costs,
                     const std::vector<int32_t>& frontier, bool light,
                     int64_t delta, int64_t num_buckets, int64_t* pending);
  // Lowers node's distance to nd if that improves it and (re)queues it.
  void Relax(int32_t node, int64_t nd, int64_t delta, int64_t num_buckets,
             int64_t* pending);

  int32_t max_cost_;
  int64_t configured_delta_;  // 0 = per-run heuristic.
  int64_t last_delta_ = 0;
  std::vector<int64_t> dist_;
  // Absolute bucket index each node currently sits in (kNotQueued when
  // none); dedupes bucket insertion and filters stale entries on pop.
  std::vector<int64_t> in_bucket_;
  std::vector<std::vector<int32_t>> buckets_;  // Cyclic by bucket index.
  std::vector<int32_t> frontier_;   // Valid pops of the current round.
  std::vector<int32_t> settled_;    // R: nodes settled by current bucket.
  std::vector<uint64_t> settled_stamp_;  // == phase_: already in settled_.
  uint64_t phase_ = 0;
  SsspTargetSet targets_;
};

// The bucket width heuristic for delta-stepping: Delta ~ U / avg_degree
// (Meyer & Sanders' Theta(1/d) for unit-scaled weights), clamped to
// [1, max(1, U)]. Wide enough that a bucket's light rounds amortize the
// per-round sweep, narrow enough to bound re-relaxation work.
int64_t ChooseSsspDelta(int32_t num_nodes, int64_t num_edges,
                        int32_t max_edge_cost);

// Resolves kAuto to a concrete backend for a graph of `num_nodes` nodes
// whose costs are bounded by `max_edge_cost`:
//
//  * Dial when the bound is small relative to n (U <= min(2^16, n/2) -
//    Assumption 2's regime; its bucket array has max_edge_cost + 1
//    entries and its sweep walks every distance value up to the radius),
//  * delta-stepping when n >= kDeltaAutoMinNodes: outside Dial's regime
//    its width-Delta buckets beat the heap on large graphs even on one
//    thread (bench_sssp's delta floors),
//  * Dijkstra otherwise.
//
// The thread count plays no part: every engine runs one search on one
// thread. Concrete requests pass through unchanged. The boundary values
// are pinned by sssp_engine_test.
inline constexpr int32_t kDialAutoCostCap = 1 << 16;
inline constexpr int32_t kDeltaAutoMinNodes = 1 << 14;
SsspBackend ResolveSsspBackend(SsspBackend requested, int32_t num_nodes,
                               int32_t max_edge_cost);

// Builds a reusable engine for searches over graphs of `num_nodes` nodes
// with costs in [0, max_edge_cost]. kAuto resolves via
// ResolveSsspBackend.
std::unique_ptr<SsspEngine> MakeSsspEngine(SsspBackend backend,
                                           int32_t num_nodes,
                                           int32_t max_edge_cost);

}  // namespace snd

#endif  // SND_PATHS_SSSP_ENGINE_H_
