// Multi-lane Dial search: up to 32 independent shortest-path searches
// ("lanes") over one graph and one cost buffer in a single bucket sweep,
// in the spirit of multi-source BFS (Then et al., VLDB 2014).
//
// Every node keeps two 32-lane rows - `dist`, the best value found so far
// in each lane, and `pend`, the value of each lane not yet expanded (the
// lane infinity when none) - each made of 16-byte GCC/Clang
// vector-extension words. A node's bucket key is the minimum of its
// `pend` row. Popping a node at key d expands, in one vector add, compare
// and select per arc and word, every lane whose pending value is
// <= d + U; lanes beyond d + U stay pending and the node is re-queued at
// their minimum. Expanded values can still improve later, and are then
// expanded again: this is exact label-correcting search on integers, so
// each lane ends with exactly the distances of a full single-source
// DialEngine search from its sources.
//
// Every pending value lies in [d, d + 2U] while the sweep is at d, so one
// ring of 2(U + 1) buckets serves all lanes, and every value stays below
// the lane infinity, 2^14 (int16) or 2^30 (int32), while d + 2U does. A
// sweep first runs on int16 lanes, four words of 8 lanes per row, 128 B per
// node. It aborts as soon as its key d reaches 2^14 - 2U with nodes still
// queued; the same lanes then rerun exactly on int32 lanes (eight words
// of 4 per row, 256 B per node), and the engine stays on int32 for every
// later Run, since a graph with one long distance likely has more. When
// 2U >= 2^14 the engine starts on int32. The int32 lanes are exact only
// while every finite distance stays below 2^30 (LanesFit); callers fall
// back to per-source engines otherwise.
#ifndef SND_PATHS_DIAL_LANES_H_
#define SND_PATHS_DIAL_LANES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "snd/graph/graph.h"

namespace snd {

class DialLaneEngine {
 public:
  static constexpr int kMaxLanes = 32;

  // Whether int32 lanes hold every finite distance (and the sentinel
  // arithmetic) of graphs with `num_nodes` nodes and costs in
  // [0, max_cost]: max_cost * max(1, num_nodes - 1) < 2^30.
  static bool LanesFit(int32_t num_nodes, int32_t max_cost);

  // Requires LanesFit(num_nodes, max_cost).
  DialLaneEngine(int32_t num_nodes, int32_t max_cost);

  // Runs one full search per lane over `edge_costs` (CSR-aligned, every
  // cost in [0, max_cost]): lane l starts at distance 0 from every node
  // of lane_sources[l]. At most kMaxLanes lanes; a lane with no sources
  // reaches nothing. Each sweep reports one Dial engine run whose settled
  // count is the number of node pops (each pop expands one or more
  // lanes), so an aborted int16 sweep and its int32 rerun report two.
  void Run(const Graph& g, std::span<const int32_t> edge_costs,
           std::span<const std::span<const int32_t>> lane_sources);

  // Lane `lane`'s distance to `node` after the last Run; bitwise equal
  // to a full single-source search (kUnreachableDistance if unreachable).
  int64_t Distance(int lane, int32_t node) const;

  int32_t max_cost() const { return max_cost_; }

 private:
  // A node's dist and pend rows of kMaxLanes T lanes.
  template <typename T>
  struct alignas(64) NodeRows {
    typedef T Word __attribute__((vector_size(16)));
    static constexpr int kLanesPerWord = sizeof(Word) / sizeof(T);
    static constexpr int kWords = kMaxLanes / kLanesPerWord;
    // The lane infinity: above every value a sweep keeps, and far enough
    // below T's maximum that infinity + U cannot overflow.
    static constexpr T kInfinity = T{1} << (8 * sizeof(T) - 2);
    Word dist[kWords];
    Word pend[kWords];
  };

  // One bucket sweep over `rows`. Returns false, with the ring empty
  // again, when the key reaches `abort_key` with nodes still queued.
  template <typename T>
  bool Sweep(const Graph& g, std::span<const int32_t> edge_costs,
             std::span<const std::span<const int32_t>> lane_sources,
             int32_t abort_key, std::vector<NodeRows<T>>* rows);

  int32_t max_cost_;
  bool wide_;  // Runs on int32 lanes.
  std::vector<NodeRows<int16_t>> narrow_rows_;
  std::vector<NodeRows<int32_t>> wide_rows_;  // Allocated on going wide.
  std::vector<int32_t> key_;  // Current bucket key; INT32_MAX: none.
  // The ring of 2(U + 1) buckets as intrusive doubly-linked lists (-1
  // ends a list): a node sits in at most one bucket, the one of its key,
  // so the queue needs no memory beyond these fixed arrays.
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  std::vector<int32_t> prev_;
};

}  // namespace snd

#endif  // SND_PATHS_DIAL_LANES_H_
