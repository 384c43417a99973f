#include "snd/paths/sssp_engine.h"

#include <algorithm>

#include "snd/obs/trace.h"

namespace snd {

const char* SsspBackendName(SsspBackend backend) {
  switch (backend) {
    case SsspBackend::kAuto:
      return "auto";
    case SsspBackend::kDijkstra:
      return "dijkstra";
    case SsspBackend::kDial:
      return "dial";
    case SsspBackend::kDeltaStepping:
      return "delta";
  }
  return "unknown";
}

DijkstraEngine::DijkstraEngine(int32_t num_nodes)
    : dist_(static_cast<size_t>(num_nodes), kUnreachableDistance),
      targets_(num_nodes) {}

std::span<const int64_t> DijkstraEngine::Run(
    const Graph& g, std::span<const int32_t> edge_costs,
    std::span<const SsspSource> sources, const SsspGoal& goal) {
  SND_CHECK(static_cast<int64_t>(edge_costs.size()) == g.num_edges());
  SND_CHECK(dist_.size() == static_cast<size_t>(g.num_nodes()));
  obs::EngineRunScope obs_run(obs::kSsspSlotDijkstra);
  std::fill(dist_.begin(), dist_.end(), kUnreachableDistance);
  heap_.clear();
  const bool pruned = !goal.settle_all();
  if (pruned) targets_.Reset(goal.targets());

  // Lazy-deletion binary heap of (distance, node); stale entries are
  // skipped on pop. std::*_heap keeps a max-heap, so distances are negated.
  auto push = [this](int64_t d, int32_t v) {
    heap_.emplace_back(-d, v);
    std::push_heap(heap_.begin(), heap_.end());
  };
  for (const SsspSource& s : sources) {
    SND_CHECK(0 <= s.node && s.node < g.num_nodes());
    SND_CHECK(s.initial_distance >= 0);
    if (s.initial_distance < dist_[static_cast<size_t>(s.node)]) {
      dist_[static_cast<size_t>(s.node)] = s.initial_distance;
      push(s.initial_distance, s.node);
    }
  }
  if (pruned && targets_.remaining() == 0) return dist_;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const auto [neg_d, u] = heap_.back();
    heap_.pop_back();
    const int64_t d = -neg_d;
    if (d != dist_[static_cast<size_t>(u)]) continue;  // Stale entry.
    obs_run.AddSettled();
    // u is settled here: dist_[u] can only shrink, and every remaining
    // heap entry is >= d while costs are >= 0. The last settled target
    // ends the search before u's (irrelevant) out-edges are relaxed.
    if (pruned && targets_.Settle(u)) break;
    const int64_t begin = g.OutEdgeBegin(u), end = g.OutEdgeEnd(u);
    for (int64_t e = begin; e < end; ++e) {
      const int32_t v = g.EdgeTarget(e);
      const int32_t c = edge_costs[static_cast<size_t>(e)];
      SND_DCHECK(c >= 0);
      const int64_t nd = d + c;
      if (nd < dist_[static_cast<size_t>(v)]) {
        dist_[static_cast<size_t>(v)] = nd;
        push(nd, v);
      }
    }
  }
  return dist_;
}

DialEngine::DialEngine(int32_t num_nodes, int32_t max_cost)
    : max_cost_(max_cost),
      dist_(static_cast<size_t>(num_nodes), kUnreachableDistance),
      targets_(num_nodes) {
  SND_CHECK(max_cost >= 0);
}

std::span<const int64_t> DialEngine::Run(const Graph& g,
                                         std::span<const int32_t> edge_costs,
                                         std::span<const SsspSource> sources,
                                         const SsspGoal& goal) {
  SND_CHECK(static_cast<int64_t>(edge_costs.size()) == g.num_edges());
  SND_CHECK(dist_.size() == static_cast<size_t>(g.num_nodes()));
  obs::EngineRunScope obs_run(obs::kSsspSlotDial);
  std::fill(dist_.begin(), dist_.end(), kUnreachableDistance);
  const bool pruned = !goal.settle_all();
  if (pruned) targets_.Reset(goal.targets());

  // Multi-source searches can seed distinct initial offsets, so the live
  // window spans (max initial offset) + max_cost + 1 buckets.
  int64_t max_offset = 0;
  for (const SsspSource& s : sources) {
    SND_CHECK(0 <= s.node && s.node < g.num_nodes());
    SND_CHECK(s.initial_distance >= 0);
    max_offset = std::max(max_offset, s.initial_distance);
  }
  const int64_t window = max_offset + max_cost_ + 1;
  if (static_cast<int64_t>(buckets_.size()) < window) {
    buckets_.resize(static_cast<size_t>(window));
  }
  // An early-exited previous run leaves stale nodes behind; the inner
  // vectors keep their capacity across runs either way.
  for (auto& bucket : buckets_) bucket.clear();

  int64_t pending = 0;
  for (const SsspSource& s : sources) {
    if (s.initial_distance < dist_[static_cast<size_t>(s.node)]) {
      dist_[static_cast<size_t>(s.node)] = s.initial_distance;
      buckets_[static_cast<size_t>(s.initial_distance % window)].push_back(
          s.node);
      ++pending;
    }
  }
  if (pruned && targets_.remaining() == 0) return dist_;
  // Sweep distances in increasing order; stale bucket entries (re-inserted
  // at a smaller distance) are filtered by the dist comparison.
  bool done = false;
  std::vector<int32_t> current;
  for (int64_t d = 0; pending > 0 && !done; ++d) {
    auto& bucket = buckets_[static_cast<size_t>(d % window)];
    // Entries in this bucket either have dist == d (current) or were
    // superseded; both cases consume a pending slot. Zero-cost edges can
    // re-fill the bucket mid-sweep, so drain it until empty.
    while (!bucket.empty() && !done) {
      current.clear();
      current.swap(bucket);
      for (int32_t u : current) {
        --pending;
        if (dist_[static_cast<size_t>(u)] != d) continue;
        obs_run.AddSettled();
        // u is settled (swept at its final distance); see the Dijkstra
        // engine for the target-pruning rationale.
        if (pruned && targets_.Settle(u)) {
          done = true;
          break;
        }
        const int64_t begin = g.OutEdgeBegin(u), end = g.OutEdgeEnd(u);
        for (int64_t e = begin; e < end; ++e) {
          const int32_t v = g.EdgeTarget(e);
          const int32_t c = edge_costs[static_cast<size_t>(e)];
          SND_DCHECK(0 <= c && c <= max_cost_);
          const int64_t nd = d + c;
          if (nd < dist_[static_cast<size_t>(v)]) {
            dist_[static_cast<size_t>(v)] = nd;
            buckets_[static_cast<size_t>(nd % window)].push_back(v);
            ++pending;
          }
        }
      }
    }
  }
  return dist_;
}

SsspBackend ResolveSsspBackend(SsspBackend requested, int32_t num_nodes,
                               int32_t max_edge_cost) {
  if (requested != SsspBackend::kAuto) return requested;
  // Dial allocates max_edge_cost + 1 buckets and its sweep walks every
  // distance value up to the search radius (<= hops * U), so it pays off
  // exactly in Assumption 2's regime: U small relative to n. The absolute
  // cap keeps the bucket array bounded on huge-U configurations; the
  // measured crossover is printed by bench_sssp.
  if (max_edge_cost <= kDialAutoCostCap &&
      static_cast<int64_t>(max_edge_cost) <=
          static_cast<int64_t>(num_nodes) / 2) {
    return SsspBackend::kDial;
  }
  // Outside the Dial regime (large U), delta-stepping's width-Delta
  // buckets replace both the heap's log factor and Dial's per-distance
  // sweep; it needs enough nodes per bucket round to amortize the round
  // overhead.
  if (num_nodes >= kDeltaAutoMinNodes) return SsspBackend::kDeltaStepping;
  return SsspBackend::kDijkstra;
}

std::unique_ptr<SsspEngine> MakeSsspEngine(SsspBackend backend,
                                           int32_t num_nodes,
                                           int32_t max_edge_cost) {
  SND_CHECK(num_nodes >= 0);
  SND_CHECK(max_edge_cost >= 0);
  switch (ResolveSsspBackend(backend, num_nodes, max_edge_cost)) {
    case SsspBackend::kDial:
      return std::make_unique<DialEngine>(num_nodes, max_edge_cost);
    case SsspBackend::kDeltaStepping:
      return std::make_unique<DeltaSteppingEngine>(num_nodes, max_edge_cost);
    case SsspBackend::kDijkstra:
    case SsspBackend::kAuto:  // Unreachable: resolution is concrete.
      break;
  }
  return std::make_unique<DijkstraEngine>(num_nodes);
}

}  // namespace snd
