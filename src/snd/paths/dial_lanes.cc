#include "snd/paths/dial_lanes.h"

#include <algorithm>

#include "snd/obs/trace.h"
#include "snd/paths/sssp.h"
#include "snd/util/check.h"

namespace snd {

bool DialLaneEngine::LanesFit(int32_t num_nodes, int32_t max_cost) {
  return max_cost >= 0 &&
         int64_t{max_cost} * std::max<int64_t>(1, int64_t{num_nodes} - 1) <
             int64_t{kLaneInfinity};
}

DialLaneEngine::DialLaneEngine(int32_t num_nodes, int32_t max_cost)
    : max_cost_(max_cost),
      rows_(static_cast<size_t>(num_nodes)),
      key_(static_cast<size_t>(num_nodes), kLaneInfinity),
      head_(2 * (static_cast<size_t>(max_cost) + 1), -1),
      next_(static_cast<size_t>(num_nodes)),
      prev_(static_cast<size_t>(num_nodes)) {
  SND_CHECK(LanesFit(num_nodes, max_cost));
}

void DialLaneEngine::Run(
    const Graph& g, std::span<const int32_t> edge_costs,
    std::span<const std::span<const int32_t>> lane_sources) {
  SND_CHECK(static_cast<int64_t>(edge_costs.size()) == g.num_edges());
  SND_CHECK(rows_.size() == static_cast<size_t>(g.num_nodes()));
  SND_CHECK(lane_sources.size() <= static_cast<size_t>(kMaxLanes));
  obs::EngineRunScope obs_run(obs::kSsspSlotDial);

  // Lane-wise helpers built from the GCC/Clang vector operators only;
  // comparisons yield all-ones or zero per lane.
  auto splat = [](int32_t x) { return Word{} + x; };
  auto select = [](Word mask, Word a, Word b) {
    return (a & mask) | (b & ~mask);
  };
  auto min = [&](Word a, Word b) { return select(a < b, a, b); };
  // Whether no lane of the kWords mask words is set.
  auto none = [](const Word* masks) {
    Word any = masks[0];
    for (int w = 1; w < kWords; ++w) any |= masks[w];
    for (int k = 0; k < kLanesPerWord; ++k) {
      if (any[k] != 0) return false;
    }
    return true;
  };
  auto row_min = [&](const Word* row) {
    Word m = row[0];
    for (int w = 1; w < kWords; ++w) m = min(m, row[w]);
    int32_t best = m[0];
    for (int k = 1; k < kLanesPerWord; ++k) best = std::min(best, m[k]);
    return best;
  };
  const Word inf = splat(kLaneInfinity);

  for (NodeRows& r : rows_) {
    for (int w = 0; w < kWords; ++w) r.dist[w] = r.pend[w] = inf;
  }
  // Every Run drains the ring, so only the rows and keys need a reset.
  std::fill(key_.begin(), key_.end(), kLaneInfinity);

  NodeRows* const rows = rows_.data();
  int32_t* const keys = key_.data();
  int32_t* const next = next_.data();
  int32_t* const prev = prev_.data();
  const auto window = static_cast<int32_t>(head_.size());
  // The key being swept and its slot; every queued key is in
  // [d, d + window).
  int32_t d = 0;
  int32_t slot = 0;
  int64_t queued = 0;
  auto slot_of = [&](int32_t key) {
    const int32_t s = slot + (key - d);
    return static_cast<size_t>(s < window ? s : s - window);
  };
  auto link = [&](int32_t v) {
    int32_t& head = head_[slot_of(keys[v])];
    next[v] = head;
    prev[v] = -1;
    if (head >= 0) prev[head] = v;
    head = v;
  };
  auto unlink = [&](int32_t v) {
    if (prev[v] >= 0) {
      next[prev[v]] = next[v];
    } else {
      head_[slot_of(keys[v])] = next[v];
    }
    if (next[v] >= 0) prev[next[v]] = prev[v];
  };
  // Moves v to bucket `key` (below its current key, if it has one).
  auto requeue = [&](int32_t v, int32_t key) {
    if (keys[v] < kLaneInfinity) {
      unlink(v);
    } else {
      ++queued;
    }
    keys[v] = key;
    link(v);
  };

  for (size_t lane = 0; lane < lane_sources.size(); ++lane) {
    for (int32_t s : lane_sources[lane]) {
      SND_CHECK(0 <= s && s < g.num_nodes());
      NodeRows& r = rows[s];
      r.dist[lane / kLanesPerWord][lane % kLanesPerWord] = 0;
      r.pend[lane / kLanesPerWord][lane % kLanesPerWord] = 0;
      if (keys[s] != 0) requeue(s, 0);
    }
  }

  // Sweep keys in increasing order, popping the current bucket until it
  // is empty (zero-cost arcs can re-fill it).
  for (; queued > 0; ++d, slot = slot + 1 == window ? 0 : slot + 1) {
    while (head_[static_cast<size_t>(slot)] >= 0) {
      const int32_t u = head_[static_cast<size_t>(slot)];
      unlink(u);
      --queued;
      obs_run.AddSettled();
      // Expand every lane pending at <= d + U; its results stay within
      // d + 2U, inside the ring. Later lanes keep u queued.
      NodeRows& ru = rows[u];
      const Word limit = splat(d + max_cost_);
      Word src[kWords];
      for (int w = 0; w < kWords; ++w) {
        const Word take = ru.pend[w] <= limit;
        src[w] = select(take, ru.pend[w], inf);
        ru.pend[w] = select(take, inf, ru.pend[w]);
      }
      keys[u] = kLaneInfinity;
      const int32_t rest = row_min(ru.pend);
      if (rest < kLaneInfinity) requeue(u, rest);
      const std::span<const int32_t> targets = g.OutNeighbors(u);
      const int32_t* const arc_costs = edge_costs.data() + g.OutEdgeBegin(u);
      for (size_t k = 0; k < targets.size(); ++k) {
        const int32_t v = targets[k];
        const int32_t c = arc_costs[k];
        SND_DCHECK(0 <= c && c <= max_cost_);
        NodeRows& rv = rows[v];
        const Word cost = splat(c);
        Word nd[kWords];
        Word better[kWords];
        for (int w = 0; w < kWords; ++w) {
          nd[w] = src[w] + cost;
          better[w] = nd[w] < rv.dist[w];
        }
        // Most arcs improve no lane; they then write nothing.
        if (none(better)) continue;
        for (int w = 0; w < kWords; ++w) {
          rv.dist[w] = select(better[w], nd[w], rv.dist[w]);
          rv.pend[w] = select(better[w], nd[w], rv.pend[w]);
        }
        // Every new value is >= d + c (lane values at u are >= d), so
        // a key already <= d + c cannot drop; skip the row minimum.
        if (keys[v] <= d + c) continue;
        const int32_t key = row_min(rv.pend);
        if (key < keys[v]) requeue(v, key);
      }
    }
  }
}

int64_t DialLaneEngine::Distance(int lane, int32_t node) const {
  SND_DCHECK(0 <= lane && lane < kMaxLanes);
  const NodeRows& r = rows_[static_cast<size_t>(node)];
  const int32_t d = r.dist[lane / kLanesPerWord][lane % kLanesPerWord];
  return d >= kLaneInfinity ? kUnreachableDistance : d;
}

}  // namespace snd
