#include "snd/paths/dial_lanes.h"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "snd/obs/trace.h"
#include "snd/paths/sssp.h"
#include "snd/util/check.h"

namespace snd {

namespace {

constexpr int32_t kNoKey = std::numeric_limits<int32_t>::max();
// A 16-byte lane word seen as two 64-bit halves.
typedef int64_t WordBits __attribute__((vector_size(16)));

}  // namespace

bool DialLaneEngine::LanesFit(int32_t num_nodes, int32_t max_cost) {
  return max_cost >= 0 &&
         int64_t{max_cost} * std::max<int64_t>(1, int64_t{num_nodes} - 1) <
             int64_t{NodeRows<int32_t>::kInfinity};
}

DialLaneEngine::DialLaneEngine(int32_t num_nodes, int32_t max_cost)
    : max_cost_(max_cost),
      wide_(2 * int64_t{max_cost} >= NodeRows<int16_t>::kInfinity),
      key_(static_cast<size_t>(num_nodes), kNoKey),
      head_(2 * (static_cast<size_t>(max_cost) + 1), -1),
      next_(static_cast<size_t>(num_nodes)),
      prev_(static_cast<size_t>(num_nodes)) {
  SND_CHECK(LanesFit(num_nodes, max_cost));
  if (wide_) {
    wide_rows_.resize(static_cast<size_t>(num_nodes));
  } else {
    narrow_rows_.resize(static_cast<size_t>(num_nodes));
  }
}

void DialLaneEngine::Run(
    const Graph& g, std::span<const int32_t> edge_costs,
    std::span<const std::span<const int32_t>> lane_sources) {
  SND_CHECK(static_cast<int64_t>(edge_costs.size()) == g.num_edges());
  SND_CHECK(key_.size() == static_cast<size_t>(g.num_nodes()));
  SND_CHECK(lane_sources.size() <= static_cast<size_t>(kMaxLanes));
  if (!wide_) {
    // Values stay within d + 2U, below 2^14, while d < 2^14 - 2U.
    if (Sweep(g, edge_costs, lane_sources,
              NodeRows<int16_t>::kInfinity - 2 * max_cost_, &narrow_rows_)) {
      return;
    }
    wide_ = true;
    std::vector<NodeRows<int16_t>>().swap(narrow_rows_);
    wide_rows_.resize(key_.size());
  }
  Sweep(g, edge_costs, lane_sources, kNoKey, &wide_rows_);  // Never aborts.
}

template <typename T>
bool DialLaneEngine::Sweep(
    const Graph& g, std::span<const int32_t> edge_costs,
    std::span<const std::span<const int32_t>> lane_sources,
    int32_t abort_key, std::vector<NodeRows<T>>* rows_out) {
  using Rows = NodeRows<T>;
  using Word = typename Rows::Word;
  constexpr int kWords = Rows::kWords;
  constexpr int kLanesPerWord = Rows::kLanesPerWord;
  constexpr T kInf = Rows::kInfinity;
  obs::EngineRunScope obs_run(obs::kSsspSlotDial);

  // Lane-wise helpers built from the GCC/Clang vector operators only;
  // comparisons yield all-ones or zero per lane.
  auto splat = [](T x) { return Word{} + x; };
  auto select = [](Word mask, Word a, Word b) {
    return (a & mask) | (b & ~mask);
  };
  auto min = [&](Word a, Word b) { return select(a < b, a, b); };
  // Whether no lane of the kWords mask words is set.
  auto none = [](const Word* masks) {
    Word any = masks[0];
    for (int w = 1; w < kWords; ++w) any |= masks[w];
    const auto bits = reinterpret_cast<WordBits>(any);
    return (bits[0] | bits[1]) == 0;
  };
  // The row's minimum, as a bucket key (kNoKey when every lane is idle).
  auto row_key = [&](const Word* row) {
    Word m = row[0];
    for (int w = 1; w < kWords; ++w) m = min(m, row[w]);
    T best = m[0];
    for (int k = 1; k < kLanesPerWord; ++k) best = std::min<T>(best, m[k]);
    return best < kInf ? int32_t{best} : kNoKey;
  };
  const Word inf = splat(kInf);

  for (Rows& r : *rows_out) {
    for (int w = 0; w < kWords; ++w) r.dist[w] = r.pend[w] = inf;
  }
  // A finished sweep drains the ring and an aborted one empties it, so
  // only the rows and keys need a reset.
  std::fill(key_.begin(), key_.end(), kNoKey);

  Rows* const rows = rows_out->data();
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
    if (keys[v] != kNoKey) {
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
      Rows& r = rows[s];
      r.dist[lane / kLanesPerWord][lane % kLanesPerWord] = 0;
      r.pend[lane / kLanesPerWord][lane % kLanesPerWord] = 0;
      if (keys[s] != 0) requeue(s, 0);
    }
  }

  // Sweep keys in increasing order, popping the current bucket until it
  // is empty (zero-cost arcs can re-fill it).
  for (; queued > 0; ++d, slot = slot + 1 == window ? 0 : slot + 1) {
    if (d >= abort_key) {
      std::fill(head_.begin(), head_.end(), -1);
      return false;
    }
    while (head_[static_cast<size_t>(slot)] >= 0) {
      const int32_t u = head_[static_cast<size_t>(slot)];
      unlink(u);
      --queued;
      obs_run.AddSettled();
      // Expand every lane pending at <= d + U; its results stay within
      // d + 2U, inside the ring. Later lanes keep u queued.
      Rows& ru = rows[u];
      const Word limit = splat(static_cast<T>(d + max_cost_));
      Word src[kWords];
      for (int w = 0; w < kWords; ++w) {
        const Word take = ru.pend[w] <= limit;
        src[w] = select(take, ru.pend[w], inf);
        ru.pend[w] = select(take, inf, ru.pend[w]);
      }
      keys[u] = kNoKey;
      const int32_t rest = row_key(ru.pend);
      if (rest != kNoKey) requeue(u, rest);
      const std::span<const int32_t> targets = g.OutNeighbors(u);
      const int32_t* const arc_costs = edge_costs.data() + g.OutEdgeBegin(u);
      for (size_t k = 0; k < targets.size(); ++k) {
        const int32_t v = targets[k];
        const int32_t c = arc_costs[k];
        SND_DCHECK(0 <= c && c <= max_cost_);
        Rows& rv = rows[v];
        const Word cost = splat(static_cast<T>(c));
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
        const int32_t key = row_key(rv.pend);
        if (key < keys[v]) requeue(v, key);
      }
    }
  }
  return true;
}

int64_t DialLaneEngine::Distance(int lane, int32_t node) const {
  SND_DCHECK(0 <= lane && lane < kMaxLanes);
  auto read = [&](const auto& rows) -> int64_t {
    using Rows = std::decay_t<decltype(rows[0])>;
    constexpr int kPer = Rows::kLanesPerWord;
    const auto d =
        rows[static_cast<size_t>(node)].dist[lane / kPer][lane % kPer];
    return d >= Rows::kInfinity ? kUnreachableDistance : d;
  };
  return wide_ ? read(wide_rows_) : read(narrow_rows_);
}

}  // namespace snd
