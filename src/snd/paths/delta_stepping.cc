// Meyer & Sanders delta-stepping behind the SsspEngine interface.
//
// Tentative distances live in buckets of width Delta keyed by the
// absolute bucket index floor(dist / Delta), stored cyclically. One
// bucket "phase" repeatedly drains the bucket and relaxes the *light*
// out-edges (cost <= Delta) of the drained nodes - improvements can land
// back in the same bucket, so the round loop runs until the bucket stays
// empty - then relaxes the *heavy* edges (cost > Delta) of every node the
// phase settled, exactly once, at their final distances (a heavy edge
// from bucket b reaches strictly past bucket b, so phases never reopen).
//
// Every round runs on the calling thread. Callers that want parallelism
// run independent searches on separate engines, as SND's concurrent term
// jobs do.
#include <algorithm>

#include "snd/obs/trace.h"
#include "snd/paths/sssp_engine.h"

namespace snd {
namespace {

// Absolute bucket value marking "not queued in any bucket".
constexpr int64_t kNotQueued = -1;

}  // namespace

int64_t ChooseSsspDelta(int32_t num_nodes, int64_t num_edges,
                        int32_t max_edge_cost) {
  const int64_t avg_degree =
      std::max<int64_t>(1, num_edges / std::max<int32_t>(1, num_nodes));
  return std::clamp<int64_t>(max_edge_cost / avg_degree, 1,
                             std::max<int32_t>(1, max_edge_cost));
}

DeltaSteppingEngine::DeltaSteppingEngine(int32_t num_nodes, int32_t max_cost,
                                         int64_t delta)
    : max_cost_(max_cost),
      configured_delta_(delta),
      dist_(static_cast<size_t>(num_nodes), kUnreachableDistance),
      in_bucket_(static_cast<size_t>(num_nodes), kNotQueued),
      settled_stamp_(static_cast<size_t>(num_nodes), 0),
      targets_(num_nodes) {
  SND_CHECK(max_cost >= 0);
  SND_CHECK(delta >= 0);
}

void DeltaSteppingEngine::Relax(int32_t node, int64_t nd, int64_t delta,
                                int64_t num_buckets, int64_t* pending) {
  const auto v = static_cast<size_t>(node);
  if (nd >= dist_[v]) return;
  dist_[v] = nd;
  const int64_t bucket = nd / delta;
  if (in_bucket_[v] == bucket) return;  // Already queued there; dist updated.
  // A previously queued entry (in a larger bucket) goes stale and is
  // filtered on pop by the in_bucket_ check.
  in_bucket_[v] = bucket;
  buckets_[static_cast<size_t>(bucket % num_buckets)].push_back(node);
  ++*pending;
}

void DeltaSteppingEngine::RelaxFrontier(const Graph& g,
                                        std::span<const int32_t> edge_costs,
                                        const std::vector<int32_t>& frontier,
                                        bool light, int64_t delta,
                                        int64_t num_buckets,
                                        int64_t* pending) {
  for (const int32_t u : frontier) {
    const int64_t d = dist_[static_cast<size_t>(u)];
    const int64_t begin = g.OutEdgeBegin(u), end = g.OutEdgeEnd(u);
    for (int64_t e = begin; e < end; ++e) {
      const int64_t c = edge_costs[static_cast<size_t>(e)];
      SND_DCHECK(0 <= c && c <= max_cost_);
      if ((c <= delta) != light) continue;
      Relax(g.EdgeTarget(e), d + c, delta, num_buckets, pending);
    }
  }
}

std::span<const int64_t> DeltaSteppingEngine::Run(
    const Graph& g, std::span<const int32_t> edge_costs,
    std::span<const SsspSource> sources, const SsspGoal& goal) {
  SND_CHECK(static_cast<int64_t>(edge_costs.size()) == g.num_edges());
  SND_CHECK(dist_.size() == static_cast<size_t>(g.num_nodes()));
  obs::EngineRunScope obs_run(obs::kSsspSlotDelta);
  std::fill(dist_.begin(), dist_.end(), kUnreachableDistance);
  std::fill(in_bucket_.begin(), in_bucket_.end(), kNotQueued);
  const bool pruned = !goal.settle_all();
  if (pruned) targets_.Reset(goal.targets());

  const int64_t delta = configured_delta_ > 0
                            ? configured_delta_
                            : ChooseSsspDelta(g.num_nodes(), g.num_edges(),
                                              max_cost_);
  last_delta_ = delta;

  // Like Dial, multi-source initial offsets widen the live window: all
  // queued distances lie within [current, max_offset + current + U], so
  // (max_offset + U) / delta + 2 cyclic buckets can never collide.
  int64_t max_offset = 0;
  for (const SsspSource& s : sources) {
    SND_CHECK(0 <= s.node && s.node < g.num_nodes());
    SND_CHECK(s.initial_distance >= 0);
    max_offset = std::max(max_offset, s.initial_distance);
  }
  const int64_t num_buckets = (max_offset + max_cost_) / delta + 2;
  if (static_cast<int64_t>(buckets_.size()) < num_buckets) {
    buckets_.resize(static_cast<size_t>(num_buckets));
  }
  // An early-exited previous run leaves stale nodes behind; the inner
  // vectors keep their capacity across runs either way.
  for (auto& bucket : buckets_) bucket.clear();

  int64_t pending = 0;
  for (const SsspSource& s : sources) {
    Relax(s.node, s.initial_distance, delta, num_buckets, &pending);
  }
  if (pruned && targets_.remaining() == 0) return dist_;

  for (int64_t b = 0; pending > 0; ++b) {
    auto& bucket = buckets_[static_cast<size_t>(b % num_buckets)];
    if (bucket.empty()) continue;
    ++phase_;
    settled_.clear();
    // Light rounds: drain the bucket, relax light edges; improvements can
    // re-fill this bucket (zero/small costs), so loop until it stays dry.
    while (!bucket.empty()) {
      frontier_.clear();
      for (const int32_t u : bucket) {
        --pending;
        if (in_bucket_[static_cast<size_t>(u)] != b) continue;  // Stale.
        in_bucket_[static_cast<size_t>(u)] = kNotQueued;
        frontier_.push_back(u);
        if (settled_stamp_[static_cast<size_t>(u)] != phase_) {
          settled_stamp_[static_cast<size_t>(u)] = phase_;
          settled_.push_back(u);
        }
      }
      bucket.clear();
      RelaxFrontier(g, edge_costs, frontier_, /*light=*/true, delta,
                    num_buckets, &pending);
    }
    // The bucket stayed empty: every node whose final distance lies in
    // [b*delta, (b+1)*delta) is settled now, and settled_ holds exactly
    // those nodes (each last queued - hence last popped - in bucket b).
    obs_run.AddSettled(static_cast<int64_t>(settled_.size()));
    if (pruned) {
      bool done = false;
      for (const int32_t u : settled_) {
        if (targets_.Settle(u)) {
          done = true;
          break;
        }
      }
      // Heavy edges out of a settled bucket only affect strictly farther
      // nodes, so once the last target settles the search can stop here.
      if (done) return dist_;
    }
    // Heavy round: one scan per settled node, at its final distance.
    RelaxFrontier(g, edge_costs, settled_, /*light=*/false, delta,
                  num_buckets, &pending);
  }
  return dist_;
}

}  // namespace snd
