#include "snd/opinion/icc_model.h"

#include <algorithm>

#include "snd/paths/sssp_engine.h"

namespace snd {

IccModel::IccModel(IccParams params) : params_(std::move(params)) {
  SND_CHECK(params_.activation_probability >= 0.0 &&
            params_.activation_probability <= 1.0);
  SND_CHECK(params_.epsilon > 0.0 && params_.epsilon < 1.0);
}

double IccModel::EdgeProbability(int64_t e) const {
  return params_.edge_probabilities
             ? (*params_.edge_probabilities)[static_cast<size_t>(e)]
             : params_.activation_probability;
}

int32_t IccModel::EdgeDistance(int64_t e) const {
  return params_.edge_distances
             ? (*params_.edge_distances)[static_cast<size_t>(e)]
             : 1;
}

void IccModel::ComputeEdgeCosts(const Graph& g, const NetworkState& state,
                                Opinion op,
                                std::vector<int32_t>* costs) const {
  SND_CHECK(op != Opinion::kNeutral);
  SND_CHECK(state.num_users() == g.num_nodes());
  if (params_.edge_probabilities) {
    SND_CHECK(static_cast<int64_t>(params_.edge_probabilities->size()) ==
              g.num_edges());
  }
  if (params_.edge_distances) {
    SND_CHECK(static_cast<int64_t>(params_.edge_distances->size()) ==
              g.num_edges());
  }
  ValidateEdgeCostParams(params_.edge, g);
  costs->resize(static_cast<size_t>(g.num_edges()));

  // d_v(I): shortest distance from the active set to every node, over the
  // model's edge distances.
  std::vector<SsspSource> sources;
  int32_t max_edge_distance = 1;
  std::vector<int32_t> distances(static_cast<size_t>(g.num_edges()));
  for (int64_t e = 0; e < g.num_edges(); ++e) {
    distances[static_cast<size_t>(e)] = EdgeDistance(e);
    max_edge_distance =
        std::max(max_edge_distance, distances[static_cast<size_t>(e)]);
    SND_CHECK(distances[static_cast<size_t>(e)] >= 1);
  }
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    if (state.IsActive(v)) sources.push_back({v, 0});
  }
  std::vector<int64_t> dist_from_active;
  if (!sources.empty()) {
    // Edge distances are small integers (1 by default), squarely in the
    // bucket-queue regime; kAuto falls back to Dijkstra on tiny graphs.
    const std::unique_ptr<SsspEngine> engine = MakeSsspEngine(
        SsspBackend::kAuto, g.num_nodes(), max_edge_distance);
    const std::span<const int64_t> dist =
        engine->Run(g, distances, sources, SsspGoal::AllNodes());
    dist_from_active.assign(dist.begin(), dist.end());
  } else {
    dist_from_active.assign(static_cast<size_t>(g.num_nodes()),
                            kUnreachableDistance);
  }

  // p^a(v): total activation probability over frontier infectors of v
  // (active in-neighbors u whose edge attains d_v(I)).
  std::vector<double> frontier_prob(static_cast<size_t>(g.num_nodes()), 0.0);
  for (int32_t u = 0; u < g.num_nodes(); ++u) {
    if (!state.IsActive(u)) continue;
    for (int64_t e = g.OutEdgeBegin(u); e < g.OutEdgeEnd(u); ++e) {
      const int32_t v = g.EdgeTarget(e);
      if (distances[static_cast<size_t>(e)] ==
          dist_from_active[static_cast<size_t>(v)]) {
        frontier_prob[static_cast<size_t>(v)] += EdgeProbability(e);
      }
    }
  }

  const int8_t op_v = static_cast<int8_t>(op);
  const CostQuantizer& quantizer = params_.edge.quantizer;
  for (int32_t u = 0; u < g.num_nodes(); ++u) {
    const int8_t su = state.value(u);
    for (int64_t e = g.OutEdgeBegin(u); e < g.OutEdgeEnd(u); ++e) {
      const int32_t v = g.EdgeTarget(e);
      const int8_t sv = state.value(v);
      const bool frontier =
          su != 0 && distances[static_cast<size_t>(e)] ==
                         dist_from_active[static_cast<size_t>(v)];
      double p_out;
      if (su == op_v && sv == op_v) {
        // Friendly spreader and receiver: free spreading.
        p_out = 1.0;
      } else if (!frontier) {
        // u cannot be v's infector: d_v({u}) > d_v(I) in the original
        // model, probability 0 (saturates at the quantizer's max cost).
        p_out = 0.0;
      } else if (su == op_v && sv == 0) {
        p_out = std::max(0.0, EdgeProbability(e) - params_.epsilon) /
                std::max(frontier_prob[static_cast<size_t>(v)],
                         params_.epsilon);
      } else {
        p_out = params_.epsilon;
      }
      (*costs)[static_cast<size_t>(e)] =
          std::max(1, BaseEdgeCost(params_.edge, e, v) +
                          quantizer.CostFromProbability(p_out));
    }
  }
}

int32_t IccModel::MaxEdgeCost() const {
  return std::max(1, MaxBaseEdgeCost(params_.edge) +
                         params_.edge.quantizer.max_cost());
}

}  // namespace snd
