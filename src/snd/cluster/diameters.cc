#include "snd/cluster/diameters.h"

#include <algorithm>
#include <queue>

namespace snd {

std::vector<double> ExactClusterDiameters(
    const Graph& g, std::span<const int32_t> edge_costs,
    const std::vector<int32_t>& cluster_of, int32_t num_clusters,
    double unreachable_value, SsspBackend backend) {
  SND_CHECK(static_cast<int32_t>(cluster_of.size()) == g.num_nodes());
  std::vector<double> diameters(static_cast<size_t>(num_clusters), 0.0);
  int32_t max_cost = 0;
  for (int32_t c : edge_costs) max_cost = std::max(max_cost, c);
  const std::unique_ptr<SsspEngine> engine =
      MakeSsspEngine(backend, g.num_nodes(), max_cost);
  std::vector<std::vector<int32_t>> members(
      static_cast<size_t>(num_clusters));
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    members[static_cast<size_t>(cluster_of[static_cast<size_t>(v)])]
        .push_back(v);
  }
  for (int32_t p = 0; p < g.num_nodes(); ++p) {
    const int32_t c = cluster_of[static_cast<size_t>(p)];
    const std::vector<int32_t>& cluster = members[static_cast<size_t>(c)];
    const SsspSource source{p, 0};
    // Only intra-cluster distances are read, so the search stops once p's
    // cluster is settled.
    const std::span<const int64_t> dist = engine->Run(
        g, edge_costs, std::span<const SsspSource>(&source, 1),
        SsspGoal::SettleTargets(cluster));
    double& diameter = diameters[static_cast<size_t>(c)];
    for (int32_t q : cluster) {
      const double d = dist[static_cast<size_t>(q)] == kUnreachableDistance
                           ? unreachable_value
                           : static_cast<double>(dist[static_cast<size_t>(q)]);
      diameter = std::max(diameter, d);
    }
  }
  return diameters;
}

std::vector<double> ClusterDiameterUpperBounds(
    const Graph& g, const std::vector<int32_t>& cluster_of,
    int32_t num_clusters, int32_t max_edge_cost) {
  SND_CHECK(static_cast<int32_t>(cluster_of.size()) == g.num_nodes());
  SND_CHECK(max_edge_cost >= 1);
  const Graph reversed = g.Reversed();

  // Cluster member lists and per-cluster sizes.
  std::vector<std::vector<int32_t>> members(
      static_cast<size_t>(num_clusters));
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    members[static_cast<size_t>(cluster_of[static_cast<size_t>(v)])].push_back(
        v);
  }

  std::vector<int32_t> hop(static_cast<size_t>(g.num_nodes()), -1);
  std::vector<double> bounds(static_cast<size_t>(num_clusters), 0.0);
  std::queue<int32_t> queue;
  for (int32_t c = 0; c < num_clusters; ++c) {
    const auto& nodes = members[static_cast<size_t>(c)];
    if (nodes.size() <= 1) {
      bounds[static_cast<size_t>(c)] = 0.0;
      continue;
    }
    // BFS from the first member within the undirected cluster subgraph.
    const int32_t root = nodes.front();
    for (int32_t v : nodes) hop[static_cast<size_t>(v)] = -1;
    hop[static_cast<size_t>(root)] = 0;
    queue.push(root);
    int32_t ecc = 0;
    int32_t reached = 1;
    while (!queue.empty()) {
      const int32_t u = queue.front();
      queue.pop();
      ecc = std::max(ecc, hop[static_cast<size_t>(u)]);
      auto visit = [&](int32_t w) {
        if (cluster_of[static_cast<size_t>(w)] == c &&
            hop[static_cast<size_t>(w)] < 0) {
          hop[static_cast<size_t>(w)] = hop[static_cast<size_t>(u)] + 1;
          ++reached;
          queue.push(w);
        }
      };
      for (int32_t w : g.OutNeighbors(u)) visit(w);
      for (int32_t w : reversed.OutNeighbors(u)) visit(w);
    }
    // diam(subgraph) <= 2 * ecc(root); disconnected members fall back to
    // the cluster size as a hop bound.
    int32_t hop_bound = 2 * ecc;
    if (reached < static_cast<int32_t>(nodes.size())) {
      hop_bound = static_cast<int32_t>(nodes.size());
    }
    bounds[static_cast<size_t>(c)] =
        static_cast<double>(max_edge_cost) * static_cast<double>(hop_bound);
  }
  return bounds;
}

}  // namespace snd
