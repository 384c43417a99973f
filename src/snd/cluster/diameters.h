// Cluster diameter estimation for the EMD* bank ground distances.
// Theorem 3 requires gamma(c) >= 1/2 * diam_D(c); these helpers provide an
// exact value (one SSSP per node - small graphs, tests) and a cheap
// structural upper bound used by the production path.
#ifndef SND_CLUSTER_DIAMETERS_H_
#define SND_CLUSTER_DIAMETERS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "snd/graph/graph.h"
#include "snd/paths/sssp_engine.h"

namespace snd {

// Exact per-cluster diameters max_{p,q in c} D(p, q) over the ground
// distance induced by `edge_costs` on the whole graph. O(n) SSSP runs via
// the engine layer (`backend` as in SndOptions::sssp_backend; kAuto
// resolves against the costs' maximum); use only on small graphs.
// Unreachable intra-cluster pairs contribute `unreachable_value`.
std::vector<double> ExactClusterDiameters(
    const Graph& g, std::span<const int32_t> edge_costs,
    const std::vector<int32_t>& cluster_of, int32_t num_clusters,
    double unreachable_value, SsspBackend backend = SsspBackend::kAuto);

// Structural upper bound on diam_D(c): max_edge_cost times twice the hop
// eccentricity of an arbitrary cluster member within the cluster's
// undirected subgraph (members unreachable within the subgraph fall back
// to the cluster size as hop bound). Exact upper bound for symmetric
// graphs; heuristic for directed ones, where a directed path between two
// members can need more hops than the undirected eccentricity counts.
std::vector<double> ClusterDiameterUpperBounds(
    const Graph& g, const std::vector<int32_t>& cluster_of,
    int32_t num_clusters, int32_t max_edge_cost);

}  // namespace snd

#endif  // SND_CLUSTER_DIAMETERS_H_
