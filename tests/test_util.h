// Shared helpers for the test suite.
#ifndef SND_TESTS_TEST_UTIL_H_
#define SND_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "snd/emd/dense_matrix.h"
#include "snd/graph/graph.h"
#include "snd/opinion/network_state.h"
#include "snd/paths/sssp_engine.h"
#include "snd/util/random.h"

namespace snd {
namespace testing_util {

// A random connected-ish symmetric graph: a ring backbone plus `extra`
// random symmetric edges.
inline Graph RandomSymmetricGraph(int32_t n, int32_t extra, Rng* rng) {
  std::vector<Edge> edges;
  for (int32_t u = 0; u < n; ++u) {
    const int32_t v = (u + 1) % n;
    edges.push_back({u, v});
    edges.push_back({v, u});
  }
  for (int32_t k = 0; k < extra; ++k) {
    const auto u = static_cast<int32_t>(rng->UniformInt(0, n - 1));
    const auto v = static_cast<int32_t>(rng->UniformInt(0, n - 1));
    if (u == v) continue;
    edges.push_back({u, v});
    edges.push_back({v, u});
  }
  return Graph::FromEdges(n, std::move(edges));
}

// Random directed graph with `m` arcs (may be disconnected).
inline Graph RandomDirectedGraph(int32_t n, int32_t m, Rng* rng) {
  std::vector<Edge> edges;
  for (int32_t k = 0; k < m; ++k) {
    const auto u = static_cast<int32_t>(rng->UniformInt(0, n - 1));
    const auto v = static_cast<int32_t>(rng->UniformInt(0, n - 1));
    if (u != v) edges.push_back({u, v});
  }
  return Graph::FromEdges(n, std::move(edges));
}

// Random integer edge costs in [1, max_cost].
inline std::vector<int32_t> RandomEdgeCosts(const Graph& g, int32_t max_cost,
                                            Rng* rng) {
  std::vector<int32_t> costs(static_cast<size_t>(g.num_edges()));
  for (auto& c : costs) {
    c = static_cast<int32_t>(rng->UniformInt(1, max_cost));
  }
  return costs;
}

// Random network state with roughly `active_fraction` active users.
inline NetworkState RandomState(int32_t n, double active_fraction, Rng* rng) {
  NetworkState state(n);
  for (int32_t u = 0; u < n; ++u) {
    if (rng->Bernoulli(active_fraction)) {
      state.set_opinion(u, rng->Bernoulli(0.5) ? Opinion::kPositive
                                               : Opinion::kNegative);
    }
  }
  return state;
}

// A state pair whose EMD* terms all have a small bank side: `heavy`
// holds + at about half the users and - at about 5%, `light` the
// reverse. In every term the lighter histogram, whose bins become the
// banks, covers few users, against about n/2 changed users on the
// term's plain side, so SndCalculator searches from the bank side.
inline std::pair<NetworkState, NetworkState> SkewedStates(int32_t n,
                                                          Rng* rng) {
  NetworkState heavy(n), light(n);
  for (int32_t u = 0; u < n; ++u) {
    const double h = rng->UniformReal();
    if (h < 0.5) {
      heavy.set_opinion(u, Opinion::kPositive);
    } else if (h < 0.55) {
      heavy.set_opinion(u, Opinion::kNegative);
    }
    const double l = rng->UniformReal();
    if (l < 0.05) {
      light.set_opinion(u, Opinion::kPositive);
    } else if (l < 0.55) {
      light.set_opinion(u, Opinion::kNegative);
    }
  }
  return {heavy, light};
}

// A 600-node graph (symmetric, or thinned one arc at a time to make
// distances asymmetric) and two random states whose EMD* terms each
// search from 50-92 origins: enough for 32-lane sweeps, with
// leftover tails of both >= 8 and < 8 origins.
struct BatchingCase {
  Graph graph;
  NetworkState a;
  NetworkState b;
};

inline BatchingCase MakeBatchingCase(bool directed) {
  constexpr int32_t kN = 600;
  Rng rng(directed ? 93 : 92);
  BatchingCase c;
  c.graph = RandomSymmetricGraph(kN, 3 * kN / 2, &rng);
  if (directed) {
    std::vector<Edge> arcs;
    for (const Edge& e : c.graph.ToEdgeList()) {
      if (rng.Bernoulli(0.7)) arcs.push_back(e);
    }
    c.graph = Graph::FromEdges(kN, std::move(arcs));
  }
  c.a = RandomState(kN, 0.2, &rng);
  c.b = RandomState(kN, 0.3, &rng);
  return c;
}

// Dense all-pairs shortest-path matrix with unreachable pairs mapped to
// `unreachable`.
inline DenseMatrix AllPairsMatrix(const Graph& g,
                                  const std::vector<int32_t>& costs,
                                  double unreachable) {
  DenseMatrix d(g.num_nodes(), g.num_nodes(), 0.0);
  int32_t max_cost = 0;
  for (int32_t c : costs) max_cost = std::max(max_cost, c);
  const std::unique_ptr<SsspEngine> engine =
      MakeSsspEngine(SsspBackend::kAuto, g.num_nodes(), max_cost);
  for (int32_t u = 0; u < g.num_nodes(); ++u) {
    const SsspSource source{u, 0};
    const std::span<const int64_t> dist =
        engine->Run(g, costs, std::span<const SsspSource>(&source, 1),
                    SsspGoal::AllNodes());
    for (int32_t v = 0; v < g.num_nodes(); ++v) {
      d.Set(u, v,
            dist[static_cast<size_t>(v)] == kUnreachableDistance
                ? unreachable
                : static_cast<double>(dist[static_cast<size_t>(v)]));
    }
  }
  return d;
}

// A symmetric metric ground distance over `n` points: shortest paths of a
// random symmetric graph with random integer weights.
inline DenseMatrix RandomMetric(int32_t n, Rng* rng) {
  Graph g = RandomSymmetricGraph(n, n, rng);
  // Symmetric costs: assign per unordered pair.
  std::vector<int32_t> costs(static_cast<size_t>(g.num_edges()));
  for (int32_t u = 0; u < g.num_nodes(); ++u) {
    for (int64_t e = g.OutEdgeBegin(u); e < g.OutEdgeEnd(u); ++e) {
      const int32_t v = g.EdgeTarget(e);
      if (u < v) {
        costs[static_cast<size_t>(e)] =
            static_cast<int32_t>(rng->UniformInt(1, 9));
      }
    }
  }
  for (int32_t u = 0; u < g.num_nodes(); ++u) {
    for (int64_t e = g.OutEdgeBegin(u); e < g.OutEdgeEnd(u); ++e) {
      const int32_t v = g.EdgeTarget(e);
      if (u > v) {
        costs[static_cast<size_t>(e)] =
            costs[static_cast<size_t>(g.FindEdge(v, u))];
      }
    }
  }
  return AllPairsMatrix(g, costs, /*unreachable=*/1e6);
}

// Random non-negative integral histogram with total mass `total`.
inline std::vector<double> RandomHistogram(int32_t bins, int32_t total,
                                           Rng* rng) {
  std::vector<double> h(static_cast<size_t>(bins), 0.0);
  for (int32_t k = 0; k < total; ++k) {
    h[static_cast<size_t>(rng->UniformInt(0, bins - 1))] += 1.0;
  }
  return h;
}

}  // namespace testing_util
}  // namespace snd

#endif  // SND_TESTS_TEST_UTIL_H_
