// Incremental mutation benchmark: what the mutable-epoch service path
// (add_edge on a warm session: delta-compact, patched edge costs,
// certificate-checked result retention) buys over the pre-refactor
// workflow of reloading the mutated graph from scratch — after k=1, 8
// and 64 mutations, re-answering the warm `series` query.
//
// Two churn regimes bracket the mechanism:
//  - periphery: mutations land in a region no active user's distance
//    rows traverse, so the retention certificates keep every cached
//    result and the incremental path answers from cache (the common
//    social-stream case: most edge churn is far from the monitored
//    anomaly neighborhood);
//  - random: mutations hit arbitrary scale-free nodes, shortest-path
//    trees shift, and retention degrades toward a full recompute —
//    the honest worst case (edge costs are still patched, not rebuilt).
//
// Reports the work-counter ratios (sssp_runs, edge_cost_builds) and the
// wall-clock speedup, and verifies both paths answer bitwise
// identically. Always built; its record lands in the bench-all JSON
// artifact.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/obs/metrics.h"
#include "snd/obs/names.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/service/service.h"
#include "snd/util/random.h"
#include "snd/util/stopwatch.h"
#include "snd/util/thread_pool.h"

namespace snd {
namespace {

constexpr int32_t kPeriphery = 16;

struct PathCost {
  double wall_ms = 0.0;
  int64_t sssp_runs = 0;
  int64_t edge_cost_builds = 0;
  int64_t edge_cost_patches = 0;
};

// The work a path did, read from the service's registry before and
// after it ran.
PathCost Delta(const std::vector<obs::MetricRow>& before,
               const std::vector<obs::MetricRow>& after, double wall_ms) {
  const auto moved = [&](std::string_view name) {
    return obs::SnapshotValue(after, name) - obs::SnapshotValue(before, name);
  };
  PathCost cost;
  cost.wall_ms = wall_ms;
  cost.sssp_runs = moved(obs::kMetricWorkSsspRuns);
  cost.edge_cost_builds = moved(obs::kMetricWorkEdgeCostBuilds);
  cost.edge_cost_patches = moved(obs::kMetricWorkEdgeCostPatches);
  return cost;
}

ServiceResponse MustCall(SndService* service, const std::string& request) {
  ServiceResponse response = service->Call(request);
  if (!response.ok) {
    std::fprintf(stderr, "bench_mutation: '%s' failed: %s\n",
                 request.c_str(), response.header.c_str());
    std::exit(1);
  }
  return response;
}

// One regime: warm a session, apply k additions picked from
// [pick_lo, pick_hi), re-ask `series`, and compare against a cold
// session over the mutated edge list.
void RunRegime(const char* regime, const char* slug, const Graph& graph,
               const std::string& graph_path, const std::string& states_path,
               int32_t pick_lo, int32_t pick_hi) {
  const int32_t n = graph.num_nodes();
  const std::string mutated_path = "bench_mutation.mutated.edges";
  std::printf("churn regime: %s (new edges within [%d, %d))\n", regime,
              pick_lo, pick_hi);
  std::printf("%4s %28s %28s %10s\n", "k",
              "incremental (sssp/build/ms)", "full reload (sssp/build/ms)",
              "speedup");

  for (const int k : {1, 8, 64}) {
    SndService warm;
    MustCall(&warm, "load_graph g " + graph_path);
    MustCall(&warm, "load_states g " + states_path);
    MustCall(&warm, "series g");

    Rng edges_rng(1000 + static_cast<uint64_t>(k));
    std::set<std::pair<int32_t, int32_t>> edge_set;
    for (const Edge& e : graph.ToEdgeList()) edge_set.insert({e.src, e.dst});
    std::vector<std::pair<int32_t, int32_t>> additions;
    while (static_cast<int>(additions.size()) < k) {
      const auto u =
          static_cast<int32_t>(edges_rng.UniformInt(pick_lo, pick_hi - 1));
      const auto v =
          static_cast<int32_t>(edges_rng.UniformInt(pick_lo, pick_hi - 1));
      if (u == v || !edge_set.insert({u, v}).second) continue;
      additions.push_back({u, v});
    }

    const std::vector<obs::MetricRow> warm_before = warm.metrics().Snapshot();
    Stopwatch incremental_watch;
    for (const auto& [u, v] : additions) {
      MustCall(&warm, "add_edge g " + std::to_string(u) + " " +
                          std::to_string(v));
    }
    const ServiceResponse incremental_series = MustCall(&warm, "series g");
    const PathCost incremental =
        Delta(warm_before, warm.metrics().Snapshot(),
              incremental_watch.ElapsedMillis());

    // Full reload: a cold session over the already-mutated edge list
    // (the pre-refactor answer to any topology change).
    {
      std::vector<Edge> mutated_edges = graph.ToEdgeList();
      for (const auto& [u, v] : additions) mutated_edges.push_back({u, v});
      if (!WriteEdgeList(Graph::FromEdges(n, std::move(mutated_edges)),
                         mutated_path)) {
        std::fprintf(stderr, "bench_mutation: cannot write mutated graph\n");
        std::exit(1);
      }
    }
    SndService cold;
    const std::vector<obs::MetricRow> cold_before = cold.metrics().Snapshot();
    Stopwatch reload_watch;
    MustCall(&cold, "load_graph g " + mutated_path);
    MustCall(&cold, "load_states g " + states_path);
    const ServiceResponse reload_series = MustCall(&cold, "series g");
    const PathCost reload =
        Delta(cold_before, cold.metrics().Snapshot(),
              reload_watch.ElapsedMillis());

    if (incremental_series.rows != reload_series.rows) {
      std::fprintf(stderr,
                   "bench_mutation: k=%d answers diverged between the "
                   "incremental and reload paths\n",
                   k);
      std::exit(1);
    }

    std::printf("%4d %13lld/%5lld/%7.1f %14lld/%5lld/%7.1f %9.2fx\n", k,
                static_cast<long long>(incremental.sssp_runs),
                static_cast<long long>(incremental.edge_cost_builds),
                incremental.wall_ms,
                static_cast<long long>(reload.sssp_runs),
                static_cast<long long>(reload.edge_cost_builds),
                reload.wall_ms,
                reload.wall_ms / std::max(incremental.wall_ms, 1e-6));
    const double sssp_ratio =
        static_cast<double>(incremental.sssp_runs) /
        std::max<int64_t>(reload.sssp_runs, 1);
    const double build_ratio =
        static_cast<double>(incremental.edge_cost_builds) /
        std::max<int64_t>(reload.edge_cost_builds, 1);
    std::printf(
        "     work ratio: sssp %.3f, edge_cost_builds %.3f "
        "(incremental patched %lld cost sides instead)\n",
        sssp_ratio, build_ratio,
        static_cast<long long>(incremental.edge_cost_patches));
    // snprintf format literals, so snd_lint's budget-keys extractor can
    // statically match budget keys against the %s/%d holes.
    char metric[64];
    std::snprintf(metric, sizeof(metric), "mutation.sssp_ratio.%s.k%d",
                  slug, k);
    bench::PrintMetric(metric, sssp_ratio);
    std::snprintf(metric, sizeof(metric), "mutation.build_ratio.%s.k%d",
                  slug, k);
    bench::PrintMetric(metric, build_ratio);
    std::snprintf(metric, sizeof(metric), "mutation.speedup.%s.k%d", slug,
                  k);
    bench::PrintMetric(metric,
                       reload.wall_ms / std::max(incremental.wall_ms, 1e-6));
  }
  std::printf("\n");
  std::remove(mutated_path.c_str());
}

int Run() {
  const bool full = bench::FullScale();
  const int32_t n = full ? 20000 : 2000;
  const int32_t series_length = full ? 12 : 6;
  bench::PrintHeader(
      "bench_mutation",
      "Incremental add_edge on a warm session (delta overlay + targeted "
      "cache invalidation) vs full reload of the mutated graph");

  // A scale-free core carrying all activity, plus a small detached
  // periphery ring where the remote-churn regime mutates. Every active
  // user lives in the core, so no periphery mutation can move a
  // distance row any cached term reads.
  Rng rng(41);
  ScaleFreeOptions graph_options;
  graph_options.num_nodes = n;
  const Graph core = GenerateScaleFree(graph_options, &rng);
  std::vector<Edge> edges = core.ToEdgeList();
  for (int32_t p = 0; p < kPeriphery; ++p) {
    const int32_t u = n + p;
    const int32_t v = n + (p + 1) % kPeriphery;
    edges.push_back({u, v});
    edges.push_back({v, u});
  }
  const Graph graph = Graph::FromEdges(n + kPeriphery, std::move(edges));

  SyntheticEvolution evolution(&core, 23);
  const std::vector<NetworkState> core_states = evolution.GenerateSeries(
      series_length, n / 20, {0.15, 0.05}, {0.15, 0.05}, {});
  std::vector<NetworkState> states;
  for (const NetworkState& state : core_states) {
    std::vector<int8_t> values = state.values();
    values.resize(static_cast<size_t>(n + kPeriphery), 0);
    states.push_back(NetworkState::FromValues(std::move(values)));
  }

  const std::string graph_path = "bench_mutation.graph.edges";
  const std::string states_path = "bench_mutation.states.txt";
  if (!WriteEdgeList(graph, graph_path) ||
      !WriteStateSeries(states, states_path)) {
    std::fprintf(stderr, "bench_mutation: cannot write fixtures\n");
    return 1;
  }

  Stopwatch total;
  std::printf("n=%d T=%d edges=%lld threads=%d\n", n + kPeriphery,
              series_length, static_cast<long long>(graph.num_edges()),
              ThreadPool::GlobalThreads());

  RunRegime("periphery (remote from all activity)", "periphery", graph,
            graph_path, states_path, n, n + kPeriphery);
  RunRegime("random (scale-free core)", "random", graph, graph_path,
            states_path, 0, n);

  std::printf("total time: %.3f s\n", total.ElapsedSeconds());
  std::remove(graph_path.c_str());
  std::remove(states_path.c_str());
  return 0;
}

}  // namespace
}  // namespace snd

int main() { return snd::Run(); }
