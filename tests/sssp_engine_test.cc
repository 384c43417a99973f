// The pluggable SSSP engine layer: backend resolution, workspace reuse,
// the target-pruned early-exit contract (settled-target entries are
// bitwise identical to a full search, for every backend), and the
// multi-lane Dial engine (every lane bitwise identical to a full
// DialEngine search from its sources).
#include "snd/paths/sssp_engine.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snd/obs/trace.h"
#include "snd/paths/dial_lanes.h"
#include "snd/paths/dijkstra.h"
#include "snd/util/thread_pool.h"
#include "test_util.h"

namespace snd {
namespace {

using testing_util::RandomDirectedGraph;
using testing_util::RandomEdgeCosts;

TEST(SsspBackendTest, Names) {
  EXPECT_STREQ(SsspBackendName(SsspBackend::kAuto), "auto");
  EXPECT_STREQ(SsspBackendName(SsspBackend::kDijkstra), "dijkstra");
  EXPECT_STREQ(SsspBackendName(SsspBackend::kDial), "dial");
  EXPECT_STREQ(SsspBackendName(SsspBackend::kDeltaStepping), "delta");
}

TEST(SsspBackendTest, ConcreteRequestsPassThroughResolution) {
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kDijkstra, 10, 1),
            SsspBackend::kDijkstra);
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kDial, 10, 1 << 20),
            SsspBackend::kDial);
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kDeltaStepping, 10, 1),
            SsspBackend::kDeltaStepping);
}

TEST(SsspBackendTest, AutoPicksDialOnlyWhenCostsAreSmallRelativeToN) {
  // The Assumption 2 regime: U small against n.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 10000, 65),
            SsspBackend::kDial);
  // U comparable to n on a small graph: the bucket sweep no longer pays
  // off, and n is below the delta-stepping threshold.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 100, 99),
            SsspBackend::kDijkstra);
  // Huge U: bucket array would dominate memory regardless of n, so a
  // large graph gets delta-stepping.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 1 << 30, 1 << 20),
            SsspBackend::kDeltaStepping);
}

TEST(SsspBackendTest, AutoDialBoundariesArePinned) {
  // Exactly at the absolute cap with n large enough: still Dial, even
  // though n also clears the delta-stepping threshold.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 1 << 30, kDialAutoCostCap),
            SsspBackend::kDial);
  // One past the cap: never Dial, regardless of n.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 1 << 30,
                               kDialAutoCostCap + 1),
            SsspBackend::kDeltaStepping);
  // Exactly at U == n/2: Dial. One node fewer flips it off.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 200, 100),
            SsspBackend::kDial);
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 199, 100),
            SsspBackend::kDijkstra);
}

TEST(SsspBackendTest, AutoPicksDeltaFromTheNodeThresholdUp) {
  const int32_t huge_u = kDialAutoCostCap + 1;  // Outside the Dial regime.
  // At the node threshold: delta-stepping.
  EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, kDeltaAutoMinNodes, huge_u),
            SsspBackend::kDeltaStepping);
  // One node short: Dijkstra.
  EXPECT_EQ(
      ResolveSsspBackend(SsspBackend::kAuto, kDeltaAutoMinNodes - 1, huge_u),
      SsspBackend::kDijkstra);
}

TEST(SsspEngineTest, FactoryBuildsTheResolvedBackend) {
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kDijkstra, 8, 3)->backend(),
            SsspBackend::kDijkstra);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kDial, 8, 3)->backend(),
            SsspBackend::kDial);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kDeltaStepping, 8, 3)->backend(),
            SsspBackend::kDeltaStepping);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kAuto, 10000, 4)->backend(),
            SsspBackend::kDial);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kAuto, 16, 1000)->backend(),
            SsspBackend::kDijkstra);
  EXPECT_EQ(MakeSsspEngine(SsspBackend::kAuto, 1 << 20, 1 << 20)->backend(),
            SsspBackend::kDeltaStepping);
}

TEST(SsspTargetSetTest, DeduplicatesAndCountsDown) {
  SsspTargetSet set(8);
  const std::vector<int32_t> targets{3, 5, 3, 5, 3};
  set.Reset(targets);
  EXPECT_EQ(set.remaining(), 2);
  EXPECT_FALSE(set.Settle(0));  // Not a target.
  EXPECT_FALSE(set.Settle(3));
  EXPECT_FALSE(set.Settle(3));  // Already settled.
  EXPECT_TRUE(set.Settle(5));   // Last one.
  EXPECT_EQ(set.remaining(), 0);
}

TEST(DeltaSteppingTest, DeltaHeuristicTracksCostOverDegree) {
  // Classic Meyer-Sanders choice: Delta ~ U / average degree.
  EXPECT_EQ(ChooseSsspDelta(1000, 10000, 1000), 100);
  // Never below 1 (dense graph, small costs) ...
  EXPECT_EQ(ChooseSsspDelta(100, 10000, 3), 1);
  // ... and never above U (sparse graph would push it past the cap).
  EXPECT_EQ(ChooseSsspDelta(1000, 500, 16), 16);
  // Degenerate inputs stay sane.
  EXPECT_EQ(ChooseSsspDelta(0, 0, 0), 1);
}

TEST(DeltaSteppingTest, ConfiguredDeltaOverridesHeuristic) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  const std::vector<int32_t> costs{7, 7};
  DeltaSteppingEngine engine(3, /*max_cost=*/7, /*delta=*/3);
  const SsspSource s{0, 0};
  const auto dist = engine.Run(g, costs, std::span<const SsspSource>(&s, 1),
                               SsspGoal::AllNodes());
  EXPECT_EQ(engine.last_delta(), 3);
  EXPECT_EQ(dist[2], 14);
}

class EngineKindTest : public ::testing::TestWithParam<SsspBackend> {
 protected:
  static std::unique_ptr<SsspEngine> MakeEngine(int32_t num_nodes,
                                                int32_t max_cost) {
    return MakeSsspEngine(GetParam(), num_nodes, max_cost);
  }
};

TEST_P(EngineKindTest, FullSearchMatchesDijkstraConvenience) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  const std::vector<int32_t> costs{1, 2, 3, 9};
  const auto engine = MakeEngine(4, 9);
  const SsspSource s{0, 0};
  const auto dist = engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                                SsspGoal::AllNodes());
  const auto expected = Dijkstra(g, costs, 0);
  ASSERT_EQ(dist.size(), expected.size());
  for (size_t v = 0; v < expected.size(); ++v) EXPECT_EQ(dist[v], expected[v]);
}

TEST_P(EngineKindTest, PrunedSearchReportsUnreachableTargets) {
  // 2 is cut off from {0, 1}; a pruned search for it must terminate and
  // report kUnreachableDistance.
  const Graph g = Graph::FromEdges(3, {{0, 1}});
  const std::vector<int32_t> costs{1};
  const auto engine = MakeEngine(3, 1);
  const SsspSource s{0, 0};
  const std::vector<int32_t> targets{2};
  const auto dist = engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                                SsspGoal::SettleTargets(targets));
  EXPECT_EQ(dist[2], kUnreachableDistance);
  EXPECT_EQ(dist[1], 1);  // Settled on the way.
}

TEST_P(EngineKindTest, EmptyTargetSetStopsImmediately) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  const std::vector<int32_t> costs{4, 4};
  const auto engine = MakeEngine(3, 4);
  const SsspSource s{0, 2};
  const auto dist =
      engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                  SsspGoal::SettleTargets(std::span<const int32_t>()));
  EXPECT_EQ(dist[0], 2);  // Sources are seeded even without targets.
}

TEST_P(EngineKindTest, SourceOnlyTargetSettlesWithoutExploring) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  const std::vector<int32_t> costs{4, 4};
  const auto engine = MakeEngine(3, 4);
  const SsspSource s{0, 0};
  const std::vector<int32_t> targets{0};
  const auto dist = engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                                SsspGoal::SettleTargets(targets));
  EXPECT_EQ(dist[0], 0);
}

TEST_P(EngineKindTest, ReusedEngineIsCleanAfterEarlyExit) {
  // An early-exited run leaves internal queues non-empty; the next run on
  // the same engine must not see stale state.
  const Graph g =
      Graph::FromEdges(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}});
  const std::vector<int32_t> costs{1, 2, 1, 1, 1};
  const auto engine = MakeEngine(5, 2);
  const SsspSource s0{0, 0};
  const std::vector<int32_t> near{1};
  (void)engine->Run(g, costs, std::span<const SsspSource>(&s0, 1),
                    SsspGoal::SettleTargets(near));
  const SsspSource s1{2, 0};
  const auto dist = engine->Run(g, costs, std::span<const SsspSource>(&s1, 1),
                                SsspGoal::AllNodes());
  EXPECT_EQ(dist[0], kUnreachableDistance);
  EXPECT_EQ(dist[2], 0);
  EXPECT_EQ(dist[3], 1);
  EXPECT_EQ(dist[4], 2);
}

TEST_P(EngineKindTest, MultiSourceOffsetsMatchDijkstraReference) {
  // Initial offsets stress the cyclic bucket windows (Dial and delta).
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const int32_t n = 5 + static_cast<int32_t>(rng.UniformInt(0, 40));
    const Graph g = RandomDirectedGraph(n, 3 * n, &rng);
    const int32_t max_cost = 1 + static_cast<int32_t>(rng.UniformInt(0, 20));
    const auto costs = RandomEdgeCosts(g, max_cost, &rng);
    std::vector<SsspSource> sources;
    for (int32_t k = 0; k < 3; ++k) {
      sources.push_back({static_cast<int32_t>(rng.UniformInt(0, n - 1)),
                         static_cast<int64_t>(rng.UniformInt(0, 30))});
    }
    const auto engine = MakeEngine(n, max_cost);
    const auto dist =
        engine->Run(g, costs, sources, SsspGoal::AllNodes());
    DijkstraEngine reference(n);
    const auto expected =
        reference.Run(g, costs, sources, SsspGoal::AllNodes());
    for (size_t v = 0; v < expected.size(); ++v) {
      ASSERT_EQ(dist[v], expected[v]) << "trial=" << trial << " v=" << v;
    }
  }
}

TEST_P(EngineKindTest, RandomizedPrunedMatchesFullOnTargets) {
  for (int trial = 0; trial < 30; ++trial) {
    Rng rng(5000 + static_cast<uint64_t>(trial));
    const int32_t n = 2 + static_cast<int32_t>(rng.UniformInt(0, 50));
    const Graph g = RandomDirectedGraph(n, 4 * n, &rng);
    const int32_t max_cost = 1 + static_cast<int32_t>(rng.UniformInt(0, 11));
    const auto costs = RandomEdgeCosts(g, max_cost, &rng);
    const auto source = static_cast<int32_t>(rng.UniformInt(0, n - 1));
    std::vector<int32_t> targets;
    const int32_t t = 1 + static_cast<int32_t>(rng.UniformInt(0, 7));
    for (int32_t i = 0; i < t; ++i) {
      targets.push_back(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
    }
    const auto engine = MakeEngine(n, max_cost);
    const SsspSource s{source, 0};
    const auto pruned =
        engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                    SsspGoal::SettleTargets(targets));
    const auto full = Dijkstra(g, costs, source);
    for (int32_t target : targets) {
      EXPECT_EQ(pruned[static_cast<size_t>(target)],
                full[static_cast<size_t>(target)])
          << "trial=" << trial << " target=" << target;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineKindTest,
                         ::testing::Values(SsspBackend::kDijkstra,
                                           SsspBackend::kDial,
                                           SsspBackend::kDeltaStepping),
                         [](const auto& info) {
                           return std::string(SsspBackendName(info.param));
                         });

// Restores the global pool parallelism on scope exit so thread-sweeping
// tests cannot leak their setting into later tests.
class ScopedGlobalThreads {
 public:
  explicit ScopedGlobalThreads(int32_t n)
      : saved_(ThreadPool::GlobalThreads()) {
    ThreadPool::SetGlobalThreads(n);
  }
  ~ScopedGlobalThreads() { ThreadPool::SetGlobalThreads(saved_); }

 private:
  int32_t saved_;
};

// Auto resolution reads only the graph size and U: a one-thread pool
// gets the same (sequential) delta-stepping engine as a wide one.
TEST(SsspBackendTest, AutoResolvesTheSameOnEveryPoolSize) {
  const int32_t hw = ThreadPool::DefaultThreads();
  const int32_t huge_u = kDialAutoCostCap + 1;
  for (const int32_t threads : {1, 2, hw}) {
    const ScopedGlobalThreads scoped(threads);
    EXPECT_EQ(
        ResolveSsspBackend(SsspBackend::kAuto, kDeltaAutoMinNodes, huge_u),
        SsspBackend::kDeltaStepping)
        << "threads=" << threads;
    EXPECT_EQ(MakeSsspEngine(SsspBackend::kAuto, kDeltaAutoMinNodes, huge_u)
                  ->backend(),
              SsspBackend::kDeltaStepping)
        << "threads=" << threads;
    EXPECT_EQ(ResolveSsspBackend(SsspBackend::kAuto, 10000, 65),
              SsspBackend::kDial)
        << "threads=" << threads;
  }
}

// The cross-backend determinism contract: every backend, at every thread
// count, both goals, is bitwise identical to sequential Dijkstra.
TEST(SsspDeterminismTest, AllBackendsBitwiseIdenticalAcrossThreadCounts) {
  const int32_t hw = ThreadPool::DefaultThreads();
  std::vector<int32_t> thread_counts{1, 2};
  if (hw > 2) thread_counts.push_back(hw);
  for (int trial = 0; trial < 4; ++trial) {
    Rng rng(9100 + static_cast<uint64_t>(trial));
    const int32_t n = 600 + static_cast<int32_t>(rng.UniformInt(0, 600));
    const Graph g = RandomDirectedGraph(n, 8 * n, &rng);
    const int32_t max_cost =
        1 + static_cast<int32_t>(rng.UniformInt(0, 1 << 14));
    const auto costs = RandomEdgeCosts(g, max_cost, &rng);
    const SsspSource s{static_cast<int32_t>(rng.UniformInt(0, n - 1)), 0};
    std::vector<int32_t> targets;
    for (int32_t i = 0; i < 5; ++i) {
      targets.push_back(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
    }

    DijkstraEngine reference(n);
    const auto full_ref = reference.Run(
        g, costs, std::span<const SsspSource>(&s, 1), SsspGoal::AllNodes());
    const std::vector<int64_t> expected(full_ref.begin(), full_ref.end());

    for (const int32_t threads : thread_counts) {
      ScopedGlobalThreads scoped(threads);
      for (const SsspBackend backend :
           {SsspBackend::kDijkstra, SsspBackend::kDial,
            SsspBackend::kDeltaStepping}) {
        const auto engine = MakeSsspEngine(backend, n, max_cost);
        const auto full =
            engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                        SsspGoal::AllNodes());
        for (size_t v = 0; v < expected.size(); ++v) {
          ASSERT_EQ(full[v], expected[v])
              << SsspBackendName(backend) << " threads=" << threads
              << " trial=" << trial << " v=" << v;
        }
        const auto pruned =
            engine->Run(g, costs, std::span<const SsspSource>(&s, 1),
                        SsspGoal::SettleTargets(targets));
        for (const int32_t target : targets) {
          ASSERT_EQ(pruned[static_cast<size_t>(target)],
                    expected[static_cast<size_t>(target)])
              << SsspBackendName(backend) << " threads=" << threads
              << " trial=" << trial << " target=" << target;
        }
      }
    }
  }
}

// Random integer edge costs in [0, max_cost]: zero-cost arcs (and zero
// cycles) re-fill the bucket being drained.
std::vector<int32_t> CostsWithZeros(const Graph& g, int32_t max_cost,
                                    Rng* rng) {
  std::vector<int32_t> costs(static_cast<size_t>(g.num_edges()));
  for (auto& c : costs) c = static_cast<int32_t>(rng->UniformInt(0, max_cost));
  return costs;
}

// Runs `lanes` over `sources` (one entry per lane) and checks every lane
// against a full DialEngine search from the same sources. Returns the
// Dial engine runs that lanes->Run recorded.
int64_t ExpectLanesMatchDial(DialLaneEngine* lanes, const Graph& g,
                             const std::vector<int32_t>& costs,
                             const std::vector<std::vector<int32_t>>& sources,
                             const std::string& label) {
  std::vector<std::span<const int32_t>> lane_sources(sources.begin(),
                                                     sources.end());
  obs::RequestTrace trace;
  {
    const obs::TraceScope scope(&trace);
    lanes->Run(g, costs, lane_sources);
  }
  DialEngine reference(g.num_nodes(), lanes->max_cost());
  for (size_t lane = 0; lane < sources.size(); ++lane) {
    std::vector<SsspSource> seeds;
    for (int32_t s : sources[lane]) seeds.push_back({s, 0});
    const auto expected =
        reference.Run(g, costs, seeds, SsspGoal::AllNodes());
    for (int32_t v = 0; v < g.num_nodes(); ++v) {
      const int64_t got = lanes->Distance(static_cast<int>(lane), v);
      EXPECT_EQ(got, expected[static_cast<size_t>(v)])
          << label << " lane=" << lane << " v=" << v;
      if (got != expected[static_cast<size_t>(v)]) return -1;
    }
  }
  return trace.backend_runs[obs::kSsspSlotDial].load();
}

std::vector<std::vector<int32_t>> SingleSourceLanes(int32_t num_lanes,
                                                    int32_t n, Rng* rng) {
  std::vector<std::vector<int32_t>> sources;
  for (int32_t l = 0; l < num_lanes; ++l) {
    sources.push_back({static_cast<int32_t>(rng->UniformInt(0, n - 1))});
  }
  return sources;
}

TEST(DialLaneEngineTest, LanesFitBoundary) {
  // max_cost * (n - 1) must stay below 2^30.
  EXPECT_TRUE(DialLaneEngine::LanesFit(1025, (1 << 20) - 1));
  EXPECT_FALSE(DialLaneEngine::LanesFit(1025, 1 << 20));
  EXPECT_FALSE(DialLaneEngine::LanesFit(1026, (1 << 20) - 1));
  EXPECT_TRUE(DialLaneEngine::LanesFit(1, (1 << 30) - 1));
  EXPECT_FALSE(DialLaneEngine::LanesFit(1, 1 << 30));
  EXPECT_TRUE(DialLaneEngine::LanesFit(6000, 33));
}

TEST(DialLaneEngineTest, EveryLaneCountMatchesDialPerLane) {
  for (int32_t num_lanes = 1; num_lanes <= DialLaneEngine::kMaxLanes;
       ++num_lanes) {
    for (int trial = 0; trial < 2; ++trial) {
      Rng rng(7100 + static_cast<uint64_t>(100 * num_lanes + trial));
      const int32_t n = 50 + static_cast<int32_t>(rng.UniformInt(0, 250));
      // Random directed arcs: parts of the graph are unreachable from
      // some lanes.
      const Graph g = RandomDirectedGraph(n, 3 * n, &rng);
      const int32_t max_cost = 1 + static_cast<int32_t>(rng.UniformInt(0, 40));
      const auto costs = CostsWithZeros(g, max_cost, &rng);
      DialLaneEngine lanes(n, max_cost);
      ExpectLanesMatchDial(&lanes, g, costs,
                           SingleSourceLanes(num_lanes, n, &rng),
                           "lanes=" + std::to_string(num_lanes) +
                               " trial=" + std::to_string(trial));
    }
  }
}

TEST(DialLaneEngineTest, MultiSourceLanesMatchDial) {
  Rng rng(7201);
  const int32_t n = 400;
  const Graph g = RandomDirectedGraph(n, 4 * n, &rng);
  const auto costs = CostsWithZeros(g, 20, &rng);
  std::vector<std::vector<int32_t>> sources;
  for (int32_t l = 0; l < DialLaneEngine::kMaxLanes; ++l) {
    // 1-6 seeds per lane, duplicates and cross-lane overlaps allowed.
    std::vector<int32_t> seeds;
    const int32_t count = 1 + static_cast<int32_t>(rng.UniformInt(0, 5));
    for (int32_t k = 0; k < count; ++k) {
      seeds.push_back(static_cast<int32_t>(rng.UniformInt(0, 30)));
    }
    sources.push_back(seeds);
  }
  DialLaneEngine lanes(n, 20);
  ExpectLanesMatchDial(&lanes, g, costs, sources, "multi-source");
}

TEST(DialLaneEngineTest, ZeroCostComponentsAndUnreachableNodes) {
  // 0-1-2-0 is a zero-cost cycle; 3-4 hangs off it at cost 5; 5 and 6
  // are reachable only from each other; a lane with no sources reaches
  // nothing.
  const Graph g = Graph::FromEdges(
      7, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {5, 6}, {6, 5}});
  const std::vector<int32_t> costs = {0, 0, 0, 5, 0, 1, 1};
  DialLaneEngine lanes(7, 5);
  const std::vector<std::vector<int32_t>> sources = {{0}, {3}, {5}, {}, {1, 6}};
  ExpectLanesMatchDial(&lanes, g, costs, sources, "fixed");
  EXPECT_EQ(lanes.Distance(0, 2), 0);
  EXPECT_EQ(lanes.Distance(0, 4), 5);
  EXPECT_EQ(lanes.Distance(0, 5), kUnreachableDistance);
  EXPECT_EQ(lanes.Distance(1, 0), kUnreachableDistance);
  EXPECT_EQ(lanes.Distance(3, 0), kUnreachableDistance);
  EXPECT_EQ(lanes.Distance(4, 5), 1);
  EXPECT_EQ(lanes.Distance(4, 4), 5);
}

TEST(DialLaneEngineTest, OneEngineServesGraphsAndCostBuffersInTurn) {
  // Forward and reversed graphs share n, as in the SND fast path; every
  // run must start clean whatever the previous run left behind.
  Rng rng(7301);
  const int32_t n = 300;
  const Graph forward = RandomDirectedGraph(n, 5 * n, &rng);
  const Graph reversed = forward.Reversed(nullptr);
  const Graph other = RandomDirectedGraph(n, 2 * n, &rng);
  DialLaneEngine lanes(n, 33);
  for (int round = 0; round < 3; ++round) {
    for (const Graph* g : {&forward, &reversed, &other}) {
      const auto costs = CostsWithZeros(*g, 33, &rng);
      const auto num_lanes = static_cast<int32_t>(
          1 + rng.UniformInt(0, DialLaneEngine::kMaxLanes - 1));
      ExpectLanesMatchDial(&lanes, *g, costs,
                           SingleSourceLanes(num_lanes, n, &rng),
                           "round=" + std::to_string(round));
    }
  }
}

// A path 0 - 1 - ... - (n-1), both directions at `cost`, plus eight
// one-way chords at `cost` that skip up to 8 nodes ahead: node n-1 lies
// at least (n - 65) * cost from node 0.
struct LongPath {
  Graph graph;
  std::vector<int32_t> costs;
};

LongPath MakeLongPath(int32_t n, int32_t cost, Rng* rng) {
  std::vector<Edge> edges;
  for (int32_t v = 0; v + 1 < n; ++v) {
    edges.push_back({v, v + 1});
    edges.push_back({v + 1, v});
  }
  for (int k = 0; k < 8; ++k) {
    const auto from = static_cast<int32_t>(rng->UniformInt(0, n - 10));
    edges.push_back({from, from + 2 + static_cast<int32_t>(
                                          rng->UniformInt(0, 7))});
  }
  LongPath path{Graph::FromEdges(n, edges), {}};
  path.costs.assign(static_cast<size_t>(path.graph.num_edges()), cost);
  return path;
}

TEST(DialLaneEngineTest, DistancesPastTheInt16RangeRerunOnInt32Lanes) {
  // 600 nodes at cost 33: node 599 lies at least 17655 from node 0, past
  // the abort key 2^14 - 66 = 16318, so the int16 sweep aborts mid-way and
  // the same lanes rerun on int32. Lane 0 always starts at node 0; the
  // other lanes start anywhere.
  Rng rng(7401);
  const LongPath path = MakeLongPath(600, 33, &rng);
  for (int32_t num_lanes = 1; num_lanes <= DialLaneEngine::kMaxLanes;
       ++num_lanes) {
    std::vector<std::vector<int32_t>> sources =
        SingleSourceLanes(num_lanes, 600, &rng);
    sources[0] = {0};
    DialLaneEngine lanes(600, 33);
    // The aborted int16 sweep and its int32 rerun are one run each.
    EXPECT_EQ(ExpectLanesMatchDial(&lanes, path.graph, path.costs, sources,
                                   "lanes=" + std::to_string(num_lanes)),
              2);
    // The engine stays on int32: the next run goes there directly.
    EXPECT_EQ(ExpectLanesMatchDial(&lanes, path.graph, path.costs, sources,
                                   "again lanes=" + std::to_string(num_lanes)),
              1);
  }
}

TEST(DialLaneEngineTest, NarrowRunAfterAnInt32RunOnOneEngine) {
  // The first run crosses the int16 range; later runs whose distances
  // would fit int16 lanes run on int32 and stay bitwise exact.
  Rng rng(7501);
  const int32_t n = 600;
  const LongPath path = MakeLongPath(n, 33, &rng);
  const Graph dense = RandomDirectedGraph(n, 6 * n, &rng);
  DialLaneEngine lanes(n, 33);
  std::vector<std::vector<int32_t>> sources =
      SingleSourceLanes(DialLaneEngine::kMaxLanes, n, &rng);
  sources[0] = {0};
  EXPECT_EQ(
      ExpectLanesMatchDial(&lanes, path.graph, path.costs, sources, "long"),
      2);
  for (int round = 0; round < 3; ++round) {
    const auto costs = CostsWithZeros(dense, 33, &rng);
    EXPECT_EQ(ExpectLanesMatchDial(&lanes, dense, costs,
                                   SingleSourceLanes(1 + 10 * round, n, &rng),
                                   "narrow round=" + std::to_string(round)),
              1);
  }
}

TEST(DialLaneEngineTest, CostBoundPastTheInt16RangeStartsOnInt32) {
  // 2U >= 2^14 leaves the int16 lanes no room: every run is one int32
  // sweep, for short and long distances alike. U = 8191 still starts on
  // int16 lanes, whose abort key 2^14 - 2U = 2 ends the first run at once.
  for (const int32_t max_cost : {8191, 8192, 20000}) {
    Rng rng(7601 + static_cast<uint64_t>(max_cost));
    const int32_t n = 200;
    const Graph g = RandomDirectedGraph(n, 4 * n, &rng);
    DialLaneEngine lanes(n, max_cost);
    int64_t runs = max_cost == 8191 ? 2 : 1;
    for (const int32_t num_lanes : {1, 17, DialLaneEngine::kMaxLanes}) {
      const auto costs = CostsWithZeros(g, max_cost, &rng);
      EXPECT_EQ(ExpectLanesMatchDial(&lanes, g, costs,
                                     SingleSourceLanes(num_lanes, n, &rng),
                                     "U=" + std::to_string(max_cost) +
                                         " lanes=" + std::to_string(num_lanes)),
                runs);
      runs = 1;
    }
  }
}

TEST(DialLaneEngineTest, RecordsOneDialRunWithItsNodePops) {
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<int32_t> costs = {1, 1, 1};
  DialLaneEngine lanes(4, 1);
  const std::vector<int32_t> from0 = {0}, from2 = {2};
  const std::span<const int32_t> sources[] = {from0, from2};
  obs::RequestTrace trace;
  {
    const obs::TraceScope scope(&trace);
    lanes.Run(g, costs, sources);
  }
  EXPECT_EQ(trace.backend_runs[obs::kSsspSlotDial].load(), 1);
  // Node 2 is popped twice: at 0 for lane 1 and at 2 for lane 0 (beyond
  // 0 + U), as is node 3; nodes 0 and 1 once each.
  EXPECT_EQ(trace.sssp_settled.load(), 6);
  EXPECT_EQ(lanes.Distance(0, 3), 3);
  EXPECT_EQ(lanes.Distance(1, 3), 1);
}

}  // namespace
}  // namespace snd
