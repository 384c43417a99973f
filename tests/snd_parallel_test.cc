// Determinism and equivalence of the parallel batch SND engine: Compute,
// BatchDistances, PairwiseDistanceMatrix and AdjacentDistanceSeries must
// return bitwise-identical values for any thread count, and the batch
// paths (cached edge costs, shared reversed-cost buffers) must agree
// exactly with the single-pair path.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "snd/analysis/anomaly.h"
#include "snd/analysis/metric_search.h"
#include "snd/analysis/state_clustering.h"
#include "snd/baselines/baselines.h"
#include "snd/core/snd.h"
#include "snd/paths/sssp_engine.h"
#include "snd/util/random.h"
#include "snd/util/thread_pool.h"
#include "test_util.h"

namespace snd {
namespace {

using testing_util::RandomState;
using testing_util::RandomSymmetricGraph;

std::vector<NetworkState> MakeSeries(int32_t n, int32_t count, Rng* rng) {
  std::vector<NetworkState> states;
  states.reserve(static_cast<size_t>(count));
  for (int32_t t = 0; t < count; ++t) {
    states.push_back(RandomState(n, 0.3 + 0.04 * t, rng));
  }
  return states;
}

// Thread counts to sweep: 1, 2 and the hardware concurrency (deduped).
std::vector<int32_t> ThreadCounts() {
  std::vector<int32_t> counts = {1, 2};
  const auto hw = static_cast<int32_t>(std::thread::hardware_concurrency());
  if (hw > 2) counts.push_back(hw);
  return counts;
}

class SndParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  }
};

TEST_F(SndParallelTest, ComputeIsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const Graph graph = RandomSymmetricGraph(80, 160, &rng);
  const NetworkState a = RandomState(80, 0.4, &rng);
  const NetworkState b = RandomState(80, 0.5, &rng);
  const SndCalculator calc(&graph, SndOptions{});
  ThreadPool::SetGlobalThreads(1);
  const double reference = calc.Compute(a, b).value;
  for (const int32_t threads : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(threads);
    EXPECT_EQ(calc.Compute(a, b).value, reference) << "threads=" << threads;
  }
}

// A skewed pair makes every term search from its bank side: per-bin
// searches and per-cluster multi-source searches then fan out over the
// pool, each writing its own columns (q lighter) or rows (p lighter).
TEST_F(SndParallelTest, BankSideSearchesAreBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(16);
  const int32_t n = 120;
  const Graph graph = RandomSymmetricGraph(n, 240, &rng);
  const auto [heavy, light] = testing_util::SkewedStates(n, &rng);
  const std::vector<NetworkState> states = {heavy, light};
  for (const BankStrategy banks :
       {BankStrategy::kPerBin, BankStrategy::kPerCluster}) {
    SndOptions options;
    options.bank_strategy = banks;
    options.banks_per_cluster = 2;
    const SndCalculator calc(&graph, options);
    ThreadPool::SetGlobalThreads(1);
    const SndResult reference = calc.Compute(heavy, light);
    for (const SndTermResult& term : reference.terms) {
      EXPECT_LT(term.num_searches,
                std::max(term.num_suppliers, term.num_consumers));
    }
    ThreadPool::SetGlobalThreads(4);
    const SndResult parallel = calc.Compute(heavy, light);
    EXPECT_EQ(parallel.value, reference.value) << BankStrategyName(banks);
    for (size_t k = 0; k < parallel.terms.size(); ++k) {
      EXPECT_EQ(parallel.terms[k].cost, reference.terms[k].cost)
          << BankStrategyName(banks) << " term " << k;
    }
    EXPECT_EQ(calc.BatchDistances(states, {{0, 1}})[0], reference.value)
        << BankStrategyName(banks);
  }
}

// MakeBatchingCase's terms search from 50-92 origins. At one thread
// every term runs 32-lane sweeps; at four, every term has at least 8
// origins per fan-out lane and runs one narrower sweep per lane on the
// pool; BatchDistances (one pair per lane) runs 32-lane sweeps again.
TEST_F(SndParallelTest, BatchedSearchesAreBitwiseIdenticalAcrossThreadCounts) {
  for (const bool directed : {false, true}) {
    const testing_util::BatchingCase input =
        testing_util::MakeBatchingCase(directed);
    const std::vector<NetworkState> states = {input.a, input.b};
    for (const BankStrategy banks :
         {BankStrategy::kPerBin, BankStrategy::kPerCluster}) {
      SCOPED_TRACE(std::string(BankStrategyName(banks)) +
                   (directed ? "/directed" : "/symmetric"));
      SndOptions options;
      options.bank_strategy = banks;
      options.banks_per_cluster = 2;
      const SndCalculator calc(&input.graph, options);
      ThreadPool::SetGlobalThreads(1);
      const SndResult serial = calc.Compute(input.a, input.b);
      for (const SndTermResult& term : serial.terms) {
        EXPECT_LT(term.num_passes, term.num_searches);
      }
      ThreadPool::SetGlobalThreads(4);
      const SndResult parallel = calc.Compute(input.a, input.b);
      EXPECT_EQ(parallel.value, serial.value);
      for (size_t k = 0; k < parallel.terms.size(); ++k) {
        EXPECT_EQ(parallel.terms[k].cost, serial.terms[k].cost) << "term " << k;
      }
      EXPECT_EQ(calc.BatchDistances(states, {{0, 1}})[0], serial.value);
    }
  }
}

TEST_F(SndParallelTest, TermsBelowEightOriginsPerFanOutLaneSearchPerOrigin) {
  const testing_util::BatchingCase input =
      testing_util::MakeBatchingCase(/*directed=*/false);
  ThreadPool::SetGlobalThreads(8);
  // Per-cluster banks: 50 and 58 origins, under 8 lanes x 8.
  SndOptions options;
  options.bank_strategy = BankStrategy::kPerCluster;
  options.banks_per_cluster = 2;
  const SndCalculator clustered(&input.graph, options);
  for (const SndTermResult& term : clustered.Compute(input.a, input.b).terms) {
    EXPECT_LT(term.num_searches, 8 * 8);
    EXPECT_EQ(term.num_passes, term.num_searches);
  }
  // Per-bin banks: 73 and 88 origins, enough for every lane: one sweep
  // of origins / 8 lanes per fan-out lane, plus one search per leftover.
  options.bank_strategy = BankStrategy::kPerBin;
  const SndCalculator per_bin(&input.graph, options);
  for (const SndTermResult& term : per_bin.Compute(input.a, input.b).terms) {
    EXPECT_GE(term.num_searches, 8 * 8);
    const int32_t width = term.num_searches / 8;
    EXPECT_EQ(term.num_passes, 8 + term.num_searches % width);
  }
  // Only the Dial backend batches.
  ThreadPool::SetGlobalThreads(1);
  options.sssp_backend = SsspBackend::kDijkstra;
  const SndCalculator dijkstra(&input.graph, options);
  for (const SndTermResult& term : dijkstra.Compute(input.a, input.b).terms) {
    EXPECT_EQ(term.num_passes, term.num_searches);
  }
}

TEST_F(SndParallelTest, SerialOptionMatchesParallelValue) {
  Rng rng(12);
  const Graph graph = RandomSymmetricGraph(60, 120, &rng);
  const NetworkState a = RandomState(60, 0.4, &rng);
  const NetworkState b = RandomState(60, 0.5, &rng);
  SndOptions serial_options;
  serial_options.parallel_sssp = false;
  const SndCalculator serial_calc(&graph, serial_options);
  const SndCalculator parallel_calc(&graph, SndOptions{});
  EXPECT_EQ(serial_calc.Compute(a, b).value,
            parallel_calc.Compute(a, b).value);
}

TEST_F(SndParallelTest, AdjacentDistanceSeriesMatchesSinglePairCompute) {
  Rng rng(13);
  const int32_t n = 60;
  const Graph graph = RandomSymmetricGraph(n, 120, &rng);
  const std::vector<NetworkState> states = MakeSeries(n, 8, &rng);
  const SndCalculator calc(&graph, SndOptions{});

  std::vector<double> expected;
  for (size_t t = 0; t + 1 < states.size(); ++t) {
    expected.push_back(calc.Distance(states[t], states[t + 1]));
  }
  for (const int32_t threads : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<double> series = calc.AdjacentDistanceSeries(states);
    ASSERT_EQ(series.size(), expected.size());
    for (size_t t = 0; t < series.size(); ++t) {
      EXPECT_EQ(series[t], expected[t]) << "t=" << t
                                        << " threads=" << threads;
    }
  }
}

TEST_F(SndParallelTest, PairwiseDistanceMatrixIsDeterministicAndConsistent) {
  Rng rng(14);
  const int32_t n = 50;
  const Graph graph = RandomSymmetricGraph(n, 100, &rng);
  const std::vector<NetworkState> states = MakeSeries(n, 6, &rng);
  const SndCalculator calc(&graph, SndOptions{});

  ThreadPool::SetGlobalThreads(1);
  const DenseMatrix reference = calc.PairwiseDistanceMatrix(states);

  // Symmetric, zero diagonal, and equal to the single-pair path.
  for (int32_t i = 0; i < reference.rows(); ++i) {
    EXPECT_EQ(reference.At(i, i), 0.0);
    for (int32_t j = i + 1; j < reference.cols(); ++j) {
      EXPECT_EQ(reference.At(i, j), reference.At(j, i));
      EXPECT_EQ(reference.At(i, j),
                calc.Distance(states[static_cast<size_t>(i)],
                              states[static_cast<size_t>(j)]));
    }
  }

  for (const int32_t threads : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(threads);
    const DenseMatrix matrix = calc.PairwiseDistanceMatrix(states);
    for (int32_t i = 0; i < reference.rows(); ++i) {
      for (int32_t j = 0; j < reference.cols(); ++j) {
        EXPECT_EQ(matrix.At(i, j), reference.At(i, j))
            << i << "," << j << " threads=" << threads;
      }
    }
  }
}

TEST_F(SndParallelTest, BatchDistancesHandlesRepeatedAndIdenticalPairs) {
  Rng rng(15);
  const int32_t n = 40;
  const Graph graph = RandomSymmetricGraph(n, 80, &rng);
  const std::vector<NetworkState> states = MakeSeries(n, 4, &rng);
  const SndCalculator calc(&graph, SndOptions{});

  const StatePairs pairs = {{0, 1}, {1, 0}, {2, 2}, {0, 1}, {3, 0}};
  const std::vector<double> values = calc.BatchDistances(states, pairs);
  ASSERT_EQ(values.size(), pairs.size());
  EXPECT_EQ(values[0], calc.Distance(states[0], states[1]));
  EXPECT_EQ(values[1], values[0]);  // SND is symmetric.
  EXPECT_EQ(values[2], 0.0);        // Identical states.
  EXPECT_EQ(values[3], values[0]);  // Repeated pair.
  EXPECT_EQ(values[4], calc.Distance(states[3], states[0]));

  EXPECT_TRUE(calc.BatchDistances(states, {}).empty());
}

TEST_F(SndParallelTest, BatchFnPluggingIntoAnalysisLayerMatchesPointwise) {
  Rng rng(16);
  const int32_t n = 40;
  const Graph graph = RandomSymmetricGraph(n, 80, &rng);
  const std::vector<NetworkState> states = MakeSeries(n, 6, &rng);
  const SndCalculator calc(&graph, SndOptions{});
  const DistanceFn pointwise = [&](const NetworkState& a,
                                   const NetworkState& b) {
    return calc.Distance(a, b);
  };

  const std::vector<double> series_pointwise =
      AdjacentDistances(states, pointwise);
  const std::vector<double> series_batch =
      AdjacentDistances(states, calc.BatchFn());
  ASSERT_EQ(series_batch.size(), series_pointwise.size());
  for (size_t t = 0; t < series_batch.size(); ++t) {
    EXPECT_EQ(series_batch[t], series_pointwise[t]);
  }

  const DenseMatrix matrix_pointwise = PairwiseDistances(states, pointwise);
  const DenseMatrix matrix_batch = PairwiseDistances(states, calc.BatchFn());
  for (int32_t i = 0; i < matrix_pointwise.rows(); ++i) {
    for (int32_t j = 0; j < matrix_pointwise.cols(); ++j) {
      EXPECT_EQ(matrix_batch.At(i, j), matrix_pointwise.At(i, j));
    }
  }
}

TEST_F(SndParallelTest, BatchFromPointwiseMatchesSerialEvaluation) {
  Rng rng(17);
  const int32_t n = 30;
  const Graph graph = RandomSymmetricGraph(n, 60, &rng);
  const std::vector<NetworkState> states = MakeSeries(n, 5, &rng);
  const BaselineDistances baselines(&graph);
  const DistanceFn fn = [&](const NetworkState& a, const NetworkState& b) {
    return baselines.WalkDist(a, b);
  };
  const BatchDistanceFn batch = BatchFromPointwise(fn);
  const StatePairs pairs = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}};
  for (const int32_t threads : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<double> values = batch(states, pairs);
    ASSERT_EQ(values.size(), pairs.size());
    for (size_t k = 0; k < pairs.size(); ++k) {
      EXPECT_EQ(values[k],
                fn(states[static_cast<size_t>(pairs[k].first)],
                   states[static_cast<size_t>(pairs[k].second)]))
          << "k=" << k << " threads=" << threads;
    }
  }
}

TEST_F(SndParallelTest, BatchBuiltMetricIndexMatchesPointwiseIndex) {
  Rng rng(18);
  const int32_t n = 30;
  const Graph graph = RandomSymmetricGraph(n, 60, &rng);
  const std::vector<NetworkState> states = MakeSeries(n, 10, &rng);
  const SndCalculator calc(&graph, SndOptions{});
  const DistanceFn pointwise = [&](const NetworkState& a,
                                   const NetworkState& b) {
    return calc.Distance(a, b);
  };

  const MetricIndex plain(&states, pointwise, /*num_pivots=*/3);
  const MetricIndex batched(&states, pointwise, /*num_pivots=*/3,
                            calc.BatchFn());
  const NetworkState query = RandomState(n, 0.5, &rng);
  EXPECT_EQ(batched.NearestNeighbor(query), plain.NearestNeighbor(query));
}

TEST_F(SndParallelTest, SndIsBitwiseIdenticalAcrossSsspBackends) {
  Rng rng(21);
  const int32_t n = 70;
  const Graph graph = RandomSymmetricGraph(n, 140, &rng);
  const std::vector<NetworkState> states = MakeSeries(n, 6, &rng);

  // Reference: explicit Dijkstra, single thread.
  SndOptions reference_options;
  reference_options.sssp_backend = SsspBackend::kDijkstra;
  const SndCalculator reference_calc(&graph, reference_options);
  ThreadPool::SetGlobalThreads(1);
  const double reference_value =
      reference_calc.Compute(states[0], states[1]).value;
  const std::vector<double> reference_series =
      reference_calc.AdjacentDistanceSeries(states);

  for (const SsspBackend backend :
       {SsspBackend::kAuto, SsspBackend::kDijkstra, SsspBackend::kDial,
        SsspBackend::kDeltaStepping}) {
    SndOptions options;
    options.sssp_backend = backend;
    const SndCalculator calc(&graph, options);
    for (const int32_t threads : ThreadCounts()) {
      ThreadPool::SetGlobalThreads(threads);
      EXPECT_EQ(calc.Compute(states[0], states[1]).value, reference_value)
          << SsspBackendName(backend) << " threads=" << threads;
      const std::vector<double> series = calc.AdjacentDistanceSeries(states);
      ASSERT_EQ(series.size(), reference_series.size());
      for (size_t t = 0; t < series.size(); ++t) {
        EXPECT_EQ(series[t], reference_series[t])
            << SsspBackendName(backend) << " t=" << t
            << " threads=" << threads;
      }
    }
  }
}

TEST_F(SndParallelTest, BackendsMatchTheDenseReferencePath) {
  Rng rng(22);
  const int32_t n = 40;
  const Graph graph = RandomSymmetricGraph(n, 80, &rng);
  const NetworkState a = RandomState(n, 0.4, &rng);
  const NetworkState b = RandomState(n, 0.5, &rng);
  for (const SsspBackend backend :
       {SsspBackend::kAuto, SsspBackend::kDijkstra, SsspBackend::kDial,
        SsspBackend::kDeltaStepping}) {
    SndOptions options;
    options.sssp_backend = backend;
    const SndCalculator calc(&graph, options);
    // The target-pruned fast path must agree with the dense reference
    // computation (which settles every node) to the same tolerance the
    // core tests allow between the two formulations.
    const double fast = calc.Compute(a, b).value;
    EXPECT_NEAR(fast, calc.ComputeReference(a, b).value,
                1e-6 * (1.0 + fast))
        << SsspBackendName(backend);
  }
}

TEST_F(SndParallelTest, AutoBackendResolvesAgainstModelCostBound) {
  Rng rng(23);
  const int32_t n = 60;
  const Graph graph = RandomSymmetricGraph(n, 120, &rng);
  SndOptions options;  // Default model U is small relative to n.
  const SndCalculator auto_calc(&graph, options);
  EXPECT_EQ(auto_calc.sssp_backend(),
            ResolveSsspBackend(SsspBackend::kAuto, n,
                               auto_calc.model().MaxEdgeCost()));
  options.sssp_backend = SsspBackend::kDijkstra;
  const SndCalculator dijkstra_calc(&graph, options);
  EXPECT_EQ(dijkstra_calc.sssp_backend(), SsspBackend::kDijkstra);
  options.sssp_backend = SsspBackend::kDial;
  const SndCalculator dial_calc(&graph, options);
  EXPECT_EQ(dial_calc.sssp_backend(), SsspBackend::kDial);
}

TEST_F(SndParallelTest, DeltaSteppingIsExactInPoolLanes) {
  // DeltaSteppingEngines running concurrently in the lanes of a
  // ParallelFor, as in the row-parallel ComputeTermFast fan-out, each
  // return exact distances.
  Rng rng(24);
  const int32_t n = 1500;
  const Graph graph = RandomSymmetricGraph(n, 12 * n, &rng);
  std::vector<int32_t> costs(static_cast<size_t>(graph.num_edges()));
  for (auto& c : costs) {
    c = 1 + static_cast<int32_t>(rng.UniformInt(0, (1 << 18) - 1));
  }
  const SsspSource source{0, 0};
  DijkstraEngine reference(n);
  const auto ref_span =
      reference.Run(graph, costs, std::span<const SsspSource>(&source, 1),
                    SsspGoal::AllNodes());
  const std::vector<int64_t> expected(ref_span.begin(), ref_span.end());

  ThreadPool::SetGlobalThreads(2);
  // One engine per lane: engines hold per-run workspaces and are not
  // thread-safe across concurrent Run calls.
  std::vector<DeltaSteppingEngine> engines;
  engines.reserve(2);
  for (int32_t i = 0; i < 2; ++i) engines.emplace_back(n, 1 << 18);
  std::atomic<int32_t> mismatches{0};
  ThreadPool::Global().ParallelFor(2, [&](int64_t, int32_t slot) {
    const auto dist = engines[static_cast<size_t>(slot)].Run(
        graph, costs, std::span<const SsspSource>(&source, 1),
        SsspGoal::AllNodes());
    for (size_t v = 0; v < expected.size(); ++v) {
      if (dist[v] != expected[v]) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);

  // End to end: the row-parallel SND fast path with the delta backend
  // completes (no deadlock) and matches the Dijkstra reference bitwise.
  const std::vector<NetworkState> states = MakeSeries(60, 4, &rng);
  const Graph small = RandomSymmetricGraph(60, 120, &rng);
  SndOptions dijkstra_options;
  dijkstra_options.sssp_backend = SsspBackend::kDijkstra;
  SndOptions delta_options;
  delta_options.sssp_backend = SsspBackend::kDeltaStepping;
  const SndCalculator reference_calc(&small, dijkstra_options);
  const SndCalculator delta_calc(&small, delta_options);
  const StatePairs pairs = {{0, 1}, {1, 2}, {2, 3}, {0, 3}};
  const std::vector<double> want = reference_calc.BatchDistances(states, pairs);
  const std::vector<double> got = delta_calc.BatchDistances(states, pairs);
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < got.size(); ++k) EXPECT_EQ(got[k], want[k]);
}

TEST_F(SndParallelTest, GroundDistanceMatrixIsDeterministic) {
  Rng rng(19);
  const int32_t n = 40;
  const Graph graph = RandomSymmetricGraph(n, 80, &rng);
  const NetworkState state = RandomState(n, 0.5, &rng);
  const SndCalculator calc(&graph, SndOptions{});
  ThreadPool::SetGlobalThreads(1);
  const DenseMatrix reference =
      calc.GroundDistanceMatrix(state, Opinion::kPositive);
  for (const int32_t threads : ThreadCounts()) {
    ThreadPool::SetGlobalThreads(threads);
    const DenseMatrix d = calc.GroundDistanceMatrix(state, Opinion::kPositive);
    for (int32_t u = 0; u < n; ++u) {
      for (int32_t v = 0; v < n; ++v) {
        EXPECT_EQ(d.At(u, v), reference.At(u, v)) << "threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace snd
