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
#include "snd/obs/trace.h"
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
// searches and per-cluster multi-source searches, each writing its own
// columns (q lighter) or rows (p lighter), while the four terms run as
// concurrent pool jobs.
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

// MakeBatchingCase's terms search from 50-92 origins, so every term runs
// 32-lane sweeps. At four threads Compute and BatchDistances run the four
// terms as concurrent pool jobs, each term's sweeps on its own lane's
// scratch.
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

// Passes of a term searched from `origins` origins: sweeps of
// min(32, origins) lanes from 8 lanes up, a last sweep for a leftover of
// at least 8, one search per other leftover origin.
int32_t SerialPasses(int32_t origins) {
  if (origins < 8) return origins;
  const int32_t width = std::min(origins, 32);
  const int32_t tail = origins % width;
  return origins / width + (tail >= 8 ? 1 : tail);
}

// A term is one pool job and plans its passes alone, so the plan is the
// serial one at every thread count.
TEST_F(SndParallelTest, PassPlanDoesNotDependOnThreadCount) {
  const testing_util::BatchingCase input =
      testing_util::MakeBatchingCase(/*directed=*/false);
  SndOptions options;
  options.banks_per_cluster = 2;
  for (const BankStrategy banks :
       {BankStrategy::kPerBin, BankStrategy::kPerCluster}) {
    options.bank_strategy = banks;
    const SndCalculator calc(&input.graph, options);
    for (const int32_t threads : {1, 2, 4, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      for (const SndTermResult& term : calc.Compute(input.a, input.b).terms) {
        EXPECT_GE(term.num_searches, 8);
        EXPECT_EQ(term.num_passes, SerialPasses(term.num_searches))
            << BankStrategyName(banks) << " threads=" << threads;
      }
    }
  }
  // Only the Dial backend batches.
  options.sssp_backend = SsspBackend::kDijkstra;
  const SndCalculator dijkstra(&input.graph, options);
  for (const int32_t threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    for (const SndTermResult& term : dijkstra.Compute(input.a, input.b).terms) {
      EXPECT_EQ(term.num_passes, term.num_searches);
    }
  }
}

// One pair on a multi-thread pool runs its four terms as concurrent jobs.
// The value and every term cost must match the one-thread run bitwise: a
// balanced pair, a pair where only positive opinions appear (both
// negative terms are zero), and identical states.
TEST_F(SndParallelTest, SinglePairTermJobsAreBitwiseIdenticalAcrossThreads) {
  const testing_util::BatchingCase input =
      testing_util::MakeBatchingCase(/*directed=*/true);
  NetworkState positive_only = input.a;
  for (int32_t u = 0; u < positive_only.num_users(); ++u) {
    if (input.a.opinion(u) == Opinion::kNeutral &&
        input.b.opinion(u) == Opinion::kPositive) {
      positive_only.set_opinion(u, Opinion::kPositive);
    }
  }
  const std::vector<NetworkState> states = {input.a, input.b, positive_only};
  SndOptions options;
  options.banks_per_cluster = 2;
  const SndCalculator calc(&input.graph, options);
  const StatePairs pairs = {{0, 1}, {0, 2}, {1, 1}};
  for (const auto& [i, j] : pairs) {
    SCOPED_TRACE("pair " + std::to_string(i) + "," + std::to_string(j));
    const NetworkState& a = states[static_cast<size_t>(i)];
    const NetworkState& b = states[static_cast<size_t>(j)];
    ThreadPool::SetGlobalThreads(1);
    const SndResult serial = calc.Compute(a, b);
    const double serial_batch = calc.BatchDistances(states, {{i, j}})[0];
    EXPECT_EQ(serial_batch, serial.value);
    if (i == j) {
      EXPECT_EQ(serial.value, 0.0);
    } else if (j == 2) {
      EXPECT_GT(serial.terms[0].cost, 0.0);
      EXPECT_EQ(serial.terms[1].cost, 0.0);
      EXPECT_GT(serial.terms[2].cost, 0.0);
      EXPECT_EQ(serial.terms[3].cost, 0.0);
    } else {
      for (const SndTermResult& term : serial.terms) {
        EXPECT_GT(term.cost, 0.0);
      }
    }
    for (const int32_t threads : {2, 4, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      const SndResult parallel = calc.Compute(a, b);
      EXPECT_EQ(parallel.value, serial.value) << "threads=" << threads;
      for (size_t k = 0; k < parallel.terms.size(); ++k) {
        EXPECT_EQ(parallel.terms[k].cost, serial.terms[k].cost)
            << "term " << k << " threads=" << threads;
      }
      EXPECT_EQ(calc.BatchDistances(states, {{i, j}})[0], serial_batch)
          << "threads=" << threads;
    }
  }
}

// Term jobs run on pool threads report into the caller's RequestTrace:
// a single pair counts the same work at four threads as at one.
TEST_F(SndParallelTest, TermJobsReportIntoTheCallersTrace) {
  const testing_util::BatchingCase input =
      testing_util::MakeBatchingCase(/*directed=*/false);
  const SndCalculator calc(&input.graph, SndOptions{});
  ASSERT_EQ(calc.sssp_backend(), SsspBackend::kDial);
  auto traced = [&](int32_t threads, obs::RequestTrace* trace) {
    ThreadPool::SetGlobalThreads(threads);
    const obs::TraceScope scope(trace);
    return calc.Compute(input.a, input.b).value;
  };
  obs::RequestTrace serial;
  obs::RequestTrace parallel;
  EXPECT_EQ(traced(4, &parallel), traced(1, &serial));
  EXPECT_GT(serial.sssp_runs.load(), 0);
  EXPECT_EQ(serial.transport_solves.load(), 4);
  EXPECT_GT(serial.backend_runs[obs::kSsspSlotDial].load(), 0);
  EXPECT_EQ(parallel.sssp_runs.load(), serial.sssp_runs.load());
  EXPECT_EQ(parallel.transport_solves.load(), serial.transport_solves.load());
  EXPECT_EQ(parallel.backend_runs[obs::kSsspSlotDial].load(),
            serial.backend_runs[obs::kSsspSlotDial].load());
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
  // ParallelFor, as in the concurrent term jobs of Compute and
  // BatchDistances, each return exact distances.
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

  // End to end: the term-parallel SND fast path with the delta backend
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
