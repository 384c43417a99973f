#include "snd/core/snd.h"

#include <algorithm>
#include <cmath>
#include <ios>

#include <gtest/gtest.h>

#include "snd/graph/generators.h"
#include "snd/obs/trace.h"
#include "snd/util/thread_pool.h"
#include "test_util.h"

namespace snd {
namespace {

using testing_util::RandomState;
using testing_util::RandomSymmetricGraph;
using testing_util::SkewedStates;

SndOptions BaseOptions() {
  SndOptions options;
  options.bank_strategy = BankStrategy::kPerCluster;
  return options;
}

TEST(SndCalculatorTest, ZeroForIdenticalStates) {
  Rng rng(1);
  const Graph g = RandomSymmetricGraph(30, 40, &rng);
  const SndCalculator calc(&g, BaseOptions());
  const NetworkState state = RandomState(30, 0.4, &rng);
  const SndResult result = calc.Compute(state, state);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
  EXPECT_EQ(result.n_delta, 0);
}

TEST(SndCalculatorTest, SymmetricByConstruction) {
  Rng rng(2);
  const Graph g = RandomSymmetricGraph(24, 30, &rng);
  const SndCalculator calc(&g, BaseOptions());
  const NetworkState a = RandomState(24, 0.3, &rng);
  const NetworkState b = RandomState(24, 0.3, &rng);
  EXPECT_NEAR(calc.Distance(a, b), calc.Distance(b, a), 1e-9);
}

TEST(SndCalculatorTest, PositiveForDifferentStates) {
  Rng rng(3);
  const Graph g = RandomSymmetricGraph(24, 30, &rng);
  const SndCalculator calc(&g, BaseOptions());
  NetworkState a(24), b(24);
  a.set_opinion(0, Opinion::kPositive);
  b.set_opinion(5, Opinion::kPositive);
  EXPECT_GT(calc.Distance(a, b), 0.0);
}

TEST(SndCalculatorTest, FartherActivationCostsMore) {
  // On a long path, activating a user far from the existing "+" mass must
  // cost more than activating an adjacent one.
  std::vector<Edge> edges;
  const int32_t n = 12;
  for (int32_t u = 0; u + 1 < n; ++u) {
    edges.push_back({u, u + 1});
    edges.push_back({u + 1, u});
  }
  const Graph g = Graph::FromEdges(n, std::move(edges));
  // Per-bin banks make the mass-mismatch penalty location-sensitive (a
  // single global bank is location-blind by design - the EMDalpha
  // behavior the paper contrasts EMD* against).
  SndOptions options = BaseOptions();
  options.bank_strategy = BankStrategy::kPerBin;
  const SndCalculator calc(&g, options);

  NetworkState base(n);
  base.set_opinion(0, Opinion::kPositive);
  NetworkState near = base;
  near.set_opinion(1, Opinion::kPositive);
  NetworkState far = base;
  far.set_opinion(n - 1, Opinion::kPositive);
  EXPECT_LT(calc.Distance(base, near), calc.Distance(base, far));
}

TEST(SndCalculatorTest, GlobalBankIsLocationBlind) {
  // The contrast case: with a single global bank the two activations of
  // the previous test cost exactly the same.
  std::vector<Edge> edges;
  const int32_t n = 12;
  for (int32_t u = 0; u + 1 < n; ++u) {
    edges.push_back({u, u + 1});
    edges.push_back({u + 1, u});
  }
  const Graph g = Graph::FromEdges(n, std::move(edges));
  SndOptions options = BaseOptions();
  options.bank_strategy = BankStrategy::kSingleGlobal;
  const SndCalculator calc(&g, options);
  NetworkState base(n);
  base.set_opinion(0, Opinion::kPositive);
  NetworkState near = base;
  near.set_opinion(1, Opinion::kPositive);
  NetworkState far = base;
  far.set_opinion(n - 1, Opinion::kPositive);
  EXPECT_NEAR(calc.Distance(base, near), calc.Distance(base, far), 1e-9);
}

TEST(SndCalculatorTest, AdverseIntermediariesRaiseTheCost) {
  // 0("+") - 1 - 2: activating 2 with "+" is costlier when user 1 holds
  // the competing opinion than when 1 is neutral.
  const Graph g =
      Graph::FromEdges(3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}});
  SndOptions options = BaseOptions();
  options.bank_strategy = BankStrategy::kPerBin;
  const SndCalculator calc(&g, options);

  NetworkState neutral_mid(3);
  neutral_mid.set_opinion(0, Opinion::kPositive);
  NetworkState adverse_mid = neutral_mid;
  adverse_mid.set_opinion(1, Opinion::kNegative);

  NetworkState neutral_next = neutral_mid;
  neutral_next.set_opinion(2, Opinion::kPositive);
  NetworkState adverse_next = adverse_mid;
  adverse_next.set_opinion(2, Opinion::kPositive);

  EXPECT_LT(calc.Distance(neutral_mid, neutral_next),
            calc.Distance(adverse_mid, adverse_next));
}

TEST(SndCalculatorTest, HandlesDisconnectedGraphs) {
  // Two components; opinions appearing in the far component are charged
  // the finite disconnection cost instead of infinity.
  const Graph g = Graph::FromEdges(4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}});
  SndOptions options = BaseOptions();
  const SndCalculator calc(&g, options);
  NetworkState a(4), b(4);
  a.set_opinion(0, Opinion::kPositive);
  b.set_opinion(0, Opinion::kPositive);
  b.set_opinion(2, Opinion::kPositive);
  const double d = calc.Distance(a, b);
  EXPECT_GT(d, 0.0);
  EXPECT_TRUE(std::isfinite(d));
}

TEST(SndCalculatorTest, EmptyStatesAtZeroDistance) {
  Rng rng(4);
  const Graph g = RandomSymmetricGraph(10, 10, &rng);
  const SndCalculator calc(&g, BaseOptions());
  const NetworkState empty_a(10), empty_b(10);
  EXPECT_DOUBLE_EQ(calc.Distance(empty_a, empty_b), 0.0);
}

TEST(SndCalculatorTest, ReportsTermBreakdown) {
  Rng rng(5);
  const Graph g = RandomSymmetricGraph(20, 30, &rng);
  const SndCalculator calc(&g, BaseOptions());
  const NetworkState a = RandomState(20, 0.3, &rng);
  const NetworkState b = RandomState(20, 0.3, &rng);
  const SndResult result = calc.Compute(a, b);
  double sum = 0.0;
  for (const SndTermResult& term : result.terms) sum += term.cost;
  EXPECT_NEAR(result.value, 0.5 * sum, 1e-9);
  EXPECT_EQ(result.terms[0].op, Opinion::kPositive);
  EXPECT_EQ(result.terms[1].op, Opinion::kNegative);
  EXPECT_TRUE(result.terms[0].forward);
  EXPECT_FALSE(result.terms[2].forward);
}

// The central correctness property: the Theorem-4 fast path computes
// exactly the dense reference EMD* combination, across ground-distance
// models, bank strategies, and mass-mismatch directions.
struct FastVsRefCase {
  GroundModelKind model;
  BankStrategy banks;
};

class FastVsReferenceTest
    : public ::testing::TestWithParam<std::tuple<FastVsRefCase, int>> {};

TEST_P(FastVsReferenceTest, FastEqualsReference) {
  const auto [config, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
  const int32_t n = 12 + static_cast<int32_t>(rng.UniformInt(0, 24));
  const Graph g = RandomSymmetricGraph(
      n, static_cast<int32_t>(rng.UniformInt(0, 2 * n)), &rng);

  SndOptions options = BaseOptions();
  options.model = config.model;
  options.bank_strategy = config.banks;
  const SndCalculator calc(&g, options);

  // Three mass regimes: balanced-ish, P-heavy, Q-heavy.
  const NetworkState a = RandomState(n, rng.UniformReal(0.1, 0.5), &rng);
  const NetworkState b = RandomState(n, rng.UniformReal(0.1, 0.5), &rng);

  const SndResult fast = calc.Compute(a, b);
  const SndResult reference = calc.ComputeReference(a, b);
  EXPECT_NEAR(fast.value, reference.value, 1e-6 * (1.0 + fast.value))
      << "model=" << GroundModelKindName(config.model)
      << " banks=" << BankStrategyName(config.banks) << " n=" << n;
  for (size_t k = 0; k < fast.terms.size(); ++k) {
    EXPECT_NEAR(fast.terms[k].cost, reference.terms[k].cost,
                1e-6 * (1.0 + fast.terms[k].cost))
        << "term " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, FastVsReferenceTest,
    ::testing::Combine(
        ::testing::Values(
            FastVsRefCase{GroundModelKind::kModelAgnostic,
                          BankStrategy::kPerCluster},
            FastVsRefCase{GroundModelKind::kModelAgnostic,
                          BankStrategy::kSingleGlobal},
            FastVsRefCase{GroundModelKind::kModelAgnostic,
                          BankStrategy::kPerBin},
            FastVsRefCase{GroundModelKind::kIndependentCascade,
                          BankStrategy::kPerCluster},
            FastVsRefCase{GroundModelKind::kIndependentCascade,
                          BankStrategy::kSingleGlobal},
            FastVsRefCase{GroundModelKind::kLinearThreshold,
                          BankStrategy::kPerCluster},
            FastVsRefCase{GroundModelKind::kLinearThreshold,
                          BankStrategy::kPerBin}),
        ::testing::Range(0, 6)));

// Directed graphs exercise the reverse-SSSP branch with asymmetric ground
// distances.
class DirectedFastVsReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(DirectedFastVsReferenceTest, FastEqualsReference) {
  Rng rng(3000 + static_cast<uint64_t>(GetParam()));
  const int32_t n = 10 + static_cast<int32_t>(rng.UniformInt(0, 15));
  const Graph g = testing_util::RandomDirectedGraph(n, 4 * n, &rng);
  SndOptions options = BaseOptions();
  options.gamma_policy = GammaPolicy::kFixed;
  options.fixed_gamma = 40.0;
  const SndCalculator calc(&g, options);
  // Force a pronounced mass mismatch in both directions.
  const NetworkState a = RandomState(n, 0.15, &rng);
  const NetworkState b = RandomState(n, 0.55, &rng);
  EXPECT_NEAR(calc.Compute(a, b).value, calc.ComputeReference(a, b).value,
              1e-6);
  EXPECT_NEAR(calc.Compute(b, a).value, calc.ComputeReference(b, a).value,
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(Random, DirectedFastVsReferenceTest,
                         ::testing::Range(0, 10));

TEST(SndCalculatorTest, GroundDistanceMatrixDiagonalIsZero) {
  Rng rng(8);
  const Graph g = RandomSymmetricGraph(15, 20, &rng);
  const SndCalculator calc(&g, BaseOptions());
  const NetworkState state = RandomState(15, 0.3, &rng);
  const DenseMatrix d = calc.GroundDistanceMatrix(state, Opinion::kPositive);
  for (int32_t u = 0; u < 15; ++u) {
    EXPECT_DOUBLE_EQ(d.At(u, u), 0.0);
    for (int32_t v = 0; v < 15; ++v) {
      EXPECT_GE(d.At(u, v), 0.0);
      EXPECT_LE(d.At(u, v), static_cast<double>(calc.DisconnectionCost()));
    }
  }
}

// Each term searches from whichever side of its reduced problem has
// fewer origins: one search per plain-side bin (the side without
// banks), or one per bank-side bin plus one multi-source search per
// active bank cluster. Distances are exact integers either way, so the
// direction must not move any SND value.

// Whether `term` of Compute(a, b) has the lighter supply side; banks
// then join the supply side and the consumers form the plain side.
bool SupplyLighter(const SndTermResult& term, const NetworkState& a,
                   const NetworkState& b) {
  const NetworkState& from = term.forward ? a : b;
  const NetworkState& to = term.forward ? b : a;
  return from.CountOpinion(term.op) < to.CountOpinion(term.op);
}

int32_t PlainBins(const SndTermResult& term, const NetworkState& a,
                  const NetworkState& b) {
  return SupplyLighter(term, a, b) ? term.num_consumers : term.num_suppliers;
}

int32_t PairedBins(const SndTermResult& term, const NetworkState& a,
                   const NetworkState& b) {
  return SupplyLighter(term, a, b) ? term.num_suppliers : term.num_consumers;
}

// Compute(heavy, light) over SkewedStates: the forward terms of + and
// the reverse terms of - have q lighter (banks on the demand side), the
// other two p lighter (banks on the supply side).
constexpr bool kSupplyLighter[4] = {false, true, true, false};

struct BankSideCase {
  const char* name;
  BankStrategy banks;
  int32_t banks_per_cluster;
  bool directed;
  // Recorded with one search per plain-side bin.
  double value;
  double terms[4];
};

TEST(SndCalculatorTest, BankSideSearchesKeepValuesBitwise) {
  const BankSideCase kCases[] = {
      {"per_bin/symmetric", BankStrategy::kPerBin, 1, false,
       0x1.32d5555555555p+10,
       {0x1.06aaaaaaaaaaap+7, 0x1.858p+9, 0x1.6a55555555555p+10, 0x1.7cp+6}},
      {"per_cluster2/symmetric", BankStrategy::kPerCluster, 2, false,
       0x1.49d1555555555p+13,
       {0x1.4bd5555555555p+12, 0x1.435p+12, 0x1.615p+12, 0x1.36dp+12}},
      {"global/symmetric", BankStrategy::kSingleGlobal, 1, false,
       0x1.006p+13, {0x1.082p+12, 0x1.ef4p+11, 0x1.0a2p+12, 0x1.ef4p+11}},
      {"per_bin/directed", BankStrategy::kPerBin, 1, true,
       0x1.0b21555555553p+12,
       {0x1.9f7555555554dp+11, 0x1.fb9ffffffffffp+10, 0x1.268aaaaaaaaaap+11,
        0x1.a2d5555555555p+9}},
      {"per_cluster2/directed", BankStrategy::kPerCluster, 2, true,
       0x1.6595555555555p+13,
       {0x1.72fp+12, 0x1.5a35555555555p+12, 0x1.78ep+12, 0x1.505p+12}},
      {"global/directed", BankStrategy::kSingleGlobal, 1, true, 0x1.8558p+13,
       {0x1.8c1p+12, 0x1.7e6p+12, 0x1.88ap+12, 0x1.825p+12}},
  };
  constexpr int32_t kN = 80;
  for (const BankSideCase& c : kCases) {
    SCOPED_TRACE(c.name);
    Rng rng(c.directed ? 91 : 90);
    Graph g = RandomSymmetricGraph(kN, 3 * kN / 2, &rng);
    if (c.directed) {
      // Thinning the arcs one way at a time makes distances asymmetric,
      // so a search over the wrong graph or cost buffer moves the value.
      std::vector<Edge> arcs;
      for (const Edge& e : g.ToEdgeList()) {
        if (rng.Bernoulli(0.7)) arcs.push_back(e);
      }
      g = Graph::FromEdges(kN, std::move(arcs));
    }
    const auto [heavy, light] = SkewedStates(kN, &rng);
    SndOptions options;
    options.bank_strategy = c.banks;
    options.banks_per_cluster = c.banks_per_cluster;
    const SndCalculator calc(&g, options);
    const SndResult result = calc.Compute(heavy, light);
    EXPECT_EQ(result.value, c.value)
        << std::hexfloat << result.value << " vs " << c.value;
    for (size_t k = 0; k < result.terms.size(); ++k) {
      const SndTermResult& term = result.terms[k];
      EXPECT_EQ(term.cost, c.terms[k])
          << "term " << k << ": " << std::hexfloat << term.cost;
      EXPECT_EQ(SupplyLighter(term, heavy, light), kSupplyLighter[k]);
      // Every term, on either branch, is searched from its bank side.
      EXPECT_GT(term.num_banks, 0) << "term " << k;
      EXPECT_LT(term.num_searches, PlainBins(term, heavy, light))
          << "term " << k;
    }
  }
}

TEST(SndCalculatorTest, SearchesFromTheSideWithFewerOrigins) {
  // A 40-node ring with per-bin banks, so every active bank is its own
  // cluster. The + terms (20 vs 5 users) have 17 plain-side bins against
  // 2 bank-side bins and 5 banks; the - terms (4 vs 3 users) have 4
  // plain-side bins against 3 bank-side bins and 3 banks.
  constexpr int32_t kN = 40;
  std::vector<Edge> edges;
  for (int32_t u = 0; u < kN; ++u) {
    edges.push_back({u, (u + 1) % kN});
    edges.push_back({(u + 1) % kN, u});
  }
  const Graph g = Graph::FromEdges(kN, std::move(edges));
  NetworkState a(kN), b(kN);
  for (int32_t u = 0; u < 20; ++u) a.set_opinion(u, Opinion::kPositive);
  for (int32_t u = 30; u < 34; ++u) a.set_opinion(u, Opinion::kNegative);
  for (int32_t u : {0, 1, 2, 25, 26}) b.set_opinion(u, Opinion::kPositive);
  for (int32_t u = 34; u < 37; ++u) b.set_opinion(u, Opinion::kNegative);
  const SndCalculator calc(&g, SndOptions{});
  obs::RequestTrace trace;
  const SndResult result = [&] {
    const obs::TraceScope scope(&trace);
    return calc.Compute(a, b);
  }();
  const int64_t runs = trace.sssp_runs.load();

  int64_t expected = 0;
  int64_t reported = 0;
  for (const SndTermResult& term : result.terms) {
    expected += std::min(PlainBins(term, a, b),
                         PairedBins(term, a, b) + term.num_banks);
    reported += term.num_searches;
  }
  EXPECT_EQ(runs, expected);
  EXPECT_EQ(reported, expected);
  EXPECT_EQ(expected, 7 + 4 + 7 + 4);
  for (const SndTermResult& term : result.terms) {
    // Fewer than 8 origins: one search per origin, no sweep.
    EXPECT_EQ(term.num_passes, term.num_searches);
  }
  EXPECT_NEAR(result.value, calc.ComputeReference(a, b).value,
              1e-9 * (1.0 + result.value));
}

// Terms with at least 8 origins run their searches in
// DialLaneEngine sweeps of up to 32 lanes: full sweeps, then a final
// sweep when at least 8 origins remain, else one search per leftover
// origin. The lanes hold exact integer distances, so no value may move.
struct BatchedCase {
  const char* name;
  BankStrategy banks;
  bool directed;
  // Recorded with one search per origin.
  double value;
  double terms[4];
};

// Passes of a term searched serially from `origins` origins.
int32_t SerialPasses(int32_t origins) {
  if (origins < 8) return origins;
  const int32_t width = std::min(origins, 32);
  const int32_t tail = origins % width;
  return origins / width + (tail >= 8 ? 1 : tail);
}

TEST(SndCalculatorTest, BatchedSearchesKeepValuesBitwise) {
  const BatchedCase kCases[] = {
      {"per_bin/symmetric", BankStrategy::kPerBin, false,
       0x1.eae0a97d5a0a6p+10,
       {0x1.1333dcb08d3dbp+10, 0x1.821111111110cp+9, 0x1.c567b9611a7b5p+9,
        0x1.1ed1111111111p+10}},
      {"per_cluster2/symmetric", BankStrategy::kPerCluster, false,
       0x1.71ep+13, {0x1.f21p+12, 0x1.c0cp+11, 0x1.fb8p+12, 0x1.f32p+11}},
      {"per_bin/directed", BankStrategy::kPerBin, true, 0x1.789be875b37dfp+15,
       {0x1.71fb9611a7b97p+10, 0x1.42e650d794359p+15, 0x1.edc93dcb08d3dp+14,
        0x1.57ba08fb823d5p+14}},
      {"per_cluster2/directed", BankStrategy::kPerCluster, true,
       0x1.673af9f5c7515p+15,
       {0x1.8aa8469ee5846p+12, 0x1.81f0ce98b3a6p+15, 0x1.97cb4f72c2352p+14,
        0x1.3d29d31674c5dp+13}},
  };
  bool batched_tail = false;
  bool single_tail = false;
  ThreadPool::SetGlobalThreads(1);
  for (const BatchedCase& c : kCases) {
    SCOPED_TRACE(c.name);
    const testing_util::BatchingCase input =
        testing_util::MakeBatchingCase(c.directed);
    SndOptions options;
    options.bank_strategy = c.banks;
    options.banks_per_cluster = 2;
    const SndCalculator calc(&input.graph, options);
    ASSERT_EQ(calc.sssp_backend(), SsspBackend::kDial);
    obs::RequestTrace trace;
    const SndResult result = [&] {
      const obs::TraceScope scope(&trace);
      return calc.Compute(input.a, input.b);
    }();
    EXPECT_EQ(result.value, c.value)
        << std::hexfloat << result.value << " vs " << c.value;
    int64_t searches = 0;
    for (size_t k = 0; k < result.terms.size(); ++k) {
      const SndTermResult& term = result.terms[k];
      EXPECT_EQ(term.cost, c.terms[k])
          << "term " << k << ": " << std::hexfloat << term.cost;
      EXPECT_GE(term.num_searches, 32) << "term " << k;
      EXPECT_EQ(term.num_passes, SerialPasses(term.num_searches))
          << "term " << k;
      const int32_t tail = term.num_searches % 32;
      batched_tail = batched_tail || tail >= 8;
      single_tail = single_tail || (tail > 0 && tail < 8);
      searches += term.num_searches;
    }
    // A batch counts one search per lane.
    EXPECT_EQ(trace.sssp_runs.load(), searches);
  }
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
  EXPECT_TRUE(batched_tail);
  EXPECT_TRUE(single_tail);
}

}  // namespace
}  // namespace snd
