// Property-style sweeps over the end-to-end SND pipeline: invariants that
// must hold for arbitrary graphs, states, and configurations.
#include <cmath>

#include <gtest/gtest.h>

#include "snd/core/snd.h"
#include "snd/emd/emd_star.h"
#include "snd/flow/simplex_solver.h"
#include "snd/graph/generators.h"
#include "snd/opinion/evolution.h"
#include "test_util.h"

namespace snd {
namespace {

using testing_util::RandomState;
using testing_util::RandomSymmetricGraph;

class SndInvariantsTest : public ::testing::TestWithParam<int> {};

TEST_P(SndInvariantsTest, NonNegativeSymmetricZeroOnEqual) {
  Rng rng(7000 + static_cast<uint64_t>(GetParam()));
  const int32_t n = 10 + static_cast<int32_t>(rng.UniformInt(0, 30));
  const Graph g = RandomSymmetricGraph(
      n, static_cast<int32_t>(rng.UniformInt(0, 3 * n)), &rng);
  SndOptions options;
  // Random configuration.
  const GroundModelKind models[] = {GroundModelKind::kModelAgnostic,
                                    GroundModelKind::kIndependentCascade,
                                    GroundModelKind::kLinearThreshold};
  options.model = models[rng.UniformInt(0, 2)];
  const BankStrategy banks[] = {BankStrategy::kPerBin,
                                BankStrategy::kPerCluster,
                                BankStrategy::kSingleGlobal};
  options.bank_strategy = banks[rng.UniformInt(0, 2)];
  const SndCalculator calc(&g, options);

  const NetworkState a = RandomState(n, rng.UniformReal(0.0, 0.6), &rng);
  const NetworkState b = RandomState(n, rng.UniformReal(0.0, 0.6), &rng);
  const double ab = calc.Distance(a, b);
  const double ba = calc.Distance(b, a);
  EXPECT_GE(ab, 0.0);
  EXPECT_TRUE(std::isfinite(ab));
  EXPECT_NEAR(ab, ba, 1e-9 * (1.0 + ab));
  EXPECT_DOUBLE_EQ(calc.Distance(a, a), 0.0);
  if (!(a == b)) {
    EXPECT_GT(ab, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SndInvariantsTest, ::testing::Range(0, 25));

TEST(SndInvariantsTest, DeterministicAcrossCalculators) {
  Rng rng(1);
  const Graph g = RandomSymmetricGraph(40, 60, &rng);
  const NetworkState a = RandomState(40, 0.3, &rng);
  const NetworkState b = RandomState(40, 0.4, &rng);
  const SndCalculator calc1(&g, SndOptions{});
  const SndCalculator calc2(&g, SndOptions{});
  EXPECT_DOUBLE_EQ(calc1.Distance(a, b), calc2.Distance(a, b));
  EXPECT_DOUBLE_EQ(calc1.Distance(a, b), calc1.Distance(a, b));
}

TEST(SndInvariantsTest, NeutralOnlyDifferencesUseBothPolarTerms) {
  // Flipping a user between + and - shows up in both the positive and the
  // negative term; neutral -> + only in the positive ones.
  Rng rng(2);
  const Graph g = RandomSymmetricGraph(20, 30, &rng);
  const SndCalculator calc(&g, SndOptions{});
  NetworkState base(20);
  base.set_opinion(3, Opinion::kPositive);
  NetworkState flipped = base;
  flipped.set_opinion(3, Opinion::kNegative);
  const SndResult flip = calc.Compute(base, flipped);
  EXPECT_GT(flip.terms[0].cost, 0.0);  // "+" mass disappeared.
  EXPECT_GT(flip.terms[1].cost, 0.0);  // "-" mass appeared.

  NetworkState grown = base;
  grown.set_opinion(7, Opinion::kPositive);
  const SndResult grow = calc.Compute(base, grown);
  EXPECT_GT(grow.terms[0].cost, 0.0);
  EXPECT_DOUBLE_EQ(grow.terms[1].cost, 0.0);
  EXPECT_DOUBLE_EQ(grow.terms[3].cost, 0.0);
}

TEST(SndInvariantsTest, CommonTotalMassMatchesDefaultAtMax) {
  // EMD* with common_total_mass == max(total(P), total(Q)) reproduces the
  // default pair-dependent value exactly.
  Rng rng(4);
  const SimplexSolver solver;
  for (int trial = 0; trial < 15; ++trial) {
    const int32_t bins = 5 + static_cast<int32_t>(rng.UniformInt(0, 5));
    const DenseMatrix d = testing_util::RandomMetric(bins, &rng);
    std::vector<int32_t> labels(static_cast<size_t>(bins));
    for (auto& l : labels) l = static_cast<int32_t>(rng.UniformInt(0, 2));
    const BankSpec banks = MakeClusterBanks(labels, 1, 0.5 * d.Max());
    const auto p = testing_util::RandomHistogram(bins, 9, &rng);
    const auto q = testing_util::RandomHistogram(bins, 5, &rng);
    const double base = ComputeEmdStar(p, q, d, banks, solver);
    EmdStarOptions options;
    options.common_total_mass = 9.0;
    const double common = ComputeEmdStar(p, q, d, banks, solver, options);
    EXPECT_NEAR(base, common, 1e-9 * (1.0 + base)) << "trial " << trial;
  }
}

TEST(SndInvariantsTest, LargerPerturbationsCostMore) {
  // Growing the set of random activations cannot decrease SND from the
  // base state (more mass mismatch, same ground distance).
  Rng rng(5);
  const Graph g = RandomSymmetricGraph(60, 120, &rng);
  const SndCalculator calc(&g, SndOptions{});
  SyntheticEvolution evolution(&g, 6);
  const NetworkState base = evolution.InitialState(12);
  NetworkState grown = base;
  double previous = 0.0;
  for (int step = 0; step < 5; ++step) {
    grown = RandomTransition(grown, 4, evolution.rng());
    const double d = calc.Distance(base, grown);
    EXPECT_GE(d, previous - 1e-9);
    previous = d;
  }
}

TEST(SndInvariantsTest, EvolutionAttemptsRespectBudget) {
  Rng rng(8);
  const Graph g = RandomSymmetricGraph(200, 400, &rng);
  SyntheticEvolution evolution(&g, 9);
  const NetworkState base = evolution.InitialState(40);
  EvolutionParams params{1.0, 0.0, 25};  // Every attempt near actives fires.
  const NetworkState next = evolution.NextState(base, params);
  const int32_t changed = NetworkState::CountDiffering(base, next);
  EXPECT_LE(changed, 25);
  EXPECT_GT(changed, 0);
}

}  // namespace
}  // namespace snd
