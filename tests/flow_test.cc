#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "snd/flow/cost_scaling_solver.h"
#include "snd/flow/oracle_solver.h"
#include "snd/flow/simplex_solver.h"
#include "snd/flow/ssp_solver.h"
#include "snd/util/random.h"

namespace snd {
namespace {

TransportProblem MakeProblem(std::vector<double> supply,
                             std::vector<double> demand,
                             std::vector<double> cost) {
  return TransportProblem(std::move(supply), std::move(demand),
                          std::move(cost));
}

// A 2x2 instance with a provable optimum: with f11 = a the total cost is
// 14 - 2a, minimized at a = 2 giving cost 10.
TransportProblem KnownOptimumInstance() {
  return MakeProblem({2, 3}, {3, 2},
                     {1, 4,  //
                      2, 3});
}

// A larger textbook-style instance used for cross-solver agreement.
TransportProblem TextbookInstance() {
  return MakeProblem({20, 30, 25}, {10, 28, 27, 10},
                     {4, 5, 6, 8,    //
                      2, 3, 5, 7,    //
                      6, 4, 3, 2});
}

TEST(TransportProblemTest, BalanceEnforcedAndQueries) {
  const TransportProblem p = TextbookInstance();
  EXPECT_EQ(p.num_suppliers(), 3);
  EXPECT_EQ(p.num_consumers(), 4);
  EXPECT_DOUBLE_EQ(p.total_mass(), 75.0);
  EXPECT_DOUBLE_EQ(p.Cost(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(p.MaxCost(), 8.0);
  EXPECT_TRUE(p.HasIntegralCosts());
  EXPECT_TRUE(p.HasIntegralMasses());
}

TEST(TransportProblemTest, DetectsNonIntegralData) {
  const TransportProblem p =
      MakeProblem({1.5, 0.5}, {2.0}, {1.25, 2.0});
  EXPECT_FALSE(p.HasIntegralCosts());
  EXPECT_FALSE(p.HasIntegralMasses());
}

TEST(ValidatePlanTest, AcceptsGoodRejectsBad) {
  const TransportProblem p = MakeProblem({2}, {2}, {3});
  TransportPlan good;
  good.flows = {{0, 0, 2.0}};
  good.total_cost = 6.0;
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, good, &error)) << error;

  TransportPlan short_plan;
  short_plan.flows = {{0, 0, 1.0}};
  short_plan.total_cost = 3.0;
  EXPECT_FALSE(ValidatePlan(p, short_plan, &error));

  TransportPlan wrong_cost = good;
  wrong_cost.total_cost = 5.0;
  EXPECT_FALSE(ValidatePlan(p, wrong_cost, &error));
}

// The production simplex, its SSP fallback and the cost-scaling
// reference, for the tests that run every solver.
const SimplexSolver kSimplexSolver{};
const SspSolver kSspSolver{};
const CostScalingSolver kCostScalingSolver{};
const TransportSolver* const kAllSolvers[] = {
    &kSimplexSolver, &kSspSolver, &kCostScalingSolver};

// Parametrised by index into kAllSolvers so test names never carry a
// pointer value.
class AllSolversTest : public ::testing::TestWithParam<size_t> {
 protected:
  const TransportSolver* solver() const { return kAllSolvers[GetParam()]; }
};

TEST_P(AllSolversTest, SolvesKnownOptimumInstance) {
  const TransportProblem p = KnownOptimumInstance();
  const TransportPlan plan = solver()->Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  EXPECT_NEAR(plan.total_cost, 10.0, 1e-9);
}

TEST_P(AllSolversTest, TextbookInstanceValidAndAgreesWithSsp) {
  const TransportProblem p = TextbookInstance();
  const TransportPlan plan = solver()->Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  const double ssp = SspSolver().Solve(p).total_cost;
  EXPECT_NEAR(plan.total_cost, ssp, 1e-9);
}

TEST_P(AllSolversTest, SingleCell) {
  const TransportProblem p = MakeProblem({5}, {5}, {7});
  const TransportPlan plan = solver()->Solve(p);
  EXPECT_NEAR(plan.total_cost, 35.0, 1e-9);
}

TEST_P(AllSolversTest, ZeroCosts) {
  const TransportProblem p = MakeProblem({3, 2}, {1, 4}, {0, 0, 0, 0});
  const TransportPlan plan = solver()->Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  EXPECT_NEAR(plan.total_cost, 0.0, 1e-9);
}

TEST_P(AllSolversTest, ZeroMass) {
  const TransportProblem p = MakeProblem({0.0, 0.0}, {0.0}, {1, 2});
  const TransportPlan plan = solver()->Solve(p);
  EXPECT_TRUE(plan.flows.empty());
  EXPECT_DOUBLE_EQ(plan.total_cost, 0.0);
}

TEST_P(AllSolversTest, DegenerateSupplies) {
  // Several zero supplies / demands interleaved.
  const TransportProblem p =
      MakeProblem({0, 4, 0, 1}, {2, 0, 3}, {5, 5, 5,   //
                                            1, 9, 2,   //
                                            5, 5, 5,   //
                                            8, 1, 1});
  const TransportPlan plan = solver()->Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, plan, &error)) << error;
  // Supplier 1 ships 2 to consumer 0 (cost 2) and 2 to consumer 2 (cost 4),
  // supplier 3 ships 1 to consumer 2 (cost 1): total 7.
  EXPECT_NEAR(plan.total_cost, 7.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AllSolversTest,
    ::testing::Range<size_t>(0, std::size(kAllSolvers)),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = kAllSolvers[info.param]->name();
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// Cross-validation sweep: on random integral instances all three
// solvers agree with the exhaustive oracle.
class SolverCrossValidationTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverCrossValidationTest, AgreesWithOracleOnTinyInstances) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int32_t s = 1 + static_cast<int32_t>(rng.UniformInt(0, 2));
  const int32_t t = 1 + static_cast<int32_t>(rng.UniformInt(0, 2));
  const int32_t total = 1 + static_cast<int32_t>(rng.UniformInt(0, 6));
  std::vector<double> supply(static_cast<size_t>(s), 0.0);
  std::vector<double> demand(static_cast<size_t>(t), 0.0);
  for (int32_t k = 0; k < total; ++k) {
    supply[static_cast<size_t>(rng.UniformInt(0, s - 1))] += 1.0;
    demand[static_cast<size_t>(rng.UniformInt(0, t - 1))] += 1.0;
  }
  std::vector<double> cost(static_cast<size_t>(s) * static_cast<size_t>(t));
  for (auto& c : cost) c = static_cast<double>(rng.UniformInt(0, 20));
  const TransportProblem p(std::move(supply), std::move(demand),
                           std::move(cost));

  const double oracle = OracleSolver().Solve(p).total_cost;
  for (const TransportSolver* solver : kAllSolvers) {
    const TransportPlan plan = solver->Solve(p);
    std::string error;
    EXPECT_TRUE(ValidatePlan(p, plan, &error))
        << solver->name() << ": " << error;
    EXPECT_NEAR(plan.total_cost, oracle, 1e-9) << solver->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SolverCrossValidationTest,
                         ::testing::Range(0, 60));

// Larger randomized instances: the three solvers agree with
// each other (the oracle would be too slow).
class SolverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreementTest, ProductionSolversAgree) {
  Rng rng(500 + static_cast<uint64_t>(GetParam()));
  const int32_t s = 2 + static_cast<int32_t>(rng.UniformInt(0, 18));
  const int32_t t = 2 + static_cast<int32_t>(rng.UniformInt(0, 18));
  std::vector<double> supply(static_cast<size_t>(s));
  std::vector<double> demand(static_cast<size_t>(t), 0.0);
  double total = 0.0;
  for (auto& v : supply) {
    v = static_cast<double>(rng.UniformInt(0, 30));
    total += v;
  }
  // Spread the same total over the demands.
  double remaining = total;
  for (int32_t j = 0; j + 1 < t; ++j) {
    const double d = std::floor(rng.UniformReal() * remaining);
    demand[static_cast<size_t>(j)] = d;
    remaining -= d;
  }
  demand[static_cast<size_t>(t - 1)] = remaining;
  std::vector<double> cost(static_cast<size_t>(s) * static_cast<size_t>(t));
  for (auto& c : cost) c = static_cast<double>(rng.UniformInt(0, 50));
  const TransportProblem p(std::move(supply), std::move(demand),
                           std::move(cost));

  const double simplex = SimplexSolver().Solve(p).total_cost;
  const double ssp = SspSolver().Solve(p).total_cost;
  const double scaling = CostScalingSolver().Solve(p).total_cost;
  EXPECT_NEAR(simplex, ssp, 1e-6 * (1.0 + simplex));
  EXPECT_NEAR(simplex, scaling, 1e-6 * (1.0 + simplex));
}

INSTANTIATE_TEST_SUITE_P(Random, SolverAgreementTest, ::testing::Range(0, 40));

// Real-valued masses: simplex and SSP agree (cost-scaling requires
// integral data and is excluded).
class RealMassAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(RealMassAgreementTest, SimplexMatchesSsp) {
  Rng rng(900 + static_cast<uint64_t>(GetParam()));
  const int32_t s = 2 + static_cast<int32_t>(rng.UniformInt(0, 8));
  const int32_t t = 2 + static_cast<int32_t>(rng.UniformInt(0, 8));
  std::vector<double> supply(static_cast<size_t>(s));
  std::vector<double> demand(static_cast<size_t>(t), 0.0);
  double total = 0.0;
  for (auto& v : supply) {
    v = rng.UniformReal(0.0, 4.0);
    total += v;
  }
  double remaining = total;
  for (int32_t j = 0; j + 1 < t; ++j) {
    const double d = rng.UniformReal() * remaining;
    demand[static_cast<size_t>(j)] = d;
    remaining -= d;
  }
  demand[static_cast<size_t>(t - 1)] = remaining;
  std::vector<double> cost(static_cast<size_t>(s) * static_cast<size_t>(t));
  for (auto& c : cost) c = rng.UniformReal(0.0, 10.0);
  const TransportProblem p(std::move(supply), std::move(demand),
                           std::move(cost));

  const TransportPlan simplex = SimplexSolver().Solve(p);
  const TransportPlan ssp = SspSolver().Solve(p);
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, simplex, &error)) << "simplex: " << error;
  EXPECT_TRUE(ValidatePlan(p, ssp, &error)) << "ssp: " << error;
  EXPECT_NEAR(simplex.total_cost, ssp.total_cost,
              1e-6 * (1.0 + simplex.total_cost));
}

INSTANTIATE_TEST_SUITE_P(Random, RealMassAgreementTest,
                         ::testing::Range(0, 40));

// EMD*-shaped reduced problem as the SND fast path builds it with per-bin
// banks: unit suppliers against `consumers` unit-demand bins plus a block
// of `banks` equal fractional capacities mismatch / banks (how
// ComputeBankCapacities apportions a mismatch over per-bin banks). Costs
// are small integers with many ties plus a few disconnection-sized
// entries (U * n). `transpose` puts the banks on the supply side, as for
// terms whose source histogram is the lighter one.
TransportProblem EmdStarShapedProblem(uint64_t seed, int32_t consumers,
                                      bool transpose) {
  Rng rng(seed);
  const auto mismatch = static_cast<int32_t>(rng.UniformInt(1, consumers / 2));
  const auto banks = static_cast<int32_t>(rng.UniformInt(1, consumers / 2));
  const int32_t rows = consumers + mismatch;
  const int32_t cols = consumers + banks;
  std::vector<double> unit(static_cast<size_t>(rows), 1.0);
  std::vector<double> mixed(static_cast<size_t>(consumers), 1.0);
  mixed.resize(static_cast<size_t>(cols),
               mismatch / static_cast<double>(banks));
  constexpr double kDisconnection = 1024.0 * 6000.0;
  std::vector<double> cost(static_cast<size_t>(rows) * cols);
  for (auto& c : cost) {
    c = rng.UniformInt(0, 199) == 0
            ? kDisconnection
            : static_cast<double>(rng.UniformInt(1, 8));
  }
  if (!transpose) {
    return TransportProblem(std::move(unit), std::move(mixed), std::move(cost));
  }
  std::vector<double> cost_t(cost.size());
  for (int32_t r = 0; r < rows; ++r) {
    for (int32_t c = 0; c < cols; ++c) {
      cost_t[static_cast<size_t>(c) * rows + r] =
          cost[static_cast<size_t>(r) * cols + c];
    }
  }
  return TransportProblem(std::move(mixed), std::move(unit), std::move(cost_t));
}

void ExpectSimplexMatchesSsp(const TransportProblem& p) {
  const TransportPlan simplex = SimplexSolver().Solve(p);
  const double ssp = SspSolver().Solve(p).total_cost;
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, simplex, &error)) << error;
  EXPECT_NEAR(simplex.total_cost, ssp, 1e-9 * (1.0 + std::abs(ssp)));
}

class EmdStarShapedAgreementTest : public ::testing::TestWithParam<int> {};

// Two seeds per (size, orientation): params 4-7 and 12-15 are transposed.
TEST_P(EmdStarShapedAgreementTest, SimplexMatchesSsp) {
  const int32_t consumers = std::vector<int32_t>{50, 100, 200, 400}
      [static_cast<size_t>(GetParam() % 4)];
  ExpectSimplexMatchesSsp(
      EmdStarShapedProblem(1700 + static_cast<uint64_t>(GetParam()),
                           consumers, (GetParam() / 4) % 2 == 1));
}

INSTANTIATE_TEST_SUITE_P(Random, EmdStarShapedAgreementTest,
                         ::testing::Range(0, 16));

// The integral-scaled form of the same shape (masses multiplied by the
// bank count L: unit supplier = L, bank = mismatch, consumer = L) with
// every cost 1 or 2, so nearly every pivot is degenerate and the
// strongly feasible leaving rule is what keeps the simplex from cycling.
// Cost-scaling solves the integral instance exactly and is the reference.
class TiedCostBankAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(TiedCostBankAgreementTest, SimplexMatchesCostScaling) {
  Rng rng(2000 + static_cast<uint64_t>(GetParam()));
  const auto units = static_cast<int32_t>(rng.UniformInt(1, 40));
  const auto mismatch = static_cast<int32_t>(rng.UniformInt(1, 20));
  const auto banks = static_cast<int32_t>(rng.UniformInt(1, 20));
  const int32_t consumers = units + mismatch;
  std::vector<double> supply(static_cast<size_t>(units),
                             static_cast<double>(banks));
  supply.resize(static_cast<size_t>(units + banks),
                static_cast<double>(mismatch));
  std::vector<double> demand(static_cast<size_t>(consumers),
                             static_cast<double>(banks));
  std::vector<double> cost(supply.size() * demand.size());
  for (auto& c : cost) c = static_cast<double>(rng.UniformInt(1, 2));
  const TransportProblem p(std::move(supply), std::move(demand),
                           std::move(cost));

  const TransportPlan simplex = SimplexSolver().Solve(p);
  const double reference = CostScalingSolver().Solve(p).total_cost;
  std::string error;
  EXPECT_TRUE(ValidatePlan(p, simplex, &error)) << error;
  EXPECT_NEAR(simplex.total_cost, reference, 1e-9 * (1.0 + reference));
}

INSTANTIATE_TEST_SUITE_P(Random, TiedCostBankAgreementTest,
                         ::testing::Range(0, 12));

TEST(EmdStarShapedEdgeTest, SingleRowSingleColumnAndZeroCosts) {
  // 1 x T: one supplier feeds unit consumers and fractional banks.
  ExpectSimplexMatchesSsp(MakeProblem(
      {5.0}, {1, 1, 1, 2.0 / 3, 2.0 / 3, 2.0 / 3}, {3, 1, 8, 1, 1, 6}));
  // S x 1: unit suppliers and fractional banks drain into one bin.
  ExpectSimplexMatchesSsp(MakeProblem({1, 1, 0.25, 0.25, 0.25, 0.25}, {3.0},
                                      {2, 7, 1, 1, 4, 4}));
  // All-zero costs: every plan is optimal at cost 0.
  const TransportProblem p = EmdStarShapedProblem(1800, 60, false);
  std::vector<double> zeros(p.costs().size(), 0.0);
  const TransportProblem z(p.supplies(), p.demands(), std::move(zeros));
  ExpectSimplexMatchesSsp(z);
  EXPECT_EQ(SimplexSolver().Solve(z).total_cost, 0.0);
}

// One solver shared by four threads on distinct problems returns, bit for
// bit, the totals of serial solves.
TEST(SimplexConcurrencyTest, SharedSolverMatchesSerialBitwise) {
  const SimplexSolver solver;
  std::vector<TransportProblem> problems;
  std::vector<double> serial;
  for (int k = 0; k < 4; ++k) {
    problems.push_back(
        EmdStarShapedProblem(1900 + static_cast<uint64_t>(k), 120, k % 2 == 1));
    serial.push_back(solver.Solve(problems.back()).total_cost);
  }
  std::vector<double> concurrent(problems.size(), 0.0);
  std::vector<std::thread> threads;
  for (size_t k = 0; k < problems.size(); ++k) {
    threads.emplace_back([&, k] {
      for (int rep = 0; rep < 3; ++rep) {
        concurrent[k] = solver.Solve(problems[k]).total_cost;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t k = 0; k < problems.size(); ++k) {
    EXPECT_EQ(concurrent[k], serial[k]) << "problem " << k;
  }
}

}  // namespace
}  // namespace snd
