// Microbenchmark (google-benchmark): the three transportation solvers on
// the reduced problem the SND fast path builds with per-bin banks - 300
// bank rows sharing the mismatch equally against 200 / 400 / 800
// unit-demand consumers, with small tied integer costs (hop distances
// plus a bank gamma). Masses are scaled by the bank count L so the
// instance is integral (bank supply = mismatch, consumer demand = L) and
// cost-scaling can run; the optimum is L times the real-valued one.
#include <benchmark/benchmark.h>

#include "snd/flow/cost_scaling_solver.h"
#include "snd/flow/simplex_solver.h"
#include "snd/flow/ssp_solver.h"
#include "snd/util/random.h"

namespace {

constexpr int32_t kBanks = 300;

snd::TransportProblem MakeInstance(int32_t consumers, uint64_t seed) {
  snd::Rng rng(seed);
  std::vector<double> supply(static_cast<size_t>(kBanks),
                             static_cast<double>(consumers));
  std::vector<double> demand(static_cast<size_t>(consumers),
                             static_cast<double>(kBanks));
  std::vector<double> cost(static_cast<size_t>(kBanks) *
                           static_cast<size_t>(consumers));
  for (auto& c : cost) c = static_cast<double>(rng.UniformInt(1, 12));
  return snd::TransportProblem(std::move(supply), std::move(demand),
                               std::move(cost));
}

void RunSolver(benchmark::State& state, const snd::TransportSolver& solver) {
  const auto consumers = static_cast<int32_t>(state.range(0));
  const snd::TransportProblem problem = MakeInstance(consumers, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(problem).total_cost);
  }
  state.SetLabel("banks=" + std::to_string(kBanks) +
                 " consumers=" + std::to_string(consumers));
}

void BM_Simplex(benchmark::State& state) {
  RunSolver(state, snd::SimplexSolver());
}
void BM_Ssp(benchmark::State& state) {
  RunSolver(state, snd::SspSolver());
}
void BM_CostScaling(benchmark::State& state) {
  RunSolver(state, snd::CostScalingSolver());
}

}  // namespace

BENCHMARK(BM_Simplex)->Arg(200)->Arg(400)->Arg(800)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_Ssp)->Arg(200)->Arg(400)->Arg(800)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_CostScaling)->Arg(200)->Arg(400)->Arg(800)->Unit(
    benchmark::kMillisecond);
