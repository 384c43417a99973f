// Theorem 2 (ablation): EMDalpha and EMDhat coincide whenever both are
// metric (D metric, alpha >= 0.5) - and can differ when alpha < 0.5.
// Verified numerically over random metric ground distances and random
// histograms.
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "snd/emd/emd_variants.h"
#include "snd/flow/simplex_solver.h"
#include "snd/graph/generators.h"
#include "snd/paths/sssp_engine.h"
#include "snd/util/random.h"
#include "snd/util/table.h"

namespace {

snd::DenseMatrix RandomMetric(int32_t n, snd::Rng* rng) {
  snd::Graph g = snd::GenerateRing(n, 2);
  std::vector<int32_t> costs(static_cast<size_t>(g.num_edges()), 1);
  for (int32_t u = 0; u < g.num_nodes(); ++u) {
    for (int64_t e = g.OutEdgeBegin(u); e < g.OutEdgeEnd(u); ++e) {
      const int32_t v = g.EdgeTarget(e);
      if (u < v) {
        const auto c = static_cast<int32_t>(rng->UniformInt(1, 9));
        costs[static_cast<size_t>(e)] = c;
        costs[static_cast<size_t>(g.FindEdge(v, u))] = c;
      }
    }
  }
  snd::DenseMatrix d(n, n, 0.0);
  const std::unique_ptr<snd::SsspEngine> engine = snd::MakeSsspEngine(
      snd::SsspBackend::kAuto, n, /*max_edge_cost=*/9);
  for (int32_t u = 0; u < n; ++u) {
    const snd::SsspSource source{u, 0};
    const std::span<const int64_t> dist =
        engine->Run(g, costs, std::span<const snd::SsspSource>(&source, 1),
                    snd::SsspGoal::AllNodes());
    for (int32_t v = 0; v < n; ++v) {
      d.Set(u, v, static_cast<double>(dist[static_cast<size_t>(v)]));
    }
  }
  return d;
}

}  // namespace

int main() {
  snd::bench::PrintHeader(
      "Theorem 2 - numerical equivalence of EMDalpha and EMDhat",
      "Max relative deviation over random instances, by alpha.");

  const int32_t trials = snd::bench::FullScale() ? 500 : 150;
  snd::Rng rng(71);
  const snd::SimplexSolver solver;

  snd::TablePrinter table(
      {"alpha", "max |EMDalpha-EMDhat| / (1+EMDhat)", "instances equal"});
  for (double alpha : {0.25, 0.5, 0.75, 1.0, 2.0}) {
    double max_dev = 0.0;
    int32_t equal = 0;
    for (int32_t t = 0; t < trials; ++t) {
      const int32_t bins = 4 + static_cast<int32_t>(rng.UniformInt(0, 8));
      const snd::DenseMatrix d = RandomMetric(bins, &rng);
      std::vector<double> p(static_cast<size_t>(bins), 0.0);
      std::vector<double> q(static_cast<size_t>(bins), 0.0);
      const auto mp = 1 + rng.UniformInt(0, 14);
      const auto mq = 1 + rng.UniformInt(0, 14);
      for (int64_t k = 0; k < mp; ++k) {
        p[static_cast<size_t>(rng.UniformInt(0, bins - 1))] += 1.0;
      }
      for (int64_t k = 0; k < mq; ++k) {
        q[static_cast<size_t>(rng.UniformInt(0, bins - 1))] += 1.0;
      }
      const double a = snd::ComputeEmdAlpha(p, q, d, alpha, solver);
      const double h = snd::ComputeEmdHat(p, q, d, alpha, solver);
      const double dev = std::abs(a - h) / (1.0 + h);
      max_dev = std::max(max_dev, dev);
      if (dev <= 1e-9) ++equal;
    }
    char count[32];
    std::snprintf(count, sizeof(count), "%d / %d", equal, trials);
    table.AddRow({snd::TablePrinter::Fmt(alpha, 2),
                  snd::TablePrinter::Fmt(max_dev, 10), count});
  }
  table.Print();
  std::printf(
      "\nexpected: zero deviation for alpha >= 0.5 (Theorem 2); the "
      "alpha = 0.25 row shows\nthe bank shortcut breaking the equality "
      "once metricity is lost.\n");
  return 0;
}
