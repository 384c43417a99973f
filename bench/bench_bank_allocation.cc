// Ablation: EMD* bank-allocation strategies (BankStrategy in
// core/snd_options.h).
//
// The same planted anomaly-detection task is solved with the three bank
// strategies. A single global bank is location-blind (EMDalpha behavior),
// per-cluster banks are flat within each community, per-bin banks price a
// new activation by its transport distance from existing same-opinion
// mass - the separation column quantifies the difference, and the timing
// column shows what the finer allocations cost.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "snd/analysis/anomaly.h"
#include "snd/core/snd.h"
#include "snd/graph/generators.h"
#include "snd/opinion/evolution.h"
#include "snd/util/stats.h"
#include "snd/util/stopwatch.h"
#include "snd/util/table.h"

int main() {
  using snd::bench::FullScale;
  snd::bench::PrintHeader(
      "Ablation - EMD* bank allocation strategies",
      "Anomaly separation and cost per strategy on the same series.");

  const int32_t num_nodes = FullScale() ? 10000 : 3000;
  snd::Rng rng(81);
  snd::ScaleFreeOptions graph_options;
  graph_options.num_nodes = num_nodes;
  graph_options.exponent = -2.3;
  graph_options.avg_degree = 8.0;
  const snd::Graph graph = snd::GenerateScaleFree(graph_options, &rng);

  const std::vector<int32_t> anomalous_steps{5, 10, 15};
  snd::SyntheticEvolution evolution(&graph, 82);
  const int32_t attempts = num_nodes / 5;
  const auto series = evolution.GenerateSeries(
      20, num_nodes / 5, {0.10, 0.01, attempts}, {0.05, 0.045, attempts},
      anomalous_steps);

  snd::TablePrinter table({"bank strategy", "anomalous mean",
                           "normal mean", "separation", "seconds"});
  for (snd::BankStrategy strategy :
       {snd::BankStrategy::kSingleGlobal, snd::BankStrategy::kPerCluster,
        snd::BankStrategy::kPerBin}) {
    snd::SndOptions options;
    options.bank_strategy = strategy;
    const snd::SndCalculator calculator(&graph, options);
    snd::Stopwatch watch;
    const auto scaled = snd::MinMaxScale(snd::NormalizeByActiveUsers(
        snd::AdjacentDistances(
            series,
            [&](const snd::NetworkState& a, const snd::NetworkState& b) {
              return calculator.Distance(a, b);
            }),
        series));
    const double seconds = watch.ElapsedSeconds();

    double anom = 0.0, norm = 0.0;
    int32_t na = 0, nn = 0;
    for (size_t t = 0; t < scaled.size(); ++t) {
      const bool anomalous =
          std::find(anomalous_steps.begin(), anomalous_steps.end(),
                    static_cast<int32_t>(t) + 1) != anomalous_steps.end();
      if (anomalous) {
        anom += scaled[t];
        ++na;
      } else {
        norm += scaled[t];
        ++nn;
      }
    }
    table.AddRow({snd::BankStrategyName(strategy),
                  snd::TablePrinter::Fmt(anom / na, 3),
                  snd::TablePrinter::Fmt(norm / nn, 3),
                  snd::TablePrinter::Fmt((anom / na) /
                                             std::max(1e-9, norm / nn),
                                         2),
                  snd::TablePrinter::Fmt(seconds, 2)});
  }
  table.Print();
  return 0;
}
