// Comparing the three opinion-propagation cost models (Section 3, item
// iii) on the same pair of network states: model-agnostic penalties,
// Independent Cascade with Competition, and competitive Linear Threshold.
//
//   ./model_comparison
#include <cstdio>

#include "snd/core/snd.h"
#include "snd/graph/generators.h"
#include "snd/opinion/evolution.h"
#include "snd/util/table.h"

int main() {
  snd::Rng rng(5);
  snd::ScaleFreeOptions graph_options;
  graph_options.num_nodes = 1200;
  graph_options.avg_degree = 8.0;
  const snd::Graph graph = snd::GenerateScaleFree(graph_options, &rng);

  snd::SyntheticEvolution evolution(&graph, 6);
  const snd::NetworkState before = evolution.InitialState(100);
  const snd::NetworkState after =
      evolution.NextState(before, {0.15, 0.02});

  std::printf("n_delta = %d users changed opinion\n\n",
              snd::NetworkState::CountDiffering(before, after));

  snd::TablePrinter models({"ground-distance model", "SND", "seconds"});
  for (snd::GroundModelKind kind :
       {snd::GroundModelKind::kModelAgnostic,
        snd::GroundModelKind::kIndependentCascade,
        snd::GroundModelKind::kLinearThreshold}) {
    snd::SndOptions options;
    options.model = kind;
    const snd::SndCalculator calculator(&graph, options);
    const snd::SndResult result = calculator.Compute(before, after);
    models.AddRow({snd::GroundModelKindName(kind),
                   snd::TablePrinter::Fmt(result.value, 2),
                   snd::TablePrinter::Fmt(result.total_seconds, 4)});
  }
  models.Print();
  return 0;
}
