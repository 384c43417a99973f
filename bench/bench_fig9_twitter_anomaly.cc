// Figure 9: anomaly detection on the (simulated) Twitter political
// dataset, topic "Obama", May 2008 - August 2011.
//
// Paper observation: consensus events (election, bin Laden) spike every
// distance measure; polarized events (Economic Stimulus Bill, Obama Care)
// are flagged by SND while coordinate-wise measures stay flat. The real
// tweets are not redistributable; data::TwitterSim regenerates the
// dataset's published statistics with planted events (data/twitter_sim.h
// lists what it matches).
#include <cstdio>

#include "bench_common.h"
#include "snd/analysis/anomaly.h"
#include "snd/baselines/baselines.h"
#include "snd/core/snd.h"
#include "snd/data/twitter_sim.h"
#include "snd/util/stats.h"
#include "snd/util/stopwatch.h"
#include "snd/util/table.h"

int main() {
  using snd::bench::FullScale;
  snd::bench::PrintHeader(
      "Figure 9 - anomalies on the simulated Twitter dataset",
      "Quarterly distances with Google-Trends-like interest and events.");

  snd::TwitterSimOptions options;
  if (FullScale()) {
    options.num_users = 10000;
    options.avg_degree = 130.0;
  } else {
    options.num_users = 2500;
    options.avg_degree = 30.0;
  }
  const snd::TwitterDataset data = snd::GenerateTwitterDataset(options);
  std::printf("dataset: %d users, %lld edges, %zu quarters\n\n",
              data.graph.num_nodes(),
              static_cast<long long>(data.graph.num_edges()),
              data.states.size());

  const snd::SndCalculator calculator(&data.graph, snd::SndOptions{});
  const snd::BaselineDistances baselines(&data.graph);
  struct Method {
    const char* name;
    snd::BatchDistanceFn fn;
  };
  // Every series evaluates through the batch engine: SND natively
  // (cached edge costs, parallel over transitions), the baselines lifted
  // onto the shared pool.
  const Method methods[] = {
      {"SND", calculator.BatchFn()},
      {"hamming", snd::BatchFromPointwise(
                      [&](const snd::NetworkState& a,
                          const snd::NetworkState& b) {
                        return baselines.Hamming(a, b);
                      })},
      {"walk-dist", snd::BatchFromPointwise(
                        [&](const snd::NetworkState& a,
                            const snd::NetworkState& b) {
                          return baselines.WalkDist(a, b);
                        })},
      {"quad-form", snd::BatchFromPointwise(
                        [&](const snd::NetworkState& a,
                            const snd::NetworkState& b) {
                          return baselines.QuadForm(a, b);
                        })},
  };

  snd::Stopwatch watch;
  std::vector<std::vector<double>> scaled;
  for (const Method& method : methods) {
    scaled.push_back(snd::MinMaxScale(snd::NormalizeByActiveUsers(
        snd::AdjacentDistances(data.states, method.fn), data.states)));
  }

  snd::TablePrinter table({"quarter", "interest", "SND", "hamming",
                           "walk-dist", "quad-form", "event"});
  for (size_t t = 0; t < scaled[0].size(); ++t) {
    std::string event_name;
    for (const snd::TwitterEvent& event : data.events) {
      if (static_cast<size_t>(event.quarter) == t) {
        event_name = event.name + std::string(" [") +
                     snd::EventKindName(event.kind) + "]";
      }
    }
    table.AddRow({data.quarter_labels[t + 1],
                  snd::TablePrinter::Fmt(data.interest[t + 1], 2),
                  snd::TablePrinter::Fmt(scaled[0][t], 3),
                  snd::TablePrinter::Fmt(scaled[1][t], 3),
                  snd::TablePrinter::Fmt(scaled[2][t], 3),
                  snd::TablePrinter::Fmt(scaled[3][t], 3), event_name});
  }
  table.Print();

  // The Fig. 9 claim in numbers: consensus events spike every measure;
  // polarized events spike SND but not the coordinate-wise measures.
  // Scored locally (anomaly score S_t), as the figure's visual spikes.
  std::printf("\nmean anomaly score S_t by event kind:\n");
  for (size_t m = 0; m < scaled.size(); ++m) {
    const auto scores = snd::AnomalyScores(scaled[m]);
    double consensus = 0.0, polarized = 0.0, normal = 0.0;
    int32_t nc = 0, np = 0, nn = 0;
    for (size_t t = 0; t < scores.size(); ++t) {
      const snd::TwitterEvent* event = nullptr;
      for (const snd::TwitterEvent& e : data.events) {
        if (static_cast<size_t>(e.quarter) == t) event = &e;
      }
      if (event == nullptr) {
        normal += scores[t];
        ++nn;
      } else if (event->kind == snd::EventKind::kConsensus) {
        consensus += scores[t];
        ++nc;
      } else {
        polarized += scores[t];
        ++np;
      }
    }
    std::printf(
        "  %-10s consensus=%+.3f polarized=%+.3f normal=%+.3f\n",
        methods[m].name, nc ? consensus / nc : 0.0,
        np ? polarized / np : 0.0, nn ? normal / nn : 0.0);
  }
  std::printf("\ntotal time: %.1f s\n", watch.ElapsedSeconds());
  return 0;
}
