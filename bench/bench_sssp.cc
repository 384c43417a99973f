// SSSP engine comparison on the integer-cost ground-distance graphs of
// Assumption 2: binary-heap Dijkstra vs Dial's bucket queue (the stand-in
// for the radix-heap Dijkstra in Theorem 4's complexity bound) vs
// delta-stepping vs the kAuto resolution, swept over the edge-cost bound
// U to locate the crossover, plus a U x n delta-stepping sweep, the
// target-pruned vs full-search speedup that the reduced SND
// transportation problem exploits, and the multi-lane Dial sweep that
// runs up to 32 of a term's searches at once on int16 lanes. Every
// engine runs on one thread, so the pool size does not enter.
//
// Emits BENCH_METRIC lines (scraped into the bench-all JSON) that
// tools/check_perf_budget.py compares against bench/budgets.json:
//   sssp.ms.n{n}.u{U}.{backend}.t1           mean ms per full search
//   sssp.speedup.delta.t1.n{n}.u{U}          Dijkstra ms / delta ms
//   sssp.speedup.dial.n{n}.u{U}              Dijkstra ms / Dial ms
//   sssp.speedup.pruned.{backend}.k{k}       full ms / pruned ms with k
//                                            targets
//   sssp.speedup.lanes32.n{n}.u{U}           32 DialEngine searches ms /
//                                            one 32-lane DialLaneEngine
//                                            sweep ms, same sources
//   sssp.lanes.sweep_per_pruned.k{k}         one k-lane sweep ms / one
//                                            64-target pruned DialEngine
//                                            search ms (U=33)
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "snd/graph/generators.h"
#include "snd/paths/dial_lanes.h"
#include "snd/paths/sssp_engine.h"
#include "snd/util/random.h"
#include "snd/util/stopwatch.h"
#include "snd/util/table.h"

namespace {

struct Instance {
  snd::Graph graph;
  std::vector<int32_t> costs;
};

Instance MakeInstance(int32_t n, int32_t max_cost, snd::Rng* rng) {
  snd::ScaleFreeOptions options;
  options.num_nodes = n;
  options.avg_degree = 10.0;
  Instance instance;
  instance.graph = snd::GenerateScaleFree(options, rng);
  instance.costs.resize(static_cast<size_t>(instance.graph.num_edges()));
  for (auto& c : instance.costs) {
    c = static_cast<int32_t>(rng->UniformInt(1, max_cost));
  }
  return instance;
}

// Mean milliseconds per full search over `searches` distinct sources.
// `sink` accumulates a distance so the searches cannot be optimized away.
double TimeFull(snd::SsspEngine* engine, const Instance& instance,
                int32_t searches, int64_t* sink) {
  snd::Stopwatch watch;
  for (int32_t s = 0; s < searches; ++s) {
    const snd::SsspSource source{s % instance.graph.num_nodes(), 0};
    const auto dist = engine->Run(
        instance.graph, instance.costs,
        std::span<const snd::SsspSource>(&source, 1), snd::SsspGoal::AllNodes());
    // XOR: distances can be kUnreachableDistance, so summing would overflow.
    *sink ^= dist[static_cast<size_t>(instance.graph.num_nodes() - 1)];
  }
  return watch.ElapsedMillis() / searches;
}

double TimePruned(snd::SsspEngine* engine, const Instance& instance,
                  const std::vector<int32_t>& targets, int32_t searches,
                  int64_t* sink) {
  const snd::SsspGoal goal = snd::SsspGoal::SettleTargets(targets);
  snd::Stopwatch watch;
  for (int32_t s = 0; s < searches; ++s) {
    const snd::SsspSource source{s % instance.graph.num_nodes(), 0};
    const auto dist =
        engine->Run(instance.graph, instance.costs,
                    std::span<const snd::SsspSource>(&source, 1), goal);
    *sink ^= dist[static_cast<size_t>(targets.front())];
  }
  return watch.ElapsedMillis() / searches;
}

}  // namespace

int main() {
  snd::bench::PrintHeader(
      "SSSP engine comparison - Dijkstra vs Dial vs delta-stepping",
      "Mean ms/search over the edge-cost bound U (Assumption 2), a "
      "U x n delta-stepping sweep, and the target-pruned speedup of the "
      "reduced problem's row searches.");

  const bool full = snd::bench::FullScale();
  const int32_t n = full ? 50000 : 10000;
  const int32_t searches = full ? 100 : 30;
  snd::Rng rng(113);
  snd::Stopwatch total;
  int64_t sink = 0;
  char name[96];

  std::printf("n=%d, searches per cell=%d\n\n", n, searches);

  snd::TablePrinter table(
      {"U", "dijkstra ms", "dial ms", "auto backend", "auto ms", "winner"});
  int32_t crossover = -1;  // Smallest swept U where Dijkstra wins.
  for (const int32_t max_cost : {1, 4, 16, 64, 256, 1024, 4096}) {
    const Instance instance = MakeInstance(n, max_cost, &rng);
    snd::DijkstraEngine dijkstra(n);
    snd::DialEngine dial(n, max_cost);
    const std::unique_ptr<snd::SsspEngine> auto_engine =
        snd::MakeSsspEngine(snd::SsspBackend::kAuto, n, max_cost);
    const double dijkstra_ms = TimeFull(&dijkstra, instance, searches, &sink);
    const double dial_ms = TimeFull(&dial, instance, searches, &sink);
    const double auto_ms = TimeFull(auto_engine.get(), instance, searches,
                                    &sink);
    const bool dial_wins = dial_ms < dijkstra_ms;
    if (!dial_wins && crossover < 0) crossover = max_cost;
    if (dial_ms > 0) {
      std::snprintf(name, sizeof(name), "sssp.speedup.dial.n%d.u%d", n,
                    max_cost);
      snd::bench::PrintMetric(name, dijkstra_ms / dial_ms);
    }
    table.AddRow({snd::TablePrinter::Fmt(static_cast<int64_t>(max_cost)),
                  snd::TablePrinter::Fmt(dijkstra_ms, 3),
                  snd::TablePrinter::Fmt(dial_ms, 3), auto_engine->name(),
                  snd::TablePrinter::Fmt(auto_ms, 3),
                  dial_wins ? "dial" : "dijkstra"});
  }
  table.Print();
  if (crossover >= 0) {
    std::printf("\ncrossover: Dijkstra overtakes Dial at U=%d (n=%d)\n",
                crossover, n);
  } else {
    std::printf("\ncrossover: none within sweep - Dial wins up to U=4096\n");
  }

  // Delta-stepping sweep: U x n against Dijkstra. Large U is delta's
  // home turf (outside the Dial regime).
  std::printf("\ndelta-stepping sweep (baseline: dijkstra)\n");
  const std::vector<int32_t> sweep_ns =
      full ? std::vector<int32_t>{50000} : std::vector<int32_t>{10000, 30000};
  snd::TablePrinter sweep(
      {"n", "U", "dijkstra ms", "delta ms", "delta speedup"});
  for (const int32_t sweep_n : sweep_ns) {
    for (const int32_t max_cost : {64, 4096, 1 << 20}) {
      const Instance instance = MakeInstance(sweep_n, max_cost, &rng);
      snd::DijkstraEngine dijkstra(sweep_n);
      snd::DeltaSteppingEngine delta(sweep_n, max_cost);
      const double dijkstra_ms =
          TimeFull(&dijkstra, instance, searches, &sink);
      const double delta_ms = TimeFull(&delta, instance, searches, &sink);
      const double speedup = delta_ms > 0 ? dijkstra_ms / delta_ms : 0.0;
      std::snprintf(name, sizeof(name), "sssp.ms.n%d.u%d.dijkstra.t1",
                    sweep_n, max_cost);
      snd::bench::PrintMetric(name, dijkstra_ms);
      std::snprintf(name, sizeof(name), "sssp.ms.n%d.u%d.delta.t1", sweep_n,
                    max_cost);
      snd::bench::PrintMetric(name, delta_ms);
      std::snprintf(name, sizeof(name), "sssp.speedup.delta.t1.n%d.u%d",
                    sweep_n, max_cost);
      snd::bench::PrintMetric(name, speedup);
      sweep.AddRow({snd::TablePrinter::Fmt(static_cast<int64_t>(sweep_n)),
                    snd::TablePrinter::Fmt(static_cast<int64_t>(max_cost)),
                    snd::TablePrinter::Fmt(dijkstra_ms, 3),
                    snd::TablePrinter::Fmt(delta_ms, 3),
                    snd::TablePrinter::Fmt(speedup, 2)});
    }
  }
  sweep.Print();

  // Target-pruned vs full searches at the paper-like U=64: targets mimic
  // the reduced problem's consumer set. The saving is the tail of the
  // search past the farthest target, so it grows as the target set
  // shrinks (a search with k random targets settles ~ k/(k+1) of the
  // reachable nodes before the last one).
  const int32_t pruned_u = 64;
  const Instance instance = MakeInstance(n, pruned_u, &rng);
  snd::DijkstraEngine dijkstra(n);
  snd::DialEngine dial(n, pruned_u);
  const double dijkstra_full = TimeFull(&dijkstra, instance, searches, &sink);
  const double dial_full = TimeFull(&dial, instance, searches, &sink);
  for (const int32_t num_targets : {1, 8, 64}) {
    std::vector<int32_t> targets;
    for (int32_t k = 0; k < num_targets; ++k) {
      targets.push_back(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
    }
    const double dijkstra_pruned =
        TimePruned(&dijkstra, instance, targets, searches, &sink);
    const double dial_pruned =
        TimePruned(&dial, instance, targets, searches, &sink);
    if (dijkstra_pruned > 0) {
      std::snprintf(name, sizeof(name), "sssp.speedup.pruned.dijkstra.k%d",
                    num_targets);
      snd::bench::PrintMetric(name, dijkstra_full / dijkstra_pruned);
    }
    if (dial_pruned > 0) {
      std::snprintf(name, sizeof(name), "sssp.speedup.pruned.dial.k%d",
                    num_targets);
      snd::bench::PrintMetric(name, dial_full / dial_pruned);
    }
    std::printf(
        "pruned vs full (U=%d, %d targets): dijkstra %.3f -> %.3f ms "
        "(x%.2f), dial %.3f -> %.3f ms (x%.2f)\n",
        pruned_u, num_targets, dijkstra_full, dijkstra_pruned,
        dijkstra_pruned > 0 ? dijkstra_full / dijkstra_pruned : 0.0,
        dial_full, dial_pruned,
        dial_pruned > 0 ? dial_full / dial_pruned : 0.0);
  }

  // 32 full searches as one DialLaneEngine sweep vs one at a time with
  // DialEngine, at the SND default model's U (33). The sweep scans each
  // node's arcs once for all lanes in 16-byte vector words; a build that
  // lowers those words to scalar code runs it slower than the singles.
  const int32_t lanes_u = 33;
  constexpr int32_t kLanes = snd::DialLaneEngine::kMaxLanes;
  const Instance lanes_instance = MakeInstance(n, lanes_u, &rng);
  snd::DialEngine single(n, lanes_u);
  snd::DialLaneEngine lanes(n, lanes_u);
  const int32_t rounds = 4;
  std::vector<int32_t> nodes(kLanes);
  std::vector<std::span<const int32_t>> lane_sources;
  for (const int32_t& node : nodes) lane_sources.emplace_back(&node, 1);
  auto draw_nodes = [&] {
    for (int32_t& node : nodes) {
      node = static_cast<int32_t>(rng.UniformInt(0, n - 1));
    }
  };
  double singles_ms = 0.0, batch_ms = 0.0;
  for (int32_t r = 0; r < rounds; ++r) {
    draw_nodes();
    snd::Stopwatch single_watch;
    for (const int32_t node : nodes) {
      const snd::SsspSource source{node, 0};
      const auto dist = single.Run(
          lanes_instance.graph, lanes_instance.costs,
          std::span<const snd::SsspSource>(&source, 1),
          snd::SsspGoal::AllNodes());
      sink ^= dist[static_cast<size_t>(n - 1)];
    }
    singles_ms += single_watch.ElapsedMillis();
    snd::Stopwatch watch;
    lanes.Run(lanes_instance.graph, lanes_instance.costs, lane_sources);
    batch_ms += watch.ElapsedMillis();
    sink ^= lanes.Distance(kLanes - 1, n - 1);
  }
  if (batch_ms > 0) {
    std::snprintf(name, sizeof(name), "sssp.speedup.lanes32.n%d.u%d", n,
                  lanes_u);
    snd::bench::PrintMetric(name, singles_ms / batch_ms);
  }
  std::printf(
      "\n32-lane sweep vs 32 dial searches (U=%d, %d rounds): %.3f -> %.3f "
      "ms (x%.2f)\n",
      lanes_u, rounds, singles_ms / rounds, batch_ms / rounds,
      batch_ms > 0 ? singles_ms / batch_ms : 0.0);

  // What a k-lane sweep costs in target-pruned single searches, the
  // alternative SndCalculator weighs it against: a term's searches each
  // settle the opposite side of its reduced problem (64 random targets
  // here). A sweep pays off once it carries more lanes than this ratio.
  std::vector<int32_t> term_targets;
  for (int32_t k = 0; k < 64; ++k) {
    term_targets.push_back(static_cast<int32_t>(rng.UniformInt(0, n - 1)));
  }
  const double pruned_ms =
      TimePruned(&single, lanes_instance, term_targets, searches, &sink);
  snd::TablePrinter sweeps({"lanes", "sweep ms", "pruned searches"});
  for (const int32_t k : {1, 4, 8, 16, 32}) {
    double sweep_ms = 0.0;
    for (int32_t r = 0; r < rounds; ++r) {
      draw_nodes();
      snd::Stopwatch watch;
      lanes.Run(lanes_instance.graph, lanes_instance.costs,
                std::span(lane_sources.data(), static_cast<size_t>(k)));
      sweep_ms += watch.ElapsedMillis();
      sink ^= lanes.Distance(k - 1, n - 1);
    }
    sweep_ms /= rounds;
    const double ratio = pruned_ms > 0 ? sweep_ms / pruned_ms : 0.0;
    std::snprintf(name, sizeof(name), "sssp.lanes.sweep_per_pruned.k%d", k);
    snd::bench::PrintMetric(name, ratio);
    sweeps.AddRow({snd::TablePrinter::Fmt(static_cast<int64_t>(k)),
                   snd::TablePrinter::Fmt(sweep_ms, 3),
                   snd::TablePrinter::Fmt(ratio, 2)});
  }
  std::printf(
      "\nk-lane sweep in 64-target pruned dial searches (U=%d, one "
      "pruned search %.3f ms)\n",
      lanes_u, pruned_ms);
  sweeps.Print();

  std::printf("\nchecksum: %lld\n", static_cast<long long>(sink));
  std::printf("total time: %.3f s\n", total.ElapsedSeconds());
  return 0;
}
