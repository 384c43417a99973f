// Figure 12: time computing SND as the number of users who changed
// opinion (n_delta) grows, with the network size fixed.
//
// Paper setup: n = 20k fixed, n_delta up to 10k; the reduced
// transportation problem grows with n_delta, giving the figure's
// superlinear curve. Each term searches from the smaller side of its
// reduced problem, so the SSSP stage grows as min(n_delta/2, bank bins)
// searches per term: linearly at first, then flat once the changed users
// outnumber the bank bins (past n_delta of about 600 at reduced scale).
// The `searches` column lists the four terms' search counts, and
// `passes` the engine passes that ran them: DialLaneEngine sweeps of up
// to 32 int16 lanes plus single searches.
//
// The calculator runs its SSSPs serially, as the paper's timings do, so
// the figures do not depend on the machine's core count. Per-layer times
// come from the obs phase timers production uses: each Compute runs under
// its own RequestTrace, and the sssp / transport columns are that trace's
// phase_ns. fig12.transport_share is transport's share of the edge-cost +
// SSSP + transport time over the whole sweep; fig12.sssp_runs and
// fig12.sssp_passes are the sweep's total search and pass counts
// (deterministic for the seeded workload).
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "snd/core/snd.h"
#include "snd/graph/generators.h"
#include "snd/obs/trace.h"
#include "snd/opinion/evolution.h"
#include "snd/util/stopwatch.h"
#include "snd/util/table.h"

int main() {
  using snd::bench::FullScale;
  snd::bench::PrintHeader(
      "Figure 12 - SND computation time vs n_delta",
      "Network size fixed; the number of changed users grows.");

  const int32_t num_nodes = FullScale() ? 20000 : 6000;
  const std::vector<int32_t> deltas =
      FullScale()
          ? std::vector<int32_t>{500, 1000, 2000, 4000, 6000, 8000, 10000}
          : std::vector<int32_t>{100, 200, 400, 800, 1200, 1600};

  snd::Rng rng(51);
  snd::ScaleFreeOptions graph_options;
  graph_options.num_nodes = num_nodes;
  graph_options.exponent = -2.5;
  graph_options.avg_degree = 10.0;
  const snd::Graph graph = snd::GenerateScaleFree(graph_options, &rng);
  std::printf("network: n=%d m=%lld\n\n", graph.num_nodes(),
              static_cast<long long>(graph.num_edges()));

  snd::SndOptions options;
  options.parallel_sssp = false;
  const snd::SndCalculator calculator(&graph, options);
  snd::SyntheticEvolution evolution(&graph, 52);
  const snd::NetworkState base = evolution.InitialState(num_nodes / 10);

  auto phase_s = [](const snd::obs::RequestTrace& trace, snd::obs::ObsPhase p) {
    return 1e-9 * static_cast<double>(
                      trace.phase_ns[static_cast<int>(p)].load());
  };
  snd::TablePrinter table(
      {"n_delta", "total s", "sssp s", "transport s", "searches", "passes"});
  double work = 0.0, transport_work = 0.0;
  int64_t sssp_runs = 0, sssp_passes = 0;
  for (int32_t n_delta : deltas) {
    const snd::NetworkState next =
        snd::RandomTransition(base, n_delta, evolution.rng());
    snd::obs::RequestTrace trace;
    snd::Stopwatch watch;
    snd::SndResult result;
    {
      const snd::obs::TraceScope scope(&trace);
      result = calculator.Compute(base, next);
    }
    const double seconds = watch.ElapsedSeconds();
    const double sssp = phase_s(trace, snd::obs::ObsPhase::kSssp);
    const double transport = phase_s(trace, snd::obs::ObsPhase::kTransport);
    work += phase_s(trace, snd::obs::ObsPhase::kEdgeCost) + sssp + transport;
    transport_work += transport;
    sssp_runs += trace.sssp_runs.load();
    std::string searches, passes;
    for (const snd::SndTermResult& term : result.terms) {
      if (!searches.empty()) searches += "/";
      if (!passes.empty()) passes += "/";
      searches += std::to_string(term.num_searches);
      passes += std::to_string(term.num_passes);
      sssp_passes += term.num_passes;
    }
    table.AddRow({snd::TablePrinter::Fmt(int64_t{n_delta}),
                  snd::TablePrinter::Fmt(seconds, 3),
                  snd::TablePrinter::Fmt(sssp, 3),
                  snd::TablePrinter::Fmt(transport, 3), searches, passes});
    std::printf("n_delta=%-6d %.3fs (sssp %.3f, transport %.3f)\n", n_delta,
                seconds, sssp, transport);
  }
  std::printf("\n");
  table.Print();
  snd::bench::PrintMetric("fig12.transport_share",
                          work > 0.0 ? transport_work / work : 0.0);
  snd::bench::PrintMetric("fig12.sssp_runs", static_cast<double>(sssp_runs));
  snd::bench::PrintMetric("fig12.sssp_passes",
                          static_cast<double>(sssp_passes));
  return 0;
}
