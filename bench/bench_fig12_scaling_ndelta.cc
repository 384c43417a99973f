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
// The sweep runs on a one-thread pool, as the paper's timings do, so the
// figures do not depend on the machine's core count. Per-layer times
// come from the obs phase timers production uses: each Compute runs under
// its own RequestTrace, and the sssp / transport columns are that trace's
// phase_ns. The sweep is repeated kSharePasses times over the same
// transitions; the table shows the first pass, and fig12.transport_share
// is the median over passes of transport's share of the edge-cost +
// SSSP + transport time of the whole sweep, so one noisy pass cannot
// move it. fig12.sssp_runs and fig12.sssp_passes are one sweep's total
// search and pass counts (deterministic for the seeded workload).
//
// fig12.speedup.single_pair.t4 is the wall time of one untraced sweep of
// Compute at 1 thread over that at 4 threads, each the best of
// kSpeedupRepeats: a single pair runs its four EMD* terms as concurrent
// pool jobs, so on a machine with at least 4 hardware threads it reads
// well above 1.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "snd/core/snd.h"
#include "snd/graph/generators.h"
#include "snd/obs/trace.h"
#include "snd/opinion/evolution.h"
#include "snd/util/stopwatch.h"
#include "snd/util/table.h"
#include "snd/util/thread_pool.h"

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

  snd::ThreadPool::SetGlobalThreads(1);
  const snd::SndCalculator calculator(&graph, snd::SndOptions{});
  snd::SyntheticEvolution evolution(&graph, 52);
  const snd::NetworkState base = evolution.InitialState(num_nodes / 10);
  std::vector<snd::NetworkState> transitions;
  for (int32_t n_delta : deltas) {
    transitions.push_back(
        snd::RandomTransition(base, n_delta, evolution.rng()));
  }

  auto phase_s = [](const snd::obs::RequestTrace& trace, snd::obs::ObsPhase p) {
    return 1e-9 * static_cast<double>(
                      trace.phase_ns[static_cast<int>(p)].load());
  };
  snd::TablePrinter table(
      {"n_delta", "total s", "sssp s", "transport s", "searches", "passes"});
  constexpr int kSharePasses = 9;
  std::vector<double> shares;
  int64_t sssp_runs = 0, sssp_passes = 0;
  for (int pass = 0; pass < kSharePasses; ++pass) {
    double work = 0.0, transport_work = 0.0;
    for (size_t k = 0; k < deltas.size(); ++k) {
      snd::obs::RequestTrace trace;
      snd::Stopwatch watch;
      snd::SndResult result;
      {
        const snd::obs::TraceScope scope(&trace);
        result = calculator.Compute(base, transitions[k]);
      }
      const double seconds = watch.ElapsedSeconds();
      const double sssp = phase_s(trace, snd::obs::ObsPhase::kSssp);
      const double transport = phase_s(trace, snd::obs::ObsPhase::kTransport);
      work += phase_s(trace, snd::obs::ObsPhase::kEdgeCost) + sssp + transport;
      transport_work += transport;
      if (pass > 0) continue;
      sssp_runs += trace.sssp_runs.load();
      std::string searches, passes;
      for (const snd::SndTermResult& term : result.terms) {
        if (!searches.empty()) searches += "/";
        if (!passes.empty()) passes += "/";
        searches += std::to_string(term.num_searches);
        passes += std::to_string(term.num_passes);
        sssp_passes += term.num_passes;
      }
      table.AddRow({snd::TablePrinter::Fmt(int64_t{deltas[k]}),
                    snd::TablePrinter::Fmt(seconds, 3),
                    snd::TablePrinter::Fmt(sssp, 3),
                    snd::TablePrinter::Fmt(transport, 3), searches, passes});
      std::printf("n_delta=%-6d %.3fs (sssp %.3f, transport %.3f)\n",
                  deltas[k], seconds, sssp, transport);
    }
    shares.push_back(work > 0.0 ? transport_work / work : 0.0);
  }
  std::printf("\n");
  table.Print();
  std::sort(shares.begin(), shares.end());
  std::printf("transport share per pass: %.3f .. %.3f (median %.3f)\n",
              shares.front(), shares.back(), shares[shares.size() / 2]);

  // One untraced sweep, best of kSpeedupRepeats, at 1 and 4 threads.
  constexpr int kSpeedupRepeats = 3;
  auto best_sweep_s = [&](int32_t threads) {
    snd::ThreadPool::SetGlobalThreads(threads);
    double best = 0.0;
    for (int repeat = 0; repeat < kSpeedupRepeats; ++repeat) {
      snd::Stopwatch watch;
      for (const snd::NetworkState& next : transitions) {
        calculator.Compute(base, next);
      }
      const double seconds = watch.ElapsedSeconds();
      if (repeat == 0 || seconds < best) best = seconds;
    }
    return best;
  };
  const double t1 = best_sweep_s(1);
  const double t4 = best_sweep_s(4);
  snd::ThreadPool::SetGlobalThreads(1);
  std::printf("single-pair sweep: threads1=%.3fs threads4=%.3fs "
              "hardware_threads=%u\n\n",
              t1, t4, std::thread::hardware_concurrency());

  snd::bench::PrintMetric("fig12.transport_share", shares[shares.size() / 2]);
  snd::bench::PrintMetric("fig12.sssp_runs", static_cast<double>(sssp_runs));
  snd::bench::PrintMetric("fig12.sssp_passes",
                          static_cast<double>(sssp_passes));
  snd::bench::PrintMetric("fig12.speedup.single_pair.t4",
                          t4 > 0.0 ? t1 / t4 : 0.0);
  return 0;
}
