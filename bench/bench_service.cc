// Service-layer benchmark: quantifies what residency and result caching
// buy over the per-invocation CLI workflow on one resident scale-free
// network — cold-vs-warm request latency and warm requests/sec for
// `distance`, `series` and `matrix`, plus the overlap case (`series`
// after `matrix`, every pair a cache hit). Always built; its record
// lands in the bench-all JSON artifact.
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/obs/event_log.h"
#include "snd/obs/metrics.h"
#include "snd/obs/names.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/service/service.h"
#include "snd/util/random.h"
#include "snd/util/stopwatch.h"
#include "snd/util/thread_pool.h"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "snd/net/thread_server.h"
#if defined(__linux__)
#include "snd/net/net_server.h"
#endif
#endif  // !defined(_WIN32)

namespace snd {
namespace {

double TimedCall(SndService* service, const std::string& request) {
  Stopwatch watch;
  const ServiceResponse response = service->Call(request);
  const double millis = watch.ElapsedMillis();
  if (!response.ok) {
    std::fprintf(stderr, "bench_service: '%s' failed: %s\n",
                 request.c_str(), response.header.c_str());
    std::exit(1);
  }
  return millis;
}

// One timed pass over a fixed warm request list. Minimum-of-trials over
// this is the noise-robust estimator for the events-overhead ratio.
double WarmSweepSeconds(SndService* service,
                        const std::vector<std::string>& requests,
                        int sweeps) {
  Stopwatch watch;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (const std::string& request : requests) {
      if (!service->Call(request).ok) {
        std::fprintf(stderr, "bench_service: warm sweep request failed\n");
        std::exit(1);
      }
    }
  }
  return watch.ElapsedSeconds();
}

// One serving-mix pass: evict the session, reload it, answer a handful
// of cold distances (real SSSP + transport work), then re-answer them
// warm. This is the workload the ≤2% events-overhead budget is pinned
// on — requests that compute — while the pure-cache-hit sweep above
// gives the adversarial per-request ceiling.
double MixedSweepSeconds(SndService* service, const std::string& graph_path,
                         const std::string& states_path,
                         const std::vector<std::string>& pairs) {
  Stopwatch watch;
  const std::string setup[] = {"evict g", "load_graph g " + graph_path,
                               "load_states g " + states_path};
  for (const std::string& request : setup) {
    if (!service->Call(request).ok) {
      std::fprintf(stderr, "bench_service: mixed sweep setup failed\n");
      std::exit(1);
    }
  }
  for (int pass = 0; pass < 2; ++pass) {  // cold, then warm
    for (const std::string& request : pairs) {
      if (!service->Call(request).ok) {
        std::fprintf(stderr, "bench_service: mixed sweep request failed\n");
        std::exit(1);
      }
    }
  }
  return watch.ElapsedSeconds();
}

// Median and range of a few repeated measurements.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread SpreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Spread spread;
  if (values.empty()) return spread;
  const size_t mid = values.size() / 2;
  spread.median = values.size() % 2 == 1
                      ? values[mid]
                      : 0.5 * (values[mid - 1] + values[mid]);
  spread.min = values.front();
  spread.max = values.back();
  return spread;
}

#if !defined(_WIN32)

// One blocking roundtrip client for the serving-tier sweep: text
// request out, one reply line back. TCP_NODELAY keeps the measurement
// about the tier, not Nagle.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool Roundtrip(int fd, const std::string& request) {
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t put =
        ::send(fd, request.data() + sent, request.size() - sent,
               MSG_NOSIGNAL);
    if (put <= 0) {
      if (put < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(put);
  }
  char chunk[512];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;
    }
    if (std::memchr(chunk, '\n', static_cast<size_t>(got)) != nullptr) {
      return true;
    }
  }
}

// Wall time for `clients` concurrent connections each completing
// `per_client` warm distance roundtrips. Returns <0 on socket failure.
double ConcurrentSweepSeconds(int port, int clients, int per_client,
                              const std::vector<std::string>& pool) {
  std::vector<int> fds(clients, -1);
  for (int c = 0; c < clients; ++c) {
    fds[c] = ConnectLoopback(port);
    if (fds[c] < 0) {
      for (const int fd : fds) {
        if (fd >= 0) ::close(fd);
      }
      return -1.0;
    }
  }
  std::vector<char> failed(clients, 0);
  Stopwatch watch;
  {
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        for (int r = 0; r < per_client; ++r) {
          if (!Roundtrip(fds[c], pool[(c + r) % pool.size()] + "\n")) {
            failed[c] = 1;
            return;
          }
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  const double seconds = watch.ElapsedSeconds();
  for (const int fd : fds) ::close(fd);
  for (const char bad : failed) {
    if (bad) return -1.0;
  }
  return seconds;
}

#endif  // !defined(_WIN32)

int Run() {
  const bool full = bench::FullScale();
  const int32_t n = full ? 20000 : 2000;
  const int32_t series_length = full ? 16 : 10;
  bench::PrintHeader(
      "bench_service",
      "Serving subsystem: resident sessions + result LRU vs cold "
      "computation (cold/warm latency, warm req/s)");

  Rng rng(17);
  ScaleFreeOptions graph_options;
  graph_options.num_nodes = n;
  const Graph graph = GenerateScaleFree(graph_options, &rng);
  SyntheticEvolution evolution(&graph, 23);
  const std::vector<NetworkState> states = evolution.GenerateSeries(
      series_length, n / 20, {0.15, 0.05}, {0.15, 0.05}, {});

  const std::string graph_path = "bench_service.graph.edges";
  const std::string states_path = "bench_service.states.txt";
  if (!WriteEdgeList(graph, graph_path) ||
      !WriteStateSeries(states, states_path)) {
    std::fprintf(stderr, "bench_service: cannot write fixtures\n");
    return 1;
  }

  Stopwatch total;
  SndService service;
  std::printf("n=%d T=%d threads=%d\n", n, series_length,
              ThreadPool::GlobalThreads());

  const double load_graph_ms =
      TimedCall(&service, "load_graph g " + graph_path);
  const double load_states_ms =
      TimedCall(&service, "load_states g " + states_path);
  std::printf("session load: graph %.1f ms, states %.1f ms "
              "(paid once, amortized over every request)\n",
              load_graph_ms, load_states_ms);

  // distance: cold builds the calculator + computes; warm is a pure LRU
  // hit, the per-invocation CLI equivalent re-pays the cold path every
  // time.
  const double distance_cold = TimedCall(&service, "distance g 0 1");
  const double distance_warm = TimedCall(&service, "distance g 0 1");
  std::printf("distance    cold %9.2f ms   warm %9.4f ms   (%.0fx)\n",
              distance_cold, distance_warm,
              distance_cold / std::max(distance_warm, 1e-6));

  const double series_cold = TimedCall(&service, "series g");
  const double series_warm = TimedCall(&service, "series g");
  std::printf("series      cold %9.2f ms   warm %9.4f ms   (%.0fx)\n",
              series_cold, series_warm,
              series_cold / std::max(series_warm, 1e-6));

  const double matrix_cold = TimedCall(&service, "matrix g");
  const double matrix_warm = TimedCall(&service, "matrix g");
  std::printf("matrix      cold %9.2f ms   warm %9.4f ms   (%.0fx)\n",
              matrix_cold, matrix_warm,
              matrix_cold / std::max(matrix_warm, 1e-6));
  std::printf("  (matrix cold reuses the %d series pairs already cached; "
              "series after matrix is below)\n",
              series_length - 1);

  // Overlap: a series whose pairs were all computed by the matrix.
  const double overlap_ms = TimedCall(&service, "series g");
  std::printf("series after matrix: %.4f ms (every pair a cache hit)\n",
              overlap_ms);

  // Warm throughput over all distinct pairs, twice (all hits).
  std::vector<std::string> pair_requests;
  for (int32_t i = 0; i < series_length; ++i) {
    for (int32_t j = i + 1; j < series_length; ++j) {
      pair_requests.push_back("distance g " + std::to_string(i) + " " +
                              std::to_string(j));
    }
  }
  const int32_t sweeps = 2;
  const int64_t requests =
      sweeps * static_cast<int64_t>(pair_requests.size());
  const double throughput_seconds =
      WarmSweepSeconds(&service, pair_requests, sweeps);
  const double warm_req_per_s =
      static_cast<double>(requests) / std::max(throughput_seconds, 1e-9);
  std::printf("warm throughput: %.0f req/s (%lld distance requests in "
              "%.3f s)\n",
              warm_req_per_s, static_cast<long long>(requests),
              throughput_seconds);

  // Instrumentation overhead: the same warm sweep against a second
  // session whose config attaches a JSONL event log, so every Dispatch
  // additionally formats and enqueues a request event. Interleaved
  // min-of-trials keeps a background hiccup on either side from
  // masquerading as overhead; the budget pins the ratio near 1.
  const std::string events_path = "bench_service.events.jsonl";
  double events_ratio = 0.0;
  double events_per_req_us = 0.0;
  double serving_ratio = 0.0;
  {
    const std::unique_ptr<obs::EventLog> event_log =
        obs::EventLog::OpenFile(events_path);
    if (event_log == nullptr) {
      std::fprintf(stderr, "bench_service: cannot open %s\n",
                   events_path.c_str());
      return 1;
    }
    SndServiceConfig config;
    config.event_log = event_log.get();
    SndService with_events(config);
    TimedCall(&with_events, "load_graph g " + graph_path);
    TimedCall(&with_events, "load_states g " + states_path);
    TimedCall(&with_events, "matrix g");  // Warm every pair.

    const int32_t overhead_sweeps = full ? 50 : 200;
    const int32_t trials = 5;
    double base_seconds = 1e300;
    double events_seconds = 1e300;
    for (int32_t trial = 0; trial < trials; ++trial) {
      base_seconds = std::min(
          base_seconds,
          WarmSweepSeconds(&service, pair_requests, overhead_sweeps));
      events_seconds = std::min(
          events_seconds,
          WarmSweepSeconds(&with_events, pair_requests, overhead_sweeps));
    }
    events_ratio = events_seconds / std::max(base_seconds, 1e-12);
    const long long sweep_requests =
        static_cast<long long>(overhead_sweeps) *
        static_cast<long long>(pair_requests.size());
    events_per_req_us = (events_seconds - base_seconds) * 1e6 /
                        static_cast<double>(sweep_requests);
    std::printf("events overhead (pure cache hits): %.4fx warm Call time, "
                "%+.3f us/request (%.3f s vs %.3f s over %lld "
                "requests/trial)\n",
                events_ratio, events_per_req_us, events_seconds,
                base_seconds, sweep_requests);

    // The serving-mix ratio: sessions that actually compute.
    std::vector<std::string> cold_pairs;
    for (int32_t i = 0; i < 4; ++i) {
      for (int32_t j = i + 1; j < 4; ++j) {
        cold_pairs.push_back("distance g " + std::to_string(i) + " " +
                             std::to_string(j));
      }
    }
    // 9 interleaved trials: the ≤2% budget ceiling leaves little room,
    // so the min on each side must be a genuine quiet-machine sample.
    double base_mixed = 1e300;
    double events_mixed = 1e300;
    for (int32_t trial = 0; trial < 9; ++trial) {
      base_mixed = std::min(
          base_mixed,
          MixedSweepSeconds(&service, graph_path, states_path, cold_pairs));
      events_mixed = std::min(
          events_mixed, MixedSweepSeconds(&with_events, graph_path,
                                          states_path, cold_pairs));
    }
    serving_ratio = events_mixed / std::max(base_mixed, 1e-12);
    std::printf("events overhead (serving mix, cold+warm): %.4fx "
                "(%.3f s vs %.3f s per sweep)\n",
                serving_ratio, events_mixed, base_mixed);
  }  // EventLog drains and joins before the file is removed.
  std::remove(events_path.c_str());

  // Serving-tier throughput: the same warm distance pool driven over
  // real TCP roundtrip clients, epoll tier vs legacy thread-per-conn.
  // Budget-gated on the epoll side so the event loop cannot silently
  // regress; the ratio floor keeps epoll honest against the baseline.
  // The clients share the server's CPUs, so one pass swings widely:
  // each figure is the median of kRounds back-to-back passes that
  // alternate the two modes, printed with its min-max range.
#if !defined(_WIN32)
  {
    constexpr int kRounds = 5;
    const int per_client = full ? 400 : 150;
    auto pass_req_per_s = [&](int port, int clients) {
      const double seconds =
          ConcurrentSweepSeconds(port, clients, per_client, pair_requests);
      if (seconds < 0) return -1.0;
      return static_cast<double>(clients) * per_client /
             std::max(seconds, 1e-9);
    };

    std::unique_ptr<net::ThreadServer> thread_server;
    {
      net::ThreadServerConfig config;
      StatusOr<std::unique_ptr<net::ThreadServer>> server =
          net::ThreadServer::Start(&service, config);
      if (server.ok()) thread_server = std::move(*server);
    }
#if defined(__linux__)
    std::unique_ptr<net::NetServer> epoll_server;
    {
      net::NetServerConfig config;
      config.shards = 2;
      StatusOr<std::unique_ptr<net::NetServer>> server =
          net::NetServer::Start(&service, config);
      if (server.ok()) epoll_server = std::move(*server);
    }
    if (thread_server == nullptr || epoll_server == nullptr) {
      std::fprintf(stderr, "bench_service: serving tier failed to start\n");
      return 1;
    }
    // Untimed warm-up passes settle accept/adopt churn.
    ConcurrentSweepSeconds(thread_server->port(), 64, 8, pair_requests);
    ConcurrentSweepSeconds(epoll_server->port(), 64, 8, pair_requests);
    std::vector<double> thread_c64, epoll_c1, epoll_c64, ratio_c64;
    for (int round = 0; round < kRounds; ++round) {
      thread_c64.push_back(pass_req_per_s(thread_server->port(), 64));
      epoll_c1.push_back(pass_req_per_s(epoll_server->port(), 1));
      epoll_c64.push_back(pass_req_per_s(epoll_server->port(), 64));
      if (thread_c64.back() < 0 || epoll_c1.back() < 0 ||
          epoll_c64.back() < 0) {
        std::fprintf(stderr, "bench_service: serving-tier sweep failed\n");
        return 1;
      }
      ratio_c64.push_back(epoll_c64.back() / thread_c64.back());
    }
    epoll_server->Shutdown();
    thread_server->Shutdown();
    const Spread thread_spread = SpreadOf(thread_c64);
    const Spread epoll_c1_spread = SpreadOf(epoll_c1);
    const Spread epoll_c64_spread = SpreadOf(epoll_c64);
    const Spread ratio_spread = SpreadOf(ratio_c64);
    std::printf("serving throughput (TCP roundtrips, warm distance; median "
                "[min-max] of %d alternating passes):\n"
                "  epoll c1 %.0f [%.0f-%.0f] req/s\n"
                "  epoll c64 %.0f [%.0f-%.0f] req/s\n"
                "  thread c64 %.0f [%.0f-%.0f] req/s\n"
                "  epoll/thread c64 %.3f [%.3f-%.3f]\n",
                kRounds, epoll_c1_spread.median, epoll_c1_spread.min,
                epoll_c1_spread.max, epoll_c64_spread.median,
                epoll_c64_spread.min, epoll_c64_spread.max,
                thread_spread.median, thread_spread.min, thread_spread.max,
                ratio_spread.median, ratio_spread.min, ratio_spread.max);
    bench::PrintMetric("service.req_per_s.epoll.c1", epoll_c1_spread.median);
    bench::PrintMetric("service.req_per_s.epoll.c64",
                       epoll_c64_spread.median);
    bench::PrintMetric("service.req_per_s.thread.c64", thread_spread.median);
    bench::PrintMetric("service.req_per_s.epoll_vs_thread.c64",
                       ratio_spread.median);
#else
    if (thread_server != nullptr) {
      ConcurrentSweepSeconds(thread_server->port(), 64, 8, pair_requests);
      std::vector<double> thread_c64;
      for (int round = 0; round < kRounds; ++round) {
        thread_c64.push_back(pass_req_per_s(thread_server->port(), 64));
      }
      thread_server->Shutdown();
      const Spread spread = SpreadOf(thread_c64);
      std::printf("serving throughput (TCP roundtrips, warm distance): "
                  "thread c64 %.0f [%.0f-%.0f] req/s (epoll tier is "
                  "Linux-only)\n",
                  spread.median, spread.min, spread.max);
    }
#endif
  }
#endif  // !defined(_WIN32)

  const std::vector<obs::MetricRow> rows = service.metrics().Snapshot();
  const auto count = [&rows](std::string_view name) {
    return static_cast<long long>(obs::SnapshotValue(rows, name));
  };
  std::printf("counters: result hits %lld misses %lld, calc builds %lld "
              "hits %lld, sssp_runs %lld, transport_solves %lld\n",
              count(obs::kMetricCacheResultHits),
              count(obs::kMetricCacheResultMisses),
              count(obs::kMetricCacheCalcBuilds),
              count(obs::kMetricCacheCalcHits),
              count(obs::kMetricWorkSsspRuns),
              count(obs::kMetricWorkTransportSolves));

  bench::PrintMetric("service.speedup.distance.warm",
                     distance_cold / std::max(distance_warm, 1e-6));
  bench::PrintMetric("service.speedup.series.warm",
                     series_cold / std::max(series_warm, 1e-6));
  bench::PrintMetric("service.warm.req_per_s", warm_req_per_s);
  bench::PrintMetric("service.events.overhead.ratio", events_ratio);
  bench::PrintMetric("service.events.overhead.per_req_us",
                     events_per_req_us);
  bench::PrintMetric("service.events.overhead.serving.ratio",
                     serving_ratio);

  std::printf("\ntotal time: %.3f s\n", total.ElapsedSeconds());

  std::remove(graph_path.c_str());
  std::remove(states_path.c_str());
  return 0;
}

}  // namespace
}  // namespace snd

int main() { return snd::Run(); }
