// Input generator, in-process Fig 12 loop and TCP load client for the
// perfbench workloads (see perfbench/README.md). run.py drives it:
//
//   perfbench_harness gen <workload> <seed> <dir>
//       Writes the workload's inputs into <dir>: graph.edges (the
//       bench_fig12 reduced-scale network), states.txt and, for
//       serve_churn, stream.txt (the append stream) and mutation.txt
//       (the periphery edge that is added and removed).
//   perfbench_harness fig12 <dir> <seed> <seconds> <trace 0|1>
//       Single-thread cold SndCalculator::Compute over fresh transitions.
//   perfbench_harness golden <dir> <first_seed> <last_seed>
//       First-cycle values and term shapes per seed (the golden table).
//   perfbench_harness load <serve_hot|serve_churn> <port> <dir> <seed>
//       <seconds> <limits> <schedule>
//       Drives a running snd_serve over TCP; <limits> is
//       "kind=ms,kind=ms,..." (the per-kind latency limits) and
//       <schedule> is "ticks_per_s=X,reads_per_s_per_conn=Y" (the
//       serve_churn open-loop rates; serve_hot ignores it).
//
// Every subcommand prints one JSON object on stdout.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "snd/core/snd.h"
#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/obs/trace.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/util/random.h"
#include "snd/util/thread_pool.h"

namespace {

using Clock = std::chrono::steady_clock;

// The bench_fig12 reduced-scale network. It is the same for every seed,
// so runs with different seeds measure one network and differ only in
// the opinion states, transitions and request schedules the seed draws.
constexpr int32_t kNodes = 6000;
constexpr uint64_t kGraphSeed = 51;
// Fig 12 n_delta cycle over the reduced-scale sizes of bench_fig12. 800
// appears twice so that the median and the 90th percentile fall inside
// one size class (800 and 1600) instead of on the edge between two.
constexpr int32_t kDeltas[] = {200, 400, 800, 800, 1600};
constexpr int kCycle = 5;
// serve_* series: ~10% of users active, and each step activates about 50
// neutral users and retires as many active ones (n_delta ~100), so the
// series is stationary however long the stream runs.
constexpr int32_t kAdopters = kNodes / 10;
constexpr int32_t kAttempts = 500;
constexpr int kHotStates = 12;
constexpr int kChurnStates = 32;
// Appended states for a 70 s window at 10 ticks/s; a faster or longer
// schedule stops appending when the stream runs out.
constexpr int kChurnStream = 700;
constexpr int kReadMargin = 24;  // Reads stay this far inside the window.
constexpr int kConns = 4;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t k = 0; k < values.size(); ++k) {
    if (k > 0) out += ",";
    out += Num(values[k]);
  }
  return out + "]";
}

// Nearest-rank quantile of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// Serving latencies are summarised per period of this length (one
// mutation cycle of serve_churn) and the median over the window's
// periods is reported, so one stall moves one period's figure rather
// than the run's.
constexpr double kPeriodS = 2.0;

// The samples of `ms` grouped by kPeriodS period of `at_s`, keeping the
// periods that hold at least half as many samples as the fullest one
// (this drops the partial period at the end of the window).
std::vector<std::vector<double>> FullPeriods(const std::vector<double>& at_s,
                                             const std::vector<double>& ms) {
  std::map<int64_t, std::vector<double>> periods;
  for (size_t k = 0; k < ms.size(); ++k) {
    periods[static_cast<int64_t>(at_s[k] / kPeriodS)].push_back(ms[k]);
  }
  size_t fullest = 0;
  for (const auto& [index, values] : periods) {
    fullest = std::max(fullest, values.size());
  }
  std::vector<std::vector<double>> full;
  for (auto& [index, values] : periods) {
    if (2 * values.size() >= fullest) full.push_back(std::move(values));
  }
  return full;
}

// Quantile q of `ms` per full period, median over the periods; the plain
// quantile when there are no due times.
double PeriodQuantile(const std::vector<double>& at_s,
                      const std::vector<double>& ms, double q) {
  if (at_s.empty()) return Quantile(ms, q);
  std::vector<double> per_period;
  for (const auto& values : FullPeriods(at_s, ms)) {
    per_period.push_back(Quantile(values, q));
  }
  return Quantile(per_period, 0.5);
}

// Operations per second per full period, median over the periods; 0
// when there are no due times.
double PeriodRate(const std::vector<double>& at_s,
                  const std::vector<double>& ms) {
  if (at_s.empty()) return 0.0;
  std::vector<double> rates;
  for (const auto& values : FullPeriods(at_s, ms)) {
    rates.push_back(static_cast<double>(values.size()) / kPeriodS);
  }
  return Quantile(rates, 0.5);
}

// Latencies of one request kind, in ms, with the time each was due
// (seconds into the window), its failures and the number that missed the
// kind's latency limit (failures count as misses).
struct KindSamples {
  std::vector<double> at_s;
  std::vector<double> ms;
  int64_t failed = 0;
  int64_t late = 0;

  void Add(double due_s, double value_ms, bool ok, double limit_ms) {
    at_s.push_back(due_s);
    ms.push_back(value_ms);
    if (!ok) ++failed;
    if (!ok || value_ms > limit_ms) ++late;
  }
  void Merge(const KindSamples& other) {
    at_s.insert(at_s.end(), other.at_s.begin(), other.at_s.end());
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    failed += other.failed;
    late += other.late;
  }
  std::string Json() const {
    return "{\"n\":" + std::to_string(ms.size()) +
           ",\"failed\":" + std::to_string(failed) +
           ",\"late\":" + std::to_string(late) +
           ",\"p50\":" + Num(PeriodQuantile(at_s, ms, 0.50)) +
           ",\"p90\":" + Num(PeriodQuantile(at_s, ms, 0.90)) +
           ",\"p99\":" + Num(PeriodQuantile(at_s, ms, 0.99)) +
           ",\"rate\":" + Num(PeriodRate(at_s, ms)) + "}";
  }
};

std::string KindsJson(const std::map<std::string, KindSamples>& kinds) {
  KindSamples all;
  std::string out = "{";
  for (const auto& [name, samples] : kinds) {
    out += "\"" + name + "\":" + samples.Json() + ",";
    all.Merge(samples);
  }
  return out + "\"all\":" + all.Json() + "}";
}

snd::Graph Fig12Graph() {
  snd::Rng rng(kGraphSeed);
  snd::ScaleFreeOptions options;
  options.num_nodes = kNodes;
  options.exponent = -2.5;
  options.avg_degree = 10.0;
  return snd::GenerateScaleFree(options, &rng);
}

// A SyntheticEvolution series whose active-user count stays at its
// initial value: after each step, random users that were already active
// go neutral until the count is back.
std::vector<snd::NetworkState> StationarySeries(const snd::Graph& graph,
                                                uint64_t seed,
                                                int32_t length) {
  snd::SyntheticEvolution evolution(&graph, seed);
  snd::Rng retire(seed ^ 0x9e3779b97f4a7c15ULL);
  snd::EvolutionParams params;
  params.attempts = kAttempts;
  std::vector<snd::NetworkState> series{evolution.InitialState(kAdopters)};
  const int32_t target = series.back().CountActive();
  while (static_cast<int32_t>(series.size()) < length) {
    const snd::NetworkState& current = series.back();
    snd::NetworkState next = evolution.NextState(current, params);
    while (next.CountActive() > target) {
      const auto u = static_cast<int32_t>(retire.UniformInt(0, kNodes - 1));
      if (current.IsActive(u) && next.IsActive(u)) {
        next.set_opinion(u, snd::Opinion::kNeutral);
      }
    }
    series.push_back(std::move(next));
  }
  return series;
}

// One directed edge u->v between two lowest-degree nodes that hang off
// the same neighbor and are not yet linked: a periphery edit whose
// retention certificates keep most cached results (every shortest path
// into v already passes their common neighbor).
std::pair<int32_t, int32_t> PeripheryEdge(const snd::Graph& graph,
                                          uint64_t seed) {
  int64_t min_degree = graph.num_edges();
  for (int32_t u = 0; u < graph.num_nodes(); ++u) {
    min_degree = std::min(min_degree, graph.OutDegree(u));
  }
  std::vector<std::pair<int32_t, int32_t>> siblings;
  for (int32_t u = 0; u < graph.num_nodes(); ++u) {
    if (graph.OutDegree(u) != min_degree) continue;
    for (int32_t w : graph.OutNeighbors(u)) {
      for (int32_t v : graph.OutNeighbors(w)) {
        if (v != u && graph.OutDegree(v) == min_degree &&
            graph.FindEdge(u, v) < 0) {
          siblings.emplace_back(u, v);
        }
      }
    }
  }
  SND_CHECK(!siblings.empty());
  snd::Rng rng(seed);
  return siblings[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(siblings.size()) - 1))];
}

int Gen(const std::string& workload, uint64_t seed, const std::string& dir) {
  const snd::Graph graph = Fig12Graph();
  if (!snd::WriteEdgeList(graph, dir + "/graph.edges")) return 1;
  if (workload == "fig12_cold") return 0;
  const bool churn = workload == "serve_churn";
  std::vector<snd::NetworkState> series = StationarySeries(
      graph, seed, churn ? kChurnStates + kChurnStream : kHotStates);
  if (!churn) return snd::WriteStateSeries(series, dir + "/states.txt") ? 0 : 1;
  const std::vector<snd::NetworkState> stream(series.begin() + kChurnStates,
                                              series.end());
  series.resize(kChurnStates);
  const auto [u, v] = PeripheryEdge(graph, seed);
  std::ofstream mutation(dir + "/mutation.txt");
  mutation << u << " " << v << "\n";
  return snd::WriteStateSeries(series, dir + "/states.txt") &&
                 snd::WriteStateSeries(stream, dir + "/stream.txt") &&
                 mutation.good()
             ? 0
             : 1;
}

// ---------------------------------------------------------------- fig12

// The seed's base state and its endless cycle of fresh transitions.
class Fig12Source {
 public:
  Fig12Source(const snd::Graph* graph, uint64_t seed)
      : evolution_(graph, seed), base_(evolution_.InitialState(kAdopters)) {}

  const snd::NetworkState& base() const { return base_; }
  snd::NetworkState Next() {
    return snd::RandomTransition(base_, kDeltas[count_++ % kCycle],
                                 evolution_.rng());
  }

 private:
  snd::SyntheticEvolution evolution_;
  snd::NetworkState base_;
  int64_t count_ = 0;
};

std::string ShapesJson(const snd::SndResult& result) {
  std::string out = "[";
  for (const snd::SndTermResult& term : result.terms) {
    if (out.size() > 1) out += ",";
    out += "[" + std::to_string(term.num_suppliers) + "," +
           std::to_string(term.num_consumers) + "," +
           std::to_string(term.num_banks) + "]";
  }
  return out + "]";
}

// Per-layer totals over the traced evaluations of a window.
struct TraceTotals {
  int64_t evals = 0;
  int64_t phase_ns[snd::obs::kNumObsPhases] = {};
  int64_t sssp_runs = 0;
  int64_t sssp_settled = 0;
  int64_t transport_solves = 0;
  int64_t edge_cost_builds = 0;
  int64_t backend_runs[snd::obs::kNumSsspSlots] = {};
  int64_t suppliers = 0, consumers = 0, banks = 0, terms = 0;
  double cells = 0.0;

  void Add(const snd::obs::RequestTrace& trace, const snd::SndResult& result) {
    ++evals;
    for (int k = 0; k < snd::obs::kNumObsPhases; ++k) {
      phase_ns[k] += trace.phase_ns[k].load();
    }
    sssp_runs += trace.sssp_runs.load();
    sssp_settled += trace.sssp_settled.load();
    transport_solves += trace.transport_solves.load();
    edge_cost_builds += trace.edge_cost_builds.load();
    for (int k = 0; k < snd::obs::kNumSsspSlots; ++k) {
      backend_runs[k] += trace.backend_runs[k].load();
    }
    for (const snd::SndTermResult& term : result.terms) {
      ++terms;
      suppliers += term.num_suppliers;
      consumers += term.num_consumers;
      banks += term.num_banks;
      cells += static_cast<double>(term.num_suppliers) *
               static_cast<double>(term.num_consumers + term.num_banks);
    }
  }
  std::string Json() const {
    std::string out = "{\"evals\":" + std::to_string(evals) + ",\"phase_ns\":[";
    for (int k = 0; k < snd::obs::kNumObsPhases; ++k) {
      out += (k ? "," : "") + std::to_string(phase_ns[k]);
    }
    out += "],\"backend_runs\":[";
    for (int k = 0; k < snd::obs::kNumSsspSlots; ++k) {
      out += (k ? "," : "") + std::to_string(backend_runs[k]);
    }
    return out + "],\"sssp_runs\":" + std::to_string(sssp_runs) +
           ",\"sssp_settled\":" + std::to_string(sssp_settled) +
           ",\"transport_solves\":" + std::to_string(transport_solves) +
           ",\"edge_cost_builds\":" + std::to_string(edge_cost_builds) +
           ",\"terms\":" + std::to_string(terms) +
           ",\"suppliers\":" + std::to_string(suppliers) +
           ",\"consumers\":" + std::to_string(consumers) +
           ",\"banks\":" + std::to_string(banks) +
           ",\"cells\":" + Num(cells) + "}";
  }
};

struct Fig12Window {
  std::vector<double> ms;
  std::vector<double> first_values;
  std::vector<std::string> first_shapes;
  TraceTotals totals;
};

// Set-up = edge-list load + SndCalculator construction.
struct Fig12Setup {
  std::optional<snd::Graph> graph;
  std::unique_ptr<snd::SndCalculator> calc;
  double seconds = 0.0;
};

bool SetUpFig12(const std::string& dir, Fig12Setup* setup) {
  const Clock::time_point t0 = Clock::now();
  setup->graph = snd::ReadEdgeList(dir + "/graph.edges");
  if (!setup->graph) return false;
  setup->calc = std::make_unique<snd::SndCalculator>(&*setup->graph,
                                                     snd::SndOptions{});
  setup->seconds = Seconds(Clock::now() - t0);
  return true;
}

// Whole n_delta cycles of cold evaluations until `seconds` have passed.
// With `setup_s`, one more set-up from `dir` is timed after every cycle:
// samples spread over the window keep the set-up median steady through a
// short slow spell of the host.
Fig12Window RunFig12Window(const snd::SndCalculator& calc,
                           const snd::Graph& graph, uint64_t seed,
                           double seconds, bool traced, const std::string& dir,
                           std::vector<double>* setup_s) {
  Fig12Window window;
  Fig12Source source(&graph, seed);
  const Clock::time_point start = Clock::now();
  while (window.ms.size() % kCycle != 0 ||
         Seconds(Clock::now() - start) < seconds) {
    const snd::NetworkState next = source.Next();
    snd::obs::RequestTrace trace;
    snd::SndResult result;
    const Clock::time_point t0 = Clock::now();
    if (traced) {
      const snd::obs::TraceScope scope(&trace);
      result = calc.Compute(source.base(), next);
    } else {
      result = calc.Compute(source.base(), next);
    }
    window.ms.push_back(1e3 * Seconds(Clock::now() - t0));
    if (window.first_values.size() < kCycle) {
      window.first_values.push_back(result.value);
      window.first_shapes.push_back(ShapesJson(result));
    }
    if (traced) window.totals.Add(trace, result);
    if (setup_s != nullptr && window.ms.size() % kCycle == 0) {
      Fig12Setup extra;
      if (SetUpFig12(dir, &extra)) setup_s->push_back(extra.seconds);
    }
  }
  return window;
}

std::string WindowJson(const Fig12Window& window) {
  std::string shapes, n_delta;
  for (size_t k = 0; k < window.first_shapes.size(); ++k) {
    if (k > 0) shapes += ",";
    shapes += window.first_shapes[k];
  }
  for (size_t k = 0; k < window.ms.size(); ++k) {
    if (k > 0) n_delta += ",";
    n_delta += std::to_string(kDeltas[k % kCycle]);
  }
  KindSamples all;  // Pooled: no due times.
  all.ms = window.ms;
  return "{\"ms\":" + NumList(window.ms) + ",\"n_delta\":[" + n_delta +
         "],\"summary\":" + all.Json() +
         ",\"values\":" + NumList(window.first_values) + ",\"shapes\":[" +
         shapes + "],\"trace\":" + window.totals.Json() + "}";
}

// Fixed probe pairs, the same in every run: a golden check that does not
// depend on which seeds the golden table covers.
constexpr uint64_t kProbeSeed = 20170419;

int Fig12(const std::string& dir, uint64_t seed, double seconds, bool trace) {
  snd::ThreadPool::SetGlobalThreads(1);
  Fig12Setup setup;
  if (!SetUpFig12(dir, &setup)) return 1;
  const snd::SndCalculator& calc = *setup.calc;
  const snd::Graph& graph = *setup.graph;

  std::vector<double> setup_s{setup.seconds};
  const Fig12Window untraced = RunFig12Window(calc, graph, seed, seconds,
                                              false, dir, &setup_s);
  std::string out = "{\"cycle\":" + std::to_string(kCycle) +
                    ",\"setup_s\":" + NumList(setup_s) +
                    ",\"untraced\":" + WindowJson(untraced);
  if (trace) {
    const Fig12Window traced = RunFig12Window(calc, graph, seed, seconds, true,
                                              dir, nullptr);
    out += ",\"traced\":" + WindowJson(traced);
    // One cycle at 1 thread and at nproc threads over the same pairs, each
    // with a calculator built under that thread count.
    const int32_t threads = snd::ThreadPool::DefaultThreads();
    std::vector<double> sweep;
    for (int32_t t : {int32_t{1}, threads}) {
      snd::ThreadPool::SetGlobalThreads(t);
      const snd::SndCalculator sweep_calc(&graph, snd::SndOptions{});
      Fig12Source source(&graph, seed);
      const Clock::time_point t0 = Clock::now();
      for (int k = 0; k < kCycle; ++k) {
        sweep_calc.Compute(source.base(), source.Next());
      }
      sweep.push_back(Seconds(Clock::now() - t0));
    }
    snd::ThreadPool::SetGlobalThreads(1);
    out += ",\"sweep_threads\":" + std::to_string(threads) +
           ",\"sweep_s\":" + NumList(sweep);
  }
  Fig12Source probe(&graph, kProbeSeed);
  std::vector<double> probe_values;
  for (int k = 0; k < 2; ++k) {
    probe_values.push_back(calc.Compute(probe.base(), probe.Next()).value);
  }
  out += ",\"probe_values\":" + NumList(probe_values) +
         ",\"peak_rss_mb\":" + Num(MaxRssMb()) + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

int Golden(const std::string& dir, uint64_t first, uint64_t last) {
  Fig12Setup setup;
  if (!SetUpFig12(dir, &setup)) return 1;
  std::string out = "{";
  for (uint64_t seed = first; seed <= last; ++seed) {
    Fig12Source source(&*setup.graph, seed);
    std::vector<double> values;
    std::string shapes = "[";
    for (int k = 0; k < kCycle; ++k) {
      const snd::SndResult result =
          setup.calc->Compute(source.base(), source.Next());
      values.push_back(result.value);
      if (k > 0) shapes += ",";
      shapes += ShapesJson(result);
    }
    if (seed != first) out += ",";
    out += "\"" + std::to_string(seed) + "\":{\"values\":" + NumList(values) +
           ",\"shapes\":" + shapes + "]}";
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

// ----------------------------------------------------------------- load

// One blocking TCP client connection with a buffered line reader.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{60, 0};  // A hung server fails the run, never hangs it.
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t eol = buf_.find('\n', pos_);
      if (eol != std::string::npos) {
        line->assign(buf_, pos_, eol - pos_);
        pos_ = eol + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  // One whole reply: for the text codec a header ending in `count N` or
  // `rows N` is followed by N rows; every JSON reply is one line.
  bool ReadReply(std::string* reply) {
    std::string line;
    if (!ReadLine(&line)) return false;
    *reply = line;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space < 5) return true;
    const size_t word = line.rfind(' ', space - 1);
    const std::string tag = line.substr(word + 1, space - word - 1);
    if (line.rfind("ok ", 0) != 0 || (tag != "count" && tag != "rows")) {
      return true;
    }
    const long rows = std::strtol(line.c_str() + space + 1, nullptr, 10);
    for (long r = 0; r < rows; ++r) {
      if (!ReadLine(&line)) return false;
      *reply += "\n" + line;
    }
    return true;
  }

  bool Call(const std::string& request, std::string* reply) {
    return Send(request + "\n") && ReadReply(reply);
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

// "key=number,key=number,..." as a map.
std::map<std::string, double> ParseKeyValues(const std::string& spec) {
  std::map<std::string, double> values;
  std::stringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    const size_t eq = item.find('=');
    if (eq != std::string::npos) {
      values[item.substr(0, eq)] = std::atof(item.c_str() + eq + 1);
    }
  }
  return values;
}

double Ms(Clock::time_point from, Clock::time_point to) {
  return 1e3 * Seconds(to - from);
}

// serve_hot: a closed loop per connection over the warm session. 90% of
// requests are `distance g i j` over the 66 state pairs, 10% `series g`;
// every reply must equal the expected text (expected.txt, taken from the
// warm-up `matrix g`) byte for byte.
int LoadHot(int port, const std::string& dir, uint64_t seed, double seconds,
            const std::map<std::string, double>& limits) {
  std::vector<std::pair<std::string, std::string>> pairs;  // request, reply
  std::string series_reply;
  {
    std::ifstream in(dir + "/expected.txt");
    std::string line;
    while (std::getline(in, line)) {
      const size_t last = line.rfind(' ');
      if (line.rfind("ok distance ", 0) == 0 && last > 3) {
        pairs.emplace_back(line.substr(3, last - 3), line);
      } else {
        series_reply += (series_reply.empty() ? "" : "\n") + line;
      }
    }
  }
  if (pairs.empty() || series_reply.empty()) return 1;
  const double distance_limit = limits.at("distance");
  const double series_limit = limits.at("series");

  std::vector<std::map<std::string, KindSamples>> per_conn(kConns);
  std::atomic<bool> broken{false};
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      Conn conn(port);
      if (!conn.ok()) {
        broken = true;
        return;
      }
      snd::Rng rng(seed * 1000003ULL + static_cast<uint64_t>(c));
      KindSamples& distance = per_conn[c]["distance"];
      KindSamples& series = per_conn[c]["series"];
      std::string reply;
      while (Clock::now() < end) {
        const bool is_series = rng.UniformReal() < 0.1;
        const auto& pair = pairs[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(pairs.size()) - 1))];
        const Clock::time_point t0 = Clock::now();
        const bool sent =
            conn.Call(is_series ? "series g" : pair.first, &reply);
        const double ms = Ms(t0, Clock::now());
        const double at = Seconds(t0 - start);
        if (is_series) {
          series.Add(at, ms, sent && reply == series_reply, series_limit);
        } else {
          distance.Add(at, ms, sent && reply == pair.second, distance_limit);
        }
        if (!sent) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double window = Seconds(Clock::now() - start);
  const double cpu = CpuSeconds() - cpu0;
  std::map<std::string, KindSamples> kinds;
  for (const auto& conn : per_conn) {
    for (const auto& [name, samples] : conn) kinds[name].Merge(samples);
  }
  std::printf(
      "{\"window_s\":%s,\"client_busy_frac\":%s,\"broken\":%s,"
      "\"gen_lag_ms\":[],\"kinds\":%s}\n",
      Num(window).c_str(), Num(cpu / (window * kConns)).c_str(),
      broken ? "true" : "false", KindsJson(kinds).c_str());
  return 0;
}

std::string JsonStateFrame(const std::string& text_row) {
  std::string frame = "{\"cmd\":\"append_state\",\"name\":\"g\",\"values\":[";
  std::stringstream in(text_row);
  std::string token;
  bool first = true;
  while (in >> token) {
    frame += (first ? "" : ",") + token;
    first = false;
  }
  return frame + "]}";
}

std::string JsonDistance(int64_t i, int64_t j) {
  return "{\"cmd\":\"distance\",\"name\":\"g\",\"i\":" + std::to_string(i) +
         ",\"j\":" + std::to_string(j) + "}";
}

bool JsonOk(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

// The number text of a distance reply's "value" field, as sent.
std::string JsonValue(const std::string& reply) {
  const std::string key = "\"value\":";
  const size_t from = reply.find(key);
  if (from == std::string::npos) return "null";
  const size_t begin = from + key.size();
  return reply.substr(begin, reply.find_first_of(",}", begin) - begin);
}

// serve_churn: an open loop on a fixed schedule, each request timed from
// its due time. Connection 0 is the writer: every tick an append_state
// and the `distance` that scores the new transition; once per kPeriodS
// an add_edge/remove_edge of the periphery edge (alternating, so the
// graph returns to its start) followed by the re-scoring `series g`.
// Connections 1..kConns-1 read adjacent-pair distances and the series
// inside the retained window. For the correctness gate the output holds
// every score with whether the edge was present, and the re-scoring
// series that followed the last add_edge with the newest state then.
int LoadChurn(int port, const std::string& dir, uint64_t seed, double seconds,
              const std::map<std::string, double>& limits,
              const std::map<std::string, double>& schedule) {
  const double ticks_per_s = schedule.at("ticks_per_s");
  const double reads_per_s = schedule.at("reads_per_s_per_conn");
  const auto mutate_every =
      std::max<int64_t>(2, std::llround(kPeriodS * ticks_per_s));
  std::vector<std::string> frames;
  {
    std::ifstream in(dir + "/stream.txt");
    std::string line;
    std::getline(in, line);  // Header.
    while (std::getline(in, line)) frames.push_back(JsonStateFrame(line));
  }
  int32_t mu = -1, mv = -1;
  {
    std::ifstream in(dir + "/mutation.txt");
    in >> mu >> mv;
  }
  if (frames.empty() || mu < 0) return 1;

  struct ConnResult {
    std::map<std::string, KindSamples> kinds;
    std::vector<double> gen_lag_ms;
  };
  std::vector<ConnResult> results(kConns);
  std::atomic<int64_t> latest{kChurnStates - 1};  // Global index.
  std::atomic<bool> broken{false};
  std::string scores = "[";     // [index, edge present, value], writer only.
  std::string added = "null";  // {"latest", "reply"} of the last add.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto due_at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  const double cpu0 = CpuSeconds();

  // Sends `request` no earlier than `due`; records the generator's lag
  // when the connection was idle at the due time.
  const auto issue = [&](Conn& conn, ConnResult& result,
                         Clock::time_point due, const std::string& request,
                         std::string* reply) {
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
      result.gen_lag_ms.push_back(Ms(due, Clock::now()));
    }
    return conn.Call(request, reply);
  };

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Conn conn(port);
    if (!conn.ok()) {
      broken = true;
      return;
    }
    ConnResult& result = results[0];
    std::string reply;
    int64_t mutations = 0;
    for (int64_t tick = 0;; ++tick) {
      const Clock::time_point due =
          due_at(static_cast<double>(tick) / ticks_per_s);
      if (due >= end || tick >= static_cast<int64_t>(frames.size())) break;
      const double at = Seconds(due - start);
      bool ok = issue(conn, result, due, frames[static_cast<size_t>(tick)],
                      &reply) &&
                JsonOk(reply);
      result.kinds["append"].Add(at, Ms(due, Clock::now()), ok,
                                 limits.at("append"));
      if (!ok) return;
      const int64_t index = kChurnStates + tick;
      ok = conn.Call(JsonDistance(index - 1, index), &reply) && JsonOk(reply);
      result.kinds["score"].Add(at, Ms(due, Clock::now()), ok,
                                limits.at("score"));
      if (ok) {
        scores += std::string(scores.size() > 1 ? "," : "") + "[" +
                  std::to_string(index) + "," +
                  (mutations % 2 == 1 ? "true" : "false") + "," +
                  JsonValue(reply) + "]";
      }
      latest = index;  // Readers see a transition once it is scored.
      if (tick % mutate_every != mutate_every / 2) continue;
      const bool add = mutations % 2 == 0;
      const Clock::time_point mutate_due = Clock::now();
      ok = conn.Call(std::string("{\"cmd\":\"") +
                         (add ? "add_edge" : "remove_edge") +
                         "\",\"name\":\"g\",\"u\":" + std::to_string(mu) +
                         ",\"v\":" + std::to_string(mv) + "}",
                     &reply) &&
           JsonOk(reply);
      result.kinds["mutate"].Add(Seconds(mutate_due - start),
                                 Ms(mutate_due, Clock::now()), ok,
                                 limits.at("mutate"));
      if (ok) ++mutations;
      ok = conn.Call("{\"cmd\":\"series\",\"name\":\"g\"}", &reply) &&
           JsonOk(reply);
      result.kinds["rescore"].Add(Seconds(mutate_due - start),
                                  Ms(mutate_due, Clock::now()), ok,
                                  limits.at("rescore"));
      if (ok && add && mutations % 2 == 1) {
        added = "{\"latest\":" + std::to_string(index) +
                ",\"reply\":" + reply + "}";
      }
    }
    if (mutations % 2 == 1) {  // Return the graph to its start.
      if (!conn.Call("{\"cmd\":\"remove_edge\",\"name\":\"g\",\"u\":" +
                         std::to_string(mu) + ",\"v\":" + std::to_string(mv) +
                         "}",
                     &reply) ||
          !JsonOk(reply)) {
        broken = true;
      }
    }
  });
  for (int c = 1; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      Conn conn(port);
      if (!conn.ok()) {
        broken = true;
        return;
      }
      ConnResult& result = results[static_cast<size_t>(c)];
      snd::Rng rng(seed * 1000003ULL + static_cast<uint64_t>(c));
      const double phase = static_cast<double>(c) / kConns;
      std::string reply;
      for (int64_t m = 0;; ++m) {
        const Clock::time_point due =
            due_at((static_cast<double>(m) + phase) / reads_per_s);
        if (due >= end) break;
        const bool is_series = rng.UniformReal() < 0.05;
        std::string request = "{\"cmd\":\"series\",\"name\":\"g\"}";
        if (!is_series) {
          const int64_t last = latest;
          const int64_t i = rng.UniformInt(last - kReadMargin, last - 1);
          request = JsonDistance(i, i + 1);
        }
        const bool sent = issue(conn, result, due, request, &reply);
        const char* kind = is_series ? "series" : "distance";
        result.kinds[kind].Add(Seconds(due - start), Ms(due, Clock::now()),
                               sent && JsonOk(reply),
                               limits.at(kind));
        if (!sent) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double window = Seconds(Clock::now() - start);
  const double cpu = CpuSeconds() - cpu0;
  std::map<std::string, KindSamples> kinds;
  std::vector<double> gen_lag;
  for (const ConnResult& result : results) {
    for (const auto& [name, samples] : result.kinds) kinds[name].Merge(samples);
    gen_lag.insert(gen_lag.end(), result.gen_lag_ms.begin(),
                   result.gen_lag_ms.end());
  }
  std::printf(
      "{\"window_s\":%s,\"client_busy_frac\":%s,\"broken\":%s,"
      "\"gen_lag_ms\":[%s,%s,%zu],\"latest\":%lld,\"kinds\":%s,"
      "\"scores\":%s],\"added\":%s}\n",
      Num(window).c_str(), Num(cpu / (window * kConns)).c_str(),
      broken ? "true" : "false", Num(Quantile(gen_lag, 0.5)).c_str(),
      Num(Quantile(gen_lag, 0.99)).c_str(), gen_lag.size(),
      static_cast<long long>(latest.load()), KindsJson(kinds).c_str(),
      scores.c_str(), added.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness gen <workload> <seed> <dir>\n"
               "       perfbench_harness fig12 <dir> <seed> <seconds> <trace>\n"
               "       perfbench_harness golden <dir> <first> <last>\n"
               "       perfbench_harness load <workload> <port> <dir> <seed> "
               "<seconds> <limits> <schedule>\n");
  return 2;
}

uint64_t U64(const char* s) { return std::strtoull(s, nullptr, 10); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "gen" && argc == 5) return Gen(argv[2], U64(argv[3]), argv[4]);
  if (cmd == "fig12" && argc == 6) {
    return Fig12(argv[2], U64(argv[3]), std::atof(argv[4]),
                 std::string(argv[5]) == "1");
  }
  if (cmd == "golden" && argc == 5) {
    return Golden(argv[2], U64(argv[3]), U64(argv[4]));
  }
  if (cmd == "load" && argc == 9) {
    const std::string workload = argv[2];
    const int port = std::atoi(argv[3]);
    const auto limits = ParseKeyValues(argv[7]);
    if (workload == "serve_hot") {
      return LoadHot(port, argv[4], U64(argv[5]), std::atof(argv[6]), limits);
    }
    if (workload == "serve_churn") {
      return LoadChurn(port, argv[4], U64(argv[5]), std::atof(argv[6]), limits,
                       ParseKeyValues(argv[8]));
    }
  }
  return Usage();
}
