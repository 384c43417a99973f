// In-process tests of the serving subsystem (snd/service/service.h):
// protocol error paths (malformed requests name the offending token),
// cache semantics (warm repeats and overlapping queries do zero
// SSSP/transport work, proven by the registry's snd.work.* rows), epoch
// invalidation on reload, append-only series retention, LRU bounds, and
// bitwise identity of service answers with direct SndCalculator calls
// across SSSP backends and thread counts.
#include "snd/service/service.h"

#include <cstdio>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "smoke_util.h"
#include "snd/core/snd.h"
#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/obs/metrics.h"
#include "snd/obs/names.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/service/options_parse.h"
#include "snd/service/result_cache.h"
#include "snd/util/thread_pool.h"
#include "snd/util/version.h"

namespace snd {
namespace {

std::string TestTempPath(const std::string& suffix) {
  return testing_util::SmokeTempPath("service", suffix);
}

// The service's counters as `stats` reports them: registry snapshots,
// read row by row.
using obs::SnapshotValue;
using Rows = std::vector<obs::MetricRow>;
int64_t Moved(const Rows& before, const Rows& after, std::string_view name) {
  return SnapshotValue(after, name) - SnapshotValue(before, name);
}

// Resident result-cache entries, as the `info` request reports them.
int64_t ResultSize(SndService* service) {
  const StatusOr<Response> info = service->Dispatch(Request(InfoRequest{}));
  EXPECT_TRUE(info.ok());
  return info.ok() ? std::get<InfoResponse>(*info).result_size : -1;
}

// A small fixture session: ring graph, short synthetic series, both
// written to temp files so the protocol's load-by-path commands work.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_path_ = TestTempPath("graph.edges");
    states_path_ = TestTempPath("states.txt");
    graph_ = GenerateRing(24, 2);
    SyntheticEvolution evolution(&graph_, 7);
    states_ = evolution.GenerateSeries(5, 6, {0.25, 0.05}, {0.25, 0.05}, {});
    ASSERT_TRUE(WriteEdgeList(graph_, graph_path_));
    ASSERT_TRUE(WriteStateSeries(states_, states_path_));
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(states_path_.c_str());
    ThreadPool::SetGlobalThreads(1);
  }

  // Loads the fixture into `service` under the name "g".
  void LoadFixture(SndService* service) {
    ASSERT_TRUE(service->Call("load_graph g " + graph_path_).ok);
    ASSERT_TRUE(service->Call("load_states g " + states_path_).ok);
  }

  std::string graph_path_;
  std::string states_path_;
  Graph graph_;
  std::vector<NetworkState> states_;
};

TEST_F(ServiceTest, MalformedRequestsNameTheOffendingToken) {
  SndService service;
  LoadFixture(&service);
  const struct {
    const char* request;
    const char* expected;
  } kCases[] = {
      {"frobnicate g", "unknown command 'frobnicate'"},
      {"load_graph", "load_graph: missing arguments"},
      {"load_graph g path extra", "unexpected token 'extra'"},
      {"load_graph bad|name somewhere", "invalid graph name 'bad|name'"},
      {"load_states nope somewhere", "unknown graph 'nope'"},
      {"append_state nope 1", "unknown graph 'nope'"},
      {"append_state g 1 0", "append_state: expected 24 opinion values"},
      {"distance g x 1", "invalid state index 'x'"},
      {"distance g -1 1", "invalid state index '-1'"},
      {"distance g 0 99",
       "state index '99' out of range (have 5 states)"},
      {"distance g 0 1 stray", "unexpected token 'stray'"},
      {"distance g 0 1 --model=bogus", "unknown --model value 'bogus'"},
      {"series g --sssp=slow", "unknown --sssp value 'slow'"},
      {"matrix g --frobnicate=1", "unrecognized flag '--frobnicate=1'"},
      {"distance g 0 1 --solver=simplex",
       "unrecognized flag '--solver=simplex'"},
      {"anomalies g --threads=0", "invalid --threads value '0'"},
      {"anomalies g --threads=1e3", "invalid --threads value '1e3'"},
      {"evict nope", "unknown graph 'nope'"},
      {"info extra", "unexpected token 'extra'"},
      {"help me", "unexpected token 'me'"},
      {"quit now", "unexpected token 'now'"},
      {"", "empty request"},
  };
  for (const auto& test_case : kCases) {
    const ServiceResponse response = service.Call(test_case.request);
    EXPECT_FALSE(response.ok) << test_case.request;
    EXPECT_NE(response.header.find(test_case.expected), std::string::npos)
        << test_case.request << " -> " << response.header;
  }
  // A full-length append with one bad value names that value.
  std::string append = "append_state g";
  for (int k = 0; k < 23; ++k) append += " 0";
  append += " 2";
  const ServiceResponse response = service.Call(append);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.header.find("invalid opinion value '2'"),
            std::string::npos)
      << response.header;
}

TEST_F(ServiceTest, LoadStatesRejectsMismatchedStateSize) {
  SndService service;
  LoadFixture(&service);
  const std::string small_path = TestTempPath("small_states.txt");
  const Graph small = GenerateRing(5, 1);
  SyntheticEvolution evolution(&small, 3);
  ASSERT_TRUE(WriteStateSeries(
      evolution.GenerateSeries(2, 2, {0.2, 0.0}, {0.2, 0.0}, {}),
      small_path));
  const ServiceResponse response =
      service.Call("load_states g " + small_path);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.header.find("state size does not match graph 'g'"),
            std::string::npos)
      << response.header;
  std::remove(small_path.c_str());
}

TEST_F(ServiceTest, WarmRepeatDoesZeroSsspOrTransportWork) {
  SndService service;
  LoadFixture(&service);
  const ServiceResponse cold = service.Call("distance g 0 1");
  ASSERT_TRUE(cold.ok) << cold.header;
  const Rows after_cold = service.metrics().Snapshot();
  EXPECT_EQ(SnapshotValue(after_cold, obs::kMetricCacheResultMisses), 1);
  EXPECT_GT(SnapshotValue(after_cold, obs::kMetricWorkSsspRuns), 0);
  EXPECT_GT(SnapshotValue(after_cold, obs::kMetricWorkTransportSolves), 0);

  const ServiceResponse warm = service.Call("distance g 0 1");
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.values.size(), 1u);
  EXPECT_EQ(warm.values[0], cold.values[0]);
  const Rows after_warm = service.metrics().Snapshot();
  EXPECT_EQ(Moved(after_cold, after_warm, obs::kMetricCacheResultHits), 1);
  EXPECT_EQ(Moved(after_cold, after_warm, obs::kMetricCacheResultMisses), 0);
  // The proof: not one SSSP, transport solve, or edge costing happened.
  EXPECT_EQ(Moved(after_cold, after_warm, obs::kMetricWorkSsspRuns), 0);
  EXPECT_EQ(
      Moved(after_cold, after_warm, obs::kMetricWorkTransportSolves), 0);
  EXPECT_EQ(Moved(after_cold, after_warm, obs::kMetricWorkEdgeCostBuilds),
            0);
  // One calculator served both requests.
  EXPECT_EQ(SnapshotValue(after_warm, obs::kMetricCacheCalcBuilds), 1);
  EXPECT_EQ(SnapshotValue(after_warm, obs::kMetricCacheCalcHits), 1);
}

TEST_F(ServiceTest, SeriesIsServedEntirelyFromAnEarlierMatrix) {
  SndService service;
  LoadFixture(&service);
  const ServiceResponse matrix = service.Call("matrix g");
  ASSERT_TRUE(matrix.ok) << matrix.header;
  const Rows after_matrix = service.metrics().Snapshot();

  const ServiceResponse series = service.Call("series g");
  ASSERT_TRUE(series.ok) << series.header;
  const Rows after_series = service.metrics().Snapshot();
  // Adjacent pairs are a subset of the matrix's unordered pairs: all
  // hits, zero new misses, zero new work of any kind.
  const auto moved = [&](std::string_view name) {
    return Moved(after_matrix, after_series, name);
  };
  EXPECT_EQ(moved(obs::kMetricCacheResultMisses), 0);
  EXPECT_EQ(moved(obs::kMetricCacheResultHits),
            static_cast<int64_t>(states_.size()) - 1);
  EXPECT_EQ(moved(obs::kMetricWorkSsspRuns), 0);
  EXPECT_EQ(moved(obs::kMetricWorkTransportSolves), 0);
  EXPECT_EQ(moved(obs::kMetricWorkEdgeCostBuilds), 0);
  // And the values agree with the matrix diagonal band.
  const auto n = static_cast<size_t>(states_.size());
  for (size_t t = 0; t + 1 < n; ++t) {
    EXPECT_EQ(series.values[t], matrix.values[t * n + (t + 1)]) << t;
  }
}

TEST_F(ServiceTest, ReversedDistanceQueriesShareCacheEntries) {
  SndService service;
  LoadFixture(&service);
  const ServiceResponse forward = service.Call("distance g 1 3");
  ASSERT_TRUE(forward.ok) << forward.header;
  const Rows before = service.metrics().Snapshot();
  // SND is symmetric and pairs are canonicalized, so the reversed query
  // is a pure cache hit with the identical value.
  const ServiceResponse reversed = service.Call("distance g 3 1");
  ASSERT_TRUE(reversed.ok) << reversed.header;
  EXPECT_EQ(reversed.values[0], forward.values[0]);
  const Rows after = service.metrics().Snapshot();
  EXPECT_EQ(Moved(before, after, obs::kMetricCacheResultMisses), 0);
  EXPECT_EQ(Moved(before, after, obs::kMetricCacheResultHits), 1);
  EXPECT_EQ(Moved(before, after, obs::kMetricWorkSsspRuns), 0);
  EXPECT_EQ(Moved(before, after, obs::kMetricWorkTransportSolves), 0);
}

TEST_F(ServiceTest, ReloadBumpsEpochAndInvalidatesCachedResults) {
  SndService service;
  LoadFixture(&service);
  const ServiceResponse first = service.Call("distance g 0 1");
  ASSERT_TRUE(first.ok);
  const Rows before = service.metrics().Snapshot();
  EXPECT_GT(ResultSize(&service), 0);

  // Reload the same graph file: a new epoch, even with identical bytes.
  const ServiceResponse reload = service.Call("load_graph g " + graph_path_);
  ASSERT_TRUE(reload.ok) << reload.header;
  EXPECT_NE(reload.header.find("epoch"), std::string::npos);
  EXPECT_EQ(ResultSize(&service), 0);  // Eagerly purged.

  // States were reset by the reload; the old query is recomputed from
  // scratch under the new epoch.
  DistanceRequest stale_request;
  stale_request.name = "g";
  stale_request.i = 0;
  stale_request.j = 1;
  const StatusOr<Response> stale = service.Dispatch(Request(stale_request));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(stale.status().message(),
            "distance: no states loaded (have 0 states)");
  ASSERT_TRUE(service.Call("load_states g " + states_path_).ok);
  const ServiceResponse recomputed = service.Call("distance g 0 1");
  ASSERT_TRUE(recomputed.ok);
  EXPECT_EQ(recomputed.values[0], first.values[0]);  // Same data, same value.
  const Rows after = service.metrics().Snapshot();
  EXPECT_EQ(Moved(before, after, obs::kMetricCacheResultMisses), 1);
  EXPECT_GT(Moved(before, after, obs::kMetricWorkSsspRuns), 0);
  // New epoch, new calculator.
  EXPECT_EQ(SnapshotValue(after, obs::kMetricCacheCalcBuilds), 2);
}

TEST_F(ServiceTest, AppendStateKeepsExistingCacheEntriesValid) {
  SndService service;
  LoadFixture(&service);
  ASSERT_TRUE(service.Call("series g").ok);
  const Rows before = service.metrics().Snapshot();

  // Append a copy of the last state through the protocol.
  std::string append = "append_state g";
  const NetworkState& last = states_.back();
  for (int32_t u = 0; u < last.num_users(); ++u) {
    append += " " + std::to_string(static_cast<int>(last.value(u)));
  }
  ASSERT_TRUE(service.Call(append).ok);

  // The extended series recomputes only the one new transition; every
  // earlier transition is a hit because states_epoch did not move.
  const ServiceResponse series = service.Call("series g");
  ASSERT_TRUE(series.ok);
  EXPECT_EQ(series.values.size(), states_.size());
  const Rows after = service.metrics().Snapshot();
  EXPECT_EQ(Moved(before, after, obs::kMetricCacheResultMisses), 1);
  EXPECT_EQ(Moved(before, after, obs::kMetricCacheResultHits),
            static_cast<int64_t>(states_.size()) - 1);
  EXPECT_EQ(series.values.back(), 0.0);  // Identical adjacent states.
}

TEST_F(ServiceTest, AnswersAreBitwiseIdenticalToDirectCalculatorCalls) {
  SndService service;
  LoadFixture(&service);
  const int32_t hw = ThreadPool::DefaultThreads();
  const std::vector<int32_t> thread_counts =
      hw > 2 ? std::vector<int32_t>{1, 2, hw} : std::vector<int32_t>{1, 2};
  for (const char* backend : {"auto", "dijkstra", "dial"}) {
    const std::string flag = std::string("--sssp=") + backend;
    const auto parsed = ParseSndFlags({flag});
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const SndCalculator direct(&graph_, parsed->options);
    const double expected_distance = direct.Distance(states_[1], states_[3]);
    const std::vector<double> expected_series =
        direct.AdjacentDistanceSeries(states_);
    for (const int32_t threads : thread_counts) {
      ThreadPool::SetGlobalThreads(threads);
      const ServiceResponse distance = service.Call(
          "distance g 1 3 " + flag + " --threads=" + std::to_string(threads));
      ASSERT_TRUE(distance.ok) << distance.header;
      EXPECT_EQ(distance.values[0], expected_distance)
          << backend << " threads=" << threads;
      const ServiceResponse series = service.Call("series g " + flag);
      ASSERT_TRUE(series.ok) << series.header;
      ASSERT_EQ(series.values.size(), expected_series.size());
      for (size_t t = 0; t < expected_series.size(); ++t) {
        EXPECT_EQ(series.values[t], expected_series[t])
            << backend << " threads=" << threads << " t=" << t;
      }
    }
  }
}

TEST_F(ServiceTest, EvictDropsTheSessionAndItsArtifacts) {
  SndService service;
  LoadFixture(&service);
  ASSERT_TRUE(service.Call("distance g 0 1").ok);
  EXPECT_GT(ResultSize(&service), 0);
  const ServiceResponse evict = service.Call("evict g");
  ASSERT_TRUE(evict.ok) << evict.header;
  EXPECT_EQ(ResultSize(&service), 0);
  EXPECT_FALSE(service.Call("distance g 0 1").ok);
}

TEST_F(ServiceTest, ResultCacheRespectsItsBound) {
  SndServiceConfig config;
  config.result_cache_capacity = 2;
  SndService service(config);
  LoadFixture(&service);
  ASSERT_TRUE(service.Call("distance g 0 1").ok);
  ASSERT_TRUE(service.Call("distance g 0 2").ok);
  ASSERT_TRUE(service.Call("distance g 0 3").ok);
  EXPECT_LE(ResultSize(&service), 2);
  EXPECT_GE(SnapshotValue(service.metrics().Snapshot(),
                          obs::kMetricCacheResultEvictions),
            1);
}

TEST_F(ServiceTest, ServeStreamRunsAScriptedSessionAndStopsAtQuit) {
  SndService service;
  std::istringstream in(
      "# a comment and a blank line are ignored\n"
      "\n"
      "load_graph g " + graph_path_ + "\n" +
      "load_states g " + states_path_ + "\n" +
      "distance g 0 1\n"
      "nonsense\n"
      "quit\n"
      "distance g 0 1\n");
  std::ostringstream out;
  service.ServeStream(in, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("ok graph g nodes 24"), std::string::npos) << text;
  EXPECT_NE(text.find("ok states g count 5"), std::string::npos) << text;
  EXPECT_NE(text.find("ok distance g 0 1 "), std::string::npos) << text;
  EXPECT_NE(text.find("error unknown command 'nonsense'"),
            std::string::npos)
      << text;
  // The session ends at quit: exactly one distance response was written.
  EXPECT_NE(text.find("ok bye"), std::string::npos) << text;
  const size_t first = text.find("ok distance");
  EXPECT_EQ(text.find("ok distance", first + 1), std::string::npos) << text;
}

TEST_F(ServiceTest, InfoReportsSessionsCachesAndWorkCounters) {
  SndService service;
  LoadFixture(&service);
  ASSERT_TRUE(service.Call("distance g 0 1").ok);
  ASSERT_TRUE(service.Call("distance g 0 1").ok);
  const ServiceResponse info = service.Call("info");
  ASSERT_TRUE(info.ok) << info.header;
  ASSERT_EQ(info.rows.size(), 5u);
  EXPECT_NE(info.rows[0].find("graph g nodes 24"), std::string::npos);
  EXPECT_NE(info.rows[1].find("calculators size 1"), std::string::npos);
  EXPECT_NE(info.rows[2].find("hits 1 misses 1"), std::string::npos)
      << info.rows[2];
  EXPECT_NE(info.rows[3].find("work sssp_runs"), std::string::npos);
  EXPECT_NE(info.rows[4].find("threads "), std::string::npos);
}

TEST_F(ServiceTest, TypedDispatchMatchesTextProtocolBitwise) {
  SndService service;
  LoadFixture(&service);
  // Typed path: no strings anywhere.
  DistanceRequest typed;
  typed.name = "g";
  typed.i = 1;
  typed.j = 3;
  const StatusOr<Response> dispatched = service.Dispatch(Request(typed));
  ASSERT_TRUE(dispatched.ok()) << dispatched.status().ToString();
  const auto* distance = std::get_if<DistanceResponse>(&*dispatched);
  ASSERT_NE(distance, nullptr);
  // Text path over the same service: same cache, same value, bitwise.
  const ServiceResponse text = service.Call("distance g 1 3");
  ASSERT_TRUE(text.ok) << text.header;
  ASSERT_EQ(text.values.size(), 1u);
  EXPECT_EQ(text.values[0], distance->value);
  // And the typed error side carries codes, not just strings.
  typed.name = "nope";
  const StatusOr<Response> missing = service.Dispatch(Request(typed));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(missing.status().message(), "unknown graph 'nope'");
}

TEST_F(ServiceTest, VersionIsServedOnBothTheTypedAndTextPaths) {
  SndService service;
  const StatusOr<Response> typed = service.Dispatch(Request(VersionRequest{}));
  ASSERT_TRUE(typed.ok());
  const auto* version = std::get_if<VersionResponse>(&*typed);
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->version, VersionString());
  const ServiceResponse text = service.Call("version");
  ASSERT_TRUE(text.ok) << text.header;
  EXPECT_EQ(text.header, std::string("version ") + VersionString());
  EXPECT_FALSE(service.Call("version now").ok);
}

// The `info` ordering contract: sessions sorted by name, then the
// calculators / results / work / threads rows, counters in fixed field
// order. Locked in so scripted diffs and scrapes stay stable.
TEST_F(ServiceTest, InfoOrderingIsDocumentedAndDeterministic) {
  SndService service;
  // Load under names that sort opposite to their load order.
  ASSERT_TRUE(service.Call("load_graph zz " + graph_path_).ok);
  ASSERT_TRUE(service.Call("load_graph aa " + graph_path_).ok);
  const ServiceResponse info = service.Call("info");
  ASSERT_TRUE(info.ok) << info.header;
  ASSERT_EQ(info.rows.size(), 6u);
  EXPECT_EQ(info.rows[0].rfind("graph aa nodes 24 edges ", 0), 0u)
      << info.rows[0];
  EXPECT_EQ(info.rows[1].rfind("graph zz nodes 24 edges ", 0), 0u)
      << info.rows[1];
  EXPECT_EQ(info.rows[2].rfind("calculators size ", 0), 0u) << info.rows[2];
  EXPECT_NE(info.rows[2].find(" capacity "), std::string::npos);
  EXPECT_NE(info.rows[2].find(" builds "), std::string::npos);
  EXPECT_NE(info.rows[2].find(" hits "), std::string::npos);
  EXPECT_EQ(info.rows[3].rfind("results size ", 0), 0u) << info.rows[3];
  EXPECT_NE(info.rows[3].find(" misses "), std::string::npos);
  EXPECT_NE(info.rows[3].find(" evictions "), std::string::npos);
  EXPECT_EQ(info.rows[4].rfind("work sssp_runs ", 0), 0u) << info.rows[4];
  EXPECT_NE(info.rows[4].find(" transport_solves "), std::string::npos);
  EXPECT_NE(info.rows[4].find(" edge_cost_builds "), std::string::npos);
  EXPECT_EQ(info.rows[5].rfind("threads ", 0), 0u) << info.rows[5];
  // Deterministic: an identical second snapshot renders identically.
  const ServiceResponse again = service.Call("info");
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.rows, info.rows);
}

// Unit coverage for the LRU itself, independent of the dispatcher.
// Sink counters for a bare cache; the service passes registry-backed
// ones.
struct CacheCounters {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter evictions;
  ResultCache::CounterSinks sinks() {
    return {&hits, &misses, &evictions};
  }
};

TEST(ResultCacheTest, LruEvictionAndPrefixErase) {
  CacheCounters counters;
  ResultCache cache(2, counters.sinks());
  cache.Put("a|1", 1.0);
  cache.Put("b|1", 2.0);
  EXPECT_EQ(cache.Get("a|1"), 1.0);  // Touch: "b|1" is now LRU.
  cache.Put("c|1", 3.0);             // Evicts "b|1".
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(counters.evictions.Value(), 1);
  EXPECT_FALSE(cache.Get("b|1").has_value());
  EXPECT_EQ(cache.Get("a|1"), 1.0);
  EXPECT_EQ(cache.Get("c|1"), 3.0);
  EXPECT_EQ(cache.EraseMatchingPrefix("a|"), 1u);
  EXPECT_FALSE(cache.Get("a|1").has_value());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, PutRefreshesExistingKeys) {
  CacheCounters counters;
  ResultCache cache(4, counters.sinks());
  cache.Put("k", 1.0);
  cache.Put("k", 2.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("k"), 2.0);
  EXPECT_EQ(counters.hits.Value(), 1);
}

TEST(ResultCacheTest, GetAllIsAllOrNothing) {
  CacheCounters counters;
  ResultCache cache(3, counters.sinks());
  cache.Put("a", 1.0);
  cache.Put("b", 2.0);
  cache.Put("c", 3.0);  // LRU order, oldest first: a, b, c.
  std::vector<double> values;
  // One key missing: no value, no count, no touch.
  EXPECT_FALSE(cache.GetAll({"a", "x"}, &values));
  EXPECT_EQ(counters.hits.Value(), 0);
  EXPECT_EQ(counters.misses.Value(), 0);
  cache.Put("d", 4.0);  // Still evicts "a", the untouched LRU.
  EXPECT_EQ(counters.evictions.Value(), 1);
  // All resident: values in key order, one hit and one touch each.
  ASSERT_TRUE(cache.GetAll({"c", "b"}, &values));
  EXPECT_EQ(values, (std::vector<double>{3.0, 2.0}));
  EXPECT_EQ(counters.hits.Value(), 2);
  cache.Put("e", 5.0);  // "d" is now the LRU.
  EXPECT_FALSE(cache.Get("d").has_value());
  EXPECT_EQ(cache.Get("b"), 2.0);
  EXPECT_EQ(cache.Get("c"), 3.0);
}

// The calculator and result caches are keyed on SndOptionsSignature, so
// every knob that can move a value must move the signature, and nothing
// else may.
TEST(SndOptionsSignatureTest, EveryValueKnobChangesTheSignature) {
  const std::vector<std::function<void(SndOptions*)>> edits{
      [](SndOptions* o) { o->model = GroundModelKind::kIndependentCascade; },
      [](SndOptions* o) { o->model = GroundModelKind::kLinearThreshold; },
      [](SndOptions* o) { o->bank_strategy = BankStrategy::kSingleGlobal; },
      [](SndOptions* o) { o->bank_strategy = BankStrategy::kPerCluster; },
      [](SndOptions* o) { o->banks_per_cluster = 2; },
      [](SndOptions* o) { o->gamma_policy = GammaPolicy::kFixed; },
      [](SndOptions* o) { o->gamma_scale = 1.0 + 1e-15; },
      [](SndOptions* o) { o->fixed_gamma = 8.5; },
      [](SndOptions* o) { o->clustering_seed = 43; },
      [](SndOptions* o) { o->lp_max_iterations = 21; },
      [](SndOptions* o) { o->lp_min_community_size = 5; },
      [](SndOptions* o) { o->sssp_backend = SsspBackend::kDijkstra; },
      [](SndOptions* o) { o->sssp_backend = SsspBackend::kDial; },
      [](SndOptions* o) { o->sssp_backend = SsspBackend::kDeltaStepping; },
  };
  std::set<std::string> seen{SndOptionsSignature(SndOptions{})};
  for (size_t k = 0; k < edits.size(); ++k) {
    SndOptions options;
    edits[k](&options);
    EXPECT_TRUE(seen.insert(SndOptionsSignature(options)).second)
        << "edit " << k << " collides: " << SndOptionsSignature(options);
  }
}

TEST(SndOptionsSignatureTest, ThreadingKnobsLeaveTheSignatureAlone) {
  const std::string base = SndOptionsSignature(SndOptions{});
  // --threads is returned beside the options, never inside them.
  const auto parsed = ParseSndFlags({"--threads=2"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->threads, 2);
  EXPECT_EQ(SndOptionsSignature(parsed->options), base);
}

}  // namespace
}  // namespace snd
