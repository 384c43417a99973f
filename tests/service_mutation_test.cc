// In-process tests of the incremental mutation & streaming path added
// by the mutable-epoch refactor: typed add_edge/remove_edge semantics
// and validation, graph sub-epoch bookkeeping in `info`, bitwise
// identity of post-mutation answers with a from-scratch rebuild,
// targeted cache invalidation doing strictly less work than a full
// reload on a warm 10k-node session, sliding-window state retention
// with global indices, and the Subscribe streaming API (backlog, live
// appends, termination reasons).
#include "snd/service/service.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "smoke_util.h"
#include "snd/core/snd.h"
#include "snd/graph/graph.h"
#include "snd/graph/io.h"
#include "snd/obs/metrics.h"
#include "snd/obs/names.h"
#include "snd/opinion/network_state.h"
#include "snd/opinion/state_io.h"
#include "snd/util/thread_pool.h"

namespace snd {
namespace {

std::string MutTempPath(const std::string& suffix) {
  return testing_util::SmokeTempPath("service_mutation", suffix);
}

// A bidirectional ring on [lo, hi).
void AppendRing(int32_t lo, int32_t hi, std::vector<Edge>* edges) {
  for (int32_t u = lo; u < hi; ++u) {
    const int32_t v = u + 1 < hi ? u + 1 : lo;
    edges->push_back({u, v});
    edges->push_back({v, u});
  }
}

// Extracts the integer following `field` in a response header, e.g.
// HeaderField("ok add_edge g 0 2 edges 7 sub_epoch 4 ...", "edges") == 7.
int64_t HeaderField(const std::string& header, const std::string& field) {
  const size_t pos = header.find(" " + field + " ");
  EXPECT_NE(pos, std::string::npos) << header;
  if (pos == std::string::npos) return -1;
  return std::stoll(header.substr(pos + field.size() + 2));
}

// The value token (third column) of every "i j value" data row.
std::vector<std::string> RowValues(const ServiceResponse& response) {
  std::vector<std::string> values;
  for (const std::string& row : response.rows) {
    const size_t last_space = row.rfind(' ');
    EXPECT_NE(last_space, std::string::npos) << row;
    values.push_back(row.substr(last_space + 1));
  }
  return values;
}

// Small fixture: 16-node bidirectional ring with one chord, 3
// hand-rolled states, loaded from temp files under the name "g".
class ServiceMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_path_ = MutTempPath("graph.edges");
    states_path_ = MutTempPath("states.txt");
    std::vector<Edge> edges;
    AppendRing(0, 16, &edges);
    edges.push_back({0, 8});
    graph_ = Graph::FromEdges(16, std::move(edges));
    std::vector<int8_t> s0(16, 0), s1(16, 0), s2(16, 0);
    s0[1] = 1;
    s0[4] = -1;
    s1[1] = 1;
    s1[5] = 1;
    s1[12] = -1;
    s2[5] = 1;
    s2[12] = -1;
    s2[13] = -1;
    states_ = {NetworkState::FromValues(s0), NetworkState::FromValues(s1),
               NetworkState::FromValues(s2)};
    ASSERT_TRUE(WriteEdgeList(graph_, graph_path_));
    ASSERT_TRUE(WriteStateSeries(states_, states_path_));
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(states_path_.c_str());
    ThreadPool::SetGlobalThreads(1);
  }

  void LoadFixture(SndService* service, const std::string& name = "g") {
    ASSERT_TRUE(service->Call("load_graph " + name + " " + graph_path_).ok);
    ASSERT_TRUE(service->Call("load_states " + name + " " + states_path_).ok);
  }

  std::string graph_path_;
  std::string states_path_;
  Graph graph_;
  std::vector<NetworkState> states_;
};

TEST_F(ServiceMutationTest, MutationRequestsValidateArguments) {
  SndService service;
  LoadFixture(&service);
  const struct {
    const char* request;
    const char* expected;
  } kCases[] = {
      {"add_edge nope 0 1", "unknown graph 'nope'"},
      {"add_edge g 99 0", "node index '99' out of range (have 16 nodes)"},
      {"add_edge g 0 99", "node index '99' out of range (have 16 nodes)"},
      {"add_edge g x 0", "invalid node index 'x'"},
      {"add_edge g 3 3", "add_edge: self-loop 3->3 not allowed"},
      {"add_edge g 0 1", "edge 0->1 already exists in graph 'g'"},
      {"add_edge g 0", "add_edge: missing arguments"},
      {"add_edge g 0 1 extra", "unexpected token 'extra'"},
      {"remove_edge g 0 5", "no edge 0->5 in graph 'g'"},
      {"remove_edge nope 0 1", "unknown graph 'nope'"},
      {"remove_edge g 0", "remove_edge: missing arguments"},
      {"subscribe g", "subscribe requires a streaming connection"},
      {"subscribe g --from=x", "invalid --from value 'x'"},
      {"subscribe g --count=-1", "invalid --count value '-1'"},
  };
  for (const auto& test_case : kCases) {
    const ServiceResponse response = service.Call(test_case.request);
    EXPECT_FALSE(response.ok) << test_case.request;
    EXPECT_NE(response.header.find(test_case.expected), std::string::npos)
        << test_case.request << " -> " << response.header;
  }
}

TEST_F(ServiceMutationTest, MutationBumpsSubEpochAndReportsTopology) {
  SndService service;
  LoadFixture(&service);
  const int64_t m = graph_.num_edges();

  const ServiceResponse added = service.Call("add_edge g 2 9");
  ASSERT_TRUE(added.ok) << added.header;
  EXPECT_EQ(added.header.rfind("add_edge g 2 9 edges ", 0), 0u)
      << added.header;
  EXPECT_EQ(HeaderField(added.header, "edges"), m + 1);
  const int64_t sub_after_add = HeaderField(added.header, "sub_epoch");

  const ServiceResponse removed = service.Call("remove_edge g 2 9");
  ASSERT_TRUE(removed.ok) << removed.header;
  EXPECT_EQ(HeaderField(removed.header, "edges"), m);
  EXPECT_GT(HeaderField(removed.header, "sub_epoch"), sub_after_add);

  // info reports the live sub-epoch and the retention window origin.
  const ServiceResponse info = service.Call("info");
  ASSERT_TRUE(info.ok);
  ASSERT_FALSE(info.rows.empty());
  EXPECT_NE(info.rows[0].find(" sub_epoch "), std::string::npos)
      << info.rows[0];
  EXPECT_NE(info.rows[0].find(" first_state 0"), std::string::npos)
      << info.rows[0];
  EXPECT_EQ(HeaderField(info.rows[0], "edges"), m);
}

// The determinism contract: every answer after a mutation is bitwise
// identical to a fresh session rebuilt from the mutated inputs, and
// undoing the mutation restores the original answers bitwise.
TEST_F(ServiceMutationTest, MutationAnswersMatchFreshRebuildBitwise) {
  SndService warm;
  LoadFixture(&warm);
  const std::vector<std::string> kQueries = {
      "distance g 0 1", "distance g 0 2", "series g",
      "matrix g",       "anomalies g",
  };
  std::vector<ServiceResponse> original;
  for (const std::string& query : kQueries) original.push_back(warm.Call(query));

  ASSERT_TRUE(warm.Call("add_edge g 3 11").ok);
  ASSERT_TRUE(warm.Call("remove_edge g 0 8").ok);

  // Fresh oracle over the mutated edge set.
  Graph mutated = [&] {
    std::vector<Edge> edges = graph_.ToEdgeList();
    edges.push_back({3, 11});
    std::vector<Edge> kept;
    for (const Edge& e : edges) {
      if (!(e.src == 0 && e.dst == 8)) kept.push_back(e);
    }
    return Graph::FromEdges(16, std::move(kept));
  }();
  const std::string mutated_path = MutTempPath("mutated.edges");
  ASSERT_TRUE(WriteEdgeList(mutated, mutated_path));
  SndService fresh;
  ASSERT_TRUE(fresh.Call("load_graph g " + mutated_path).ok);
  ASSERT_TRUE(fresh.Call("load_states g " + states_path_).ok);
  for (const std::string& query : kQueries) {
    const ServiceResponse a = warm.Call(query);
    const ServiceResponse b = fresh.Call(query);
    EXPECT_EQ(a.header, b.header) << query;
    EXPECT_EQ(a.rows, b.rows) << query;
  }
  std::remove(mutated_path.c_str());

  // Undo both mutations: answers must return to the originals bitwise.
  ASSERT_TRUE(warm.Call("remove_edge g 3 11").ok);
  ASSERT_TRUE(warm.Call("add_edge g 0 8").ok);
  for (size_t k = 0; k < kQueries.size(); ++k) {
    const ServiceResponse again = warm.Call(kQueries[k]);
    EXPECT_EQ(again.header, original[k].header) << kQueries[k];
    EXPECT_EQ(again.rows, original[k].rows) << kQueries[k];
  }
}

// The acceptance bar of the refactor: on a warm 10k-node session, one
// add_edge followed by re-asking the warm query must run strictly fewer
// SSSPs and strictly fewer full edge costings than a cold session would
// spend answering the same query over the mutated graph — while
// answering bitwise identically.
TEST_F(ServiceMutationTest, TargetedInvalidationBeatsFullReloadWarm10k) {
  // 9990-node main ring (all activity) plus a detached 10-node ring:
  // mutating inside the detached component cannot change any distance
  // row a term of the main component reads, so every cached result
  // survives the certificate check.
  constexpr int32_t kMain = 9990;
  constexpr int32_t kTotal = 10000;
  std::vector<Edge> edges;
  AppendRing(0, kMain, &edges);
  AppendRing(kMain, kTotal, &edges);
  const Graph big = Graph::FromEdges(kTotal, std::move(edges));
  std::vector<int8_t> s0(kTotal, 0), s1(kTotal, 0);
  for (int32_t k = 0; k < 12; ++k) {
    s0[static_cast<size_t>(k * 700 + 3)] = static_cast<int8_t>(k % 2 ? 1 : -1);
    s1[static_cast<size_t>(k * 700 + 40)] = static_cast<int8_t>(k % 2 ? -1 : 1);
  }
  s1[3] = 1;
  const std::vector<NetworkState> big_states = {NetworkState::FromValues(s0),
                                                NetworkState::FromValues(s1)};
  const std::string big_graph = MutTempPath("big.edges");
  const std::string big_states_path = MutTempPath("big.states");
  ASSERT_TRUE(WriteEdgeList(big, big_graph));
  ASSERT_TRUE(WriteStateSeries(big_states, big_states_path));

  SndService warm;
  ASSERT_TRUE(warm.Call("load_graph g " + big_graph).ok);
  ASSERT_TRUE(warm.Call("load_states g " + big_states_path).ok);
  const ServiceResponse cold_answer = warm.Call("distance g 0 1");
  ASSERT_TRUE(cold_answer.ok) << cold_answer.header;

  const std::vector<obs::MetricRow> before = warm.metrics().Snapshot();
  const ServiceResponse mutated = warm.Call("add_edge g 9990 9992");
  ASSERT_TRUE(mutated.ok) << mutated.header;
  // The warm query's cached result survives the mutation: its term
  // sources all live in the main component.
  EXPECT_GE(HeaderField(mutated.header, "retained"), 1) << mutated.header;
  const ServiceResponse warm_answer = warm.Call("distance g 0 1");
  ASSERT_TRUE(warm_answer.ok);
  const std::vector<obs::MetricRow> after = warm.metrics().Snapshot();

  // Full-reload baseline: a cold service answering the same query over
  // the already-mutated graph.
  SndService cold;
  const std::string mutated_path = MutTempPath("big_mutated.edges");
  {
    std::vector<Edge> mutated_edges = big.ToEdgeList();
    mutated_edges.push_back({9990, 9992});
    ASSERT_TRUE(WriteEdgeList(Graph::FromEdges(kTotal, std::move(mutated_edges)),
                              mutated_path));
  }
  ASSERT_TRUE(cold.Call("load_graph g " + mutated_path).ok);
  ASSERT_TRUE(cold.Call("load_states g " + big_states_path).ok);
  const std::vector<obs::MetricRow> cold_before = cold.metrics().Snapshot();
  const ServiceResponse cold_mutated_answer = cold.Call("distance g 0 1");
  ASSERT_TRUE(cold_mutated_answer.ok);
  const std::vector<obs::MetricRow> cold_after = cold.metrics().Snapshot();

  // Bitwise identity: warm incremental == cold rebuild == pre-mutation
  // (the added edge is unreachable from every active user).
  EXPECT_EQ(warm_answer.header, cold_mutated_answer.header);
  EXPECT_EQ(warm_answer.header, cold_answer.header);

  const auto moved = [](const std::vector<obs::MetricRow>& from,
                        const std::vector<obs::MetricRow>& to,
                        std::string_view name) {
    return obs::SnapshotValue(to, name) - obs::SnapshotValue(from, name);
  };
  const int64_t warm_sssp = moved(before, after, obs::kMetricWorkSsspRuns);
  const int64_t warm_builds =
      moved(before, after, obs::kMetricWorkEdgeCostBuilds);
  const int64_t cold_sssp =
      moved(cold_before, cold_after, obs::kMetricWorkSsspRuns);
  const int64_t cold_builds =
      moved(cold_before, cold_after, obs::kMetricWorkEdgeCostBuilds);
  EXPECT_LT(warm_sssp, cold_sssp)
      << "warm " << warm_sssp << " vs cold " << cold_sssp;
  EXPECT_LT(warm_builds, cold_builds)
      << "warm " << warm_builds << " vs cold " << cold_builds;
  // The carried-over costings are patches, not full model evaluations.
  EXPECT_GT(moved(before, after, obs::kMetricWorkEdgeCostPatches), 0);

  std::remove(big_graph.c_str());
  std::remove(big_states_path.c_str());
  std::remove(mutated_path.c_str());
}

// A pair whose terms all search from the bank side (few users hold an
// opinion in one state, many in the other). Its cached value must
// survive a mutation that cannot touch its distance rows, and every
// answer must stay bitwise equal to a rebuild on the mutated graph.
TEST_F(ServiceMutationTest, BankSideSearchedPairMatchesRebuildAcrossMutations) {
  constexpr int32_t kMain = 40;
  constexpr int32_t kTotal = 46;
  std::vector<Edge> edges;
  AppendRing(0, kMain, &edges);
  AppendRing(kMain, kTotal, &edges);  // Detached: holds no opinion.
  const Graph base = Graph::FromEdges(kTotal, std::move(edges));
  std::vector<int8_t> s0(kTotal, 0), s1(kTotal, 0);
  for (size_t u = 0; u < 20; ++u) s0[u] = 1;
  s0[30] = -1;
  s0[31] = -1;
  for (size_t u = 21; u < kMain; ++u) s1[u] = -1;
  s1[0] = 1;
  s1[25] = 1;
  const std::vector<NetworkState> pair = {NetworkState::FromValues(s0),
                                          NetworkState::FromValues(s1)};
  {
    const SndCalculator calc(&base, SndOptions{});
    for (const SndTermResult& term : calc.Compute(pair[0], pair[1]).terms) {
      EXPECT_LT(term.num_searches,
                std::max(term.num_suppliers, term.num_consumers));
    }
  }
  const std::string base_path = MutTempPath("bank_side.edges");
  const std::string pair_path = MutTempPath("bank_side.states");
  ASSERT_TRUE(WriteEdgeList(base, base_path));
  ASSERT_TRUE(WriteStateSeries(pair, pair_path));
  SndService warm;
  ASSERT_TRUE(warm.Call("load_graph g " + base_path).ok);
  ASSERT_TRUE(warm.Call("load_states g " + pair_path).ok);
  const ServiceResponse original = warm.Call("distance g 0 1");
  ASSERT_TRUE(original.ok) << original.header;

  const std::string rebuilt_path = MutTempPath("bank_side_rebuilt.edges");
  auto expect_rebuild_equal = [&](std::vector<Edge> graph_edges,
                                  const std::string& label) {
    ASSERT_TRUE(WriteEdgeList(Graph::FromEdges(kTotal, std::move(graph_edges)),
                              rebuilt_path));
    SndService fresh;
    ASSERT_TRUE(fresh.Call("load_graph g " + rebuilt_path).ok);
    ASSERT_TRUE(fresh.Call("load_states g " + pair_path).ok);
    EXPECT_EQ(warm.Call("distance g 0 1").header,
              fresh.Call("distance g 0 1").header)
        << label;
  };
  std::vector<Edge> with_chord = base.ToEdgeList();
  with_chord.push_back({40, 43});

  // Inside the detached ring: no distance row of the pair changes, so
  // the cached value is retained.
  const ServiceResponse added = warm.Call("add_edge g 40 43");
  ASSERT_TRUE(added.ok) << added.header;
  EXPECT_GE(HeaderField(added.header, "retained"), 1) << added.header;
  expect_rebuild_equal(with_chord, "add_edge 40 43");
  const ServiceResponse removed = warm.Call("remove_edge g 40 43");
  ASSERT_TRUE(removed.ok) << removed.header;
  EXPECT_GE(HeaderField(removed.header, "retained"), 1) << removed.header;
  expect_rebuild_equal(base.ToEdgeList(), "remove_edge 40 43");

  // A shortcut across the main ring changes distance rows, so the pair
  // is searched again on the mutated graph.
  ASSERT_TRUE(warm.Call("add_edge g 10 30").ok);
  std::vector<Edge> with_shortcut = base.ToEdgeList();
  with_shortcut.push_back({10, 30});
  expect_rebuild_equal(with_shortcut, "add_edge 10 30");
  ASSERT_TRUE(warm.Call("remove_edge g 10 30").ok);
  expect_rebuild_equal(base.ToEdgeList(), "remove_edge 10 30");
  EXPECT_EQ(warm.Call("distance g 0 1").header, original.header);

  std::remove(base_path.c_str());
  std::remove(pair_path.c_str());
  std::remove(rebuilt_path.c_str());
}

TEST_F(ServiceMutationTest, RetentionWindowSlidesAndKeepsGlobalIndices) {
  SndServiceConfig config;
  config.state_retention = 3;
  SndService service(config);
  LoadFixture(&service);

  // 3 resident states fill the window exactly; the 4th append slides it.
  std::string append = "append_state g";
  for (int k = 0; k < 16; ++k) append += (k % 5 == 0) ? " 1" : " 0";
  ASSERT_TRUE(service.Call(append).ok);
  std::string append2 = "append_state g";
  for (int k = 0; k < 16; ++k) append2 += (k % 7 == 0) ? " -1" : " 0";
  ASSERT_TRUE(service.Call(append2).ok);

  const ServiceResponse info = service.Call("info");
  ASSERT_TRUE(info.ok);
  EXPECT_NE(info.rows[0].find(" states 3 "), std::string::npos)
      << info.rows[0];
  EXPECT_NE(info.rows[0].find(" first_state 2"), std::string::npos)
      << info.rows[0];

  // Departed indices are rejected by name, resident ones answer.
  const ServiceResponse gone = service.Call("distance g 1 2");
  EXPECT_FALSE(gone.ok);
  EXPECT_NE(gone.header.find(
                "state index '1' outside retained window [2, 5)"),
            std::string::npos)
      << gone.header;
  EXPECT_TRUE(service.Call("distance g 2 3").ok);
  EXPECT_TRUE(service.Call("distance g 4 4").ok);

  // Series rows carry global transition labels and match a fresh
  // session loaded with only the retained states (its local labels).
  const ServiceResponse series = service.Call("series g");
  ASSERT_TRUE(series.ok);
  ASSERT_EQ(series.rows.size(), 2u);
  EXPECT_EQ(series.rows[0].rfind("2 3 ", 0), 0u) << series.rows[0];
  EXPECT_EQ(series.rows[1].rfind("3 4 ", 0), 0u) << series.rows[1];

  std::vector<NetworkState> retained = {states_[2]};
  {
    std::vector<int8_t> v3(16, 0), v4(16, 0);
    for (int k = 0; k < 16; ++k) v3[static_cast<size_t>(k)] =
        (k % 5 == 0) ? 1 : 0;
    for (int k = 0; k < 16; ++k) v4[static_cast<size_t>(k)] =
        (k % 7 == 0) ? -1 : 0;
    retained.push_back(NetworkState::FromValues(v3));
    retained.push_back(NetworkState::FromValues(v4));
  }
  const std::string retained_path = MutTempPath("retained.states");
  ASSERT_TRUE(WriteStateSeries(retained, retained_path));
  SndService fresh;
  ASSERT_TRUE(fresh.Call("load_graph m " + graph_path_).ok);
  ASSERT_TRUE(fresh.Call("load_states m " + retained_path).ok);
  const ServiceResponse fresh_series = fresh.Call("series m");
  ASSERT_TRUE(fresh_series.ok);
  EXPECT_EQ(RowValues(series), RowValues(fresh_series));
  std::remove(retained_path.c_str());

  // Mutations compose with the slid window: the same global queries
  // stay valid and bitwise deterministic across an add/remove pair.
  const ServiceResponse pre = service.Call("distance g 3 4");
  ASSERT_TRUE(service.Call("add_edge g 2 13").ok);
  ASSERT_TRUE(service.Call("remove_edge g 2 13").ok);
  const ServiceResponse post = service.Call("distance g 3 4");
  EXPECT_EQ(pre.header, post.header);
}

TEST_F(ServiceMutationTest, SubscribeDeliversBacklogThenLiveAppends) {
  SndService service;
  LoadFixture(&service);

  // Backlog only: 3 states = transitions 0 and 1; count=2 terminates.
  SubscribeRequest backlog;
  backlog.name = "g";
  backlog.from = 0;
  backlog.count = 2;
  std::vector<SndService::SubscribeEvent> events;
  int64_t started_from = -1;
  const auto backlog_result = service.Subscribe(
      backlog, [&](int64_t from) { started_from = from; },
      [&](const SndService::SubscribeEvent& event) {
        events.push_back(event);
        return true;
      });
  ASSERT_TRUE(backlog_result.ok()) << backlog_result.status().message();
  EXPECT_EQ(started_from, 0);
  EXPECT_EQ(backlog_result->delivered, 2);
  EXPECT_EQ(backlog_result->reason, "count");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].transition, 0);
  EXPECT_EQ(events[1].transition, 1);

  // The streamed values are the same cached adjacent-SND answers the
  // request path serves.
  const ServiceResponse series = service.Call("series g");
  ASSERT_TRUE(series.ok);
  const std::vector<std::string> labels = RowValues(series);
  ASSERT_EQ(labels.size(), 2u);

  // Live: from=-1 waits for the next append; a writer thread supplies
  // two states, and the subscriber ends after the two new transitions.
  // The writer is gated on on_start so the subscription resolves its
  // starting transition before any append lands.
  SubscribeRequest live;
  live.name = "g";
  live.from = -1;
  live.count = 2;
  std::vector<int64_t> live_transitions;
  std::atomic<bool> subscribed{false};
  std::thread writer([&] {
    while (!subscribed.load()) std::this_thread::yield();
    // Two appends, each creating one new transition (2->3, 3->4).
    for (int round = 0; round < 2; ++round) {
      std::string append = "append_state g";
      for (int k = 0; k < 16; ++k) {
        append += (k % (3 + round) == 0) ? " 1" : " 0";
      }
      const ServiceResponse response = service.Call(append);
      if (!response.ok) std::abort();
    }
  });
  const auto live_result = service.Subscribe(
      live, [&](int64_t) { subscribed.store(true); },
      [&](const SndService::SubscribeEvent& event) {
        live_transitions.push_back(event.transition);
        return true;
      });
  writer.join();
  ASSERT_TRUE(live_result.ok()) << live_result.status().message();
  EXPECT_EQ(live_result->delivered, 2);
  EXPECT_EQ(live_result->reason, "count");
  ASSERT_EQ(live_transitions.size(), 2u);
  EXPECT_EQ(live_transitions[0], 2);
  EXPECT_EQ(live_transitions[1], 3);

  // Thread overrides are rejected at the Subscribe layer (a subscriber
  // must not swap the global pool mid-stream).
  SubscribeRequest threaded;
  threaded.name = "g";
  threaded.threads = 2;
  const auto threaded_result = service.Subscribe(
      threaded, nullptr,
      [&](const SndService::SubscribeEvent&) { return true; });
  ASSERT_FALSE(threaded_result.ok());
  EXPECT_NE(threaded_result.status().message().find(
                "subscribe does not accept --threads"),
            std::string::npos)
      << threaded_result.status().message();

  // A consumer returning false ends the stream with reason "closed".
  SubscribeRequest closing;
  closing.name = "g";
  closing.from = 0;
  const auto closed_result = service.Subscribe(
      closing, nullptr,
      [&](const SndService::SubscribeEvent&) { return false; });
  ASSERT_TRUE(closed_result.ok());
  EXPECT_EQ(closed_result->delivered, 0);
  EXPECT_EQ(closed_result->reason, "closed");
}

TEST_F(ServiceMutationTest, SubscribeEndsWhenSessionEvictedOrReplaced) {
  SndService service;
  LoadFixture(&service);

  // Eviction wakes and ends an idle subscriber.
  {
    std::atomic<bool> started{false};
    std::string reason;
    SubscribeRequest request;
    request.name = "g";
    request.from = -1;  // Nothing to deliver until an append or evict.
    std::thread subscriber([&] {
      const auto result = service.Subscribe(
          request, [&](int64_t) { started.store(true); },
          [&](const SndService::SubscribeEvent&) { return true; });
      if (result.ok()) reason = result->reason;
    });
    while (!started.load()) std::this_thread::yield();
    ASSERT_TRUE(service.Call("evict g").ok);
    subscriber.join();
    EXPECT_EQ(reason, "evicted");
  }

  // Reloading states moves the states epoch: stream ends "replaced".
  LoadFixture(&service);
  {
    std::atomic<bool> started{false};
    std::string reason;
    SubscribeRequest request;
    request.name = "g";
    request.from = -1;
    std::thread subscriber([&] {
      const auto result = service.Subscribe(
          request, [&](int64_t) { started.store(true); },
          [&](const SndService::SubscribeEvent&) { return true; });
      if (result.ok()) reason = result->reason;
    });
    while (!started.load()) std::this_thread::yield();
    ASSERT_TRUE(service.Call("load_states g " + states_path_).ok);
    subscriber.join();
    EXPECT_EQ(reason, "replaced");
  }

  // A subscribe below the retained window is rejected up front. (The
  // cap is enforced as states arrive: one append slides the window.)
  SndServiceConfig config;
  config.state_retention = 2;
  SndService windowed(config);
  ASSERT_TRUE(windowed.Call("load_graph g " + graph_path_).ok);
  ASSERT_TRUE(windowed.Call("load_states g " + states_path_).ok);
  std::string append = "append_state g";
  for (int k = 0; k < 16; ++k) append += " 0";
  ASSERT_TRUE(windowed.Call(append).ok);
  SubscribeRequest below;
  below.name = "g";
  below.from = 0;
  const auto rejected = windowed.Subscribe(
      below, nullptr, [&](const SndService::SubscribeEvent&) { return true; });
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find(
                "transition '0' below retained window"),
            std::string::npos)
      << rejected.status().message();
}

// The streaming wire: ServeStream intercepts subscribe on both codecs,
// frames the stream (header, one row per event, terminator), and keeps
// serving afterwards.
TEST_F(ServiceMutationTest, ServeStreamSpeaksSubscribeOnBothCodecs) {
  SndService service;
  LoadFixture(&service);

  {
    std::istringstream in(
        "add_edge g 2 9\n"
        "subscribe g --from=0 --count=2\n"
        "remove_edge g 2 9\n"
        "quit\n");
    std::ostringstream out;
    service.ServeStream(in, out);
    const std::string transcript = out.str();
    EXPECT_NE(transcript.find("ok add_edge g 2 9 edges "), std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("ok subscribe g from 0\n"), std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("ok subscribe_end g count 2 reason count\n"),
              std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("ok remove_edge g 2 9 edges "),
              std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("ok bye\n"), std::string::npos) << transcript;
    // The two streamed rows sit between header and terminator and carry
    // the adjacent transition labels.
    const size_t header = transcript.find("ok subscribe g from 0\n");
    const size_t end = transcript.find("ok subscribe_end g");
    const std::string body = transcript.substr(
        header + sizeof("ok subscribe g from 0\n") - 1, end - header -
            sizeof("ok subscribe g from 0\n") + 1);
    EXPECT_EQ(body.rfind("0 1 ", 0), 0u) << body;
    EXPECT_NE(body.find("\n1 2 "), std::string::npos) << body;
  }

  {
    std::istringstream in(
        "{\"cmd\":\"subscribe\",\"name\":\"g\",\"from\":1,\"count\":1}\n"
        "{\"cmd\":\"quit\"}\n");
    std::ostringstream out;
    service.ServeStream(in, out, WireFormat::kJson);
    const std::string transcript = out.str();
    EXPECT_NE(transcript.find(
                  "{\"ok\":true,\"cmd\":\"subscribe\",\"name\":\"g\","
                  "\"from\":1}"),
              std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("\"cmd\":\"subscribe_event\""),
              std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find("\"transition\":1"), std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find(
                  "\"cmd\":\"subscribe_end\",\"name\":\"g\",\"count\":1,"
                  "\"reason\":\"count\""),
              std::string::npos)
        << transcript;
  }
}

}  // namespace
}  // namespace snd
