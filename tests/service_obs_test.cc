// Service-level observability tests: a scripted session through the
// real ServeStream path with an EventLog attached must emit exactly one
// schema-conformant JSONL event per request, the `stats` snapshot must
// equal the sum of the per-request deltas emitted before it (the
// consistent-cut contract), the snapshot's row names — the Stats wire
// surface on both codecs — are pinned so additions are deliberate, and
// `info` reports the same counts as `stats`.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "smoke_util.h"
#include "snd/api/json_codec.h"
#include "snd/api/text_codec.h"
#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/obs/event_log.h"
#include "snd/obs/names.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/service/service.h"

namespace snd {
namespace {

std::string TestTempPath(const std::string& suffix) {
  return testing_util::SmokeTempPath("service_obs", suffix);
}

// Minimal JSONL parsing for the flat events this layer emits: returns
// the top-level keys in order of appearance. Values never contain '"'
// except in string position, and the only nested object is "metrics"
// (always last), so a quote scan that stops at "metrics" suffices.
std::vector<std::string> TopLevelKeys(const std::string& line) {
  std::vector<std::string> keys;
  size_t pos = 1;  // Skip '{'.
  while (pos < line.size()) {
    const size_t open = line.find('"', pos);
    if (open == std::string::npos) break;
    const size_t close = line.find('"', open + 1);
    if (close == std::string::npos) break;
    const std::string key = line.substr(open + 1, close - open - 1);
    keys.push_back(key);
    if (key == "metrics") break;  // Nested object: its keys are rows.
    // Skip past this key's value: scalar values end at ',' or '}',
    // string values at the closing quote.
    size_t value_start = close + 2;  // Past ':'.
    if (value_start < line.size() && line[value_start] == '"') {
      pos = line.find('"', value_start + 1) + 1;
    } else {
      pos = line.find_first_of(",}", value_start);
    }
    if (pos == std::string::npos) break;
    ++pos;
  }
  return keys;
}

// Extracts an integer field "key":<n> from a flat event line.
int64_t IntField(const std::string& line, const std::string& key) {
  const std::string token = "\"" + key + "\":";
  const size_t at = line.find(token);
  EXPECT_NE(at, std::string::npos) << key << " missing in " << line;
  if (at == std::string::npos) return 0;
  return std::strtoll(line.c_str() + at + token.size(), nullptr, 10);
}

class ServiceObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_path_ = TestTempPath("graph.edges");
    states_path_ = TestTempPath("states.txt");
    Graph graph = GenerateRing(16, 2);
    SyntheticEvolution evolution(&graph, 5);
    const auto states =
        evolution.GenerateSeries(4, 6, {0.25, 0.05}, {0.25, 0.05}, {});
    ASSERT_TRUE(WriteEdgeList(graph, graph_path_));
    ASSERT_TRUE(WriteStateSeries(states, states_path_));
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(states_path_.c_str());
  }

  // Runs the canonical scripted session (load, cold distance, warm
  // distance, mutation, distance, stats, quit) through ServeStream with
  // an event log attached; returns the emitted JSONL lines.
  std::vector<std::string> RunScriptedSession(WireFormat format) {
    std::ostringstream sink;
    {
      obs::EventLog log(&sink);
      SndServiceConfig config;
      config.event_log = &log;
      SndService service(config);
      std::string script;
      if (format == WireFormat::kText) {
        script = "load_graph g " + graph_path_ + "\nload_states g " +
                 states_path_ +
                 "\ndistance g 0 1\ndistance g 0 1\nadd_edge g 0 2\n"
                 "distance g 0 1\nstats\nquit\n";
      } else {
        script = "{\"cmd\":\"load_graph\",\"name\":\"g\",\"path\":\"" +
                 graph_path_ +
                 "\"}\n{\"cmd\":\"load_states\",\"name\":\"g\","
                 "\"path\":\"" +
                 states_path_ +
                 "\"}\n{\"cmd\":\"distance\",\"name\":\"g\",\"i\":0,"
                 "\"j\":1}\n{\"cmd\":\"distance\",\"name\":\"g\",\"i\":0,"
                 "\"j\":1}\n{\"cmd\":\"add_edge\",\"name\":\"g\",\"u\":0,"
                 "\"v\":2}\n{\"cmd\":\"distance\",\"name\":\"g\",\"i\":0,"
                 "\"j\":1}\n{\"cmd\":\"stats\"}\n{\"cmd\":\"quit\"}\n";
      }
      std::istringstream in(script);
      std::ostringstream out;
      service.ServeStream(in, out, format);
      log.Flush();
      EXPECT_EQ(log.dropped(), 0);
    }
    std::vector<std::string> lines;
    std::istringstream parsed(sink.str());
    std::string line;
    while (std::getline(parsed, line)) lines.push_back(line);
    return lines;
  }

  std::string graph_path_;
  std::string states_path_;
};

// The exact field order of every request event, from obs/names.h.
const std::vector<std::string> kRequestEventKeys = {
    obs::kEvEvent,          obs::kEvTraceId,
    obs::kEvKind,           obs::kEvName,
    obs::kEvStatus,         obs::kEvGraphEpoch,
    obs::kEvSubEpoch,       obs::kEvStatesEpoch,
    obs::kEvParseNs,        obs::kEvDispatchNs,
    obs::kEvEdgeCostNs,     obs::kEvSsspNs,
    obs::kEvTransportNs,    obs::kEvEncodeNs,
    obs::kEvSsspRuns,       obs::kEvSsspSettled,
    obs::kEvTransportSolves, obs::kEvEdgeCostBuilds,
    obs::kEvEdgeCostPatches, obs::kEvResultHits,
    obs::kEvResultMisses,   obs::kEvResultsRetained,
    obs::kEvResultsErased};

TEST_F(ServiceObsTest, ScriptedSessionEmitsOneSchemaValidEventPerRequest) {
  const std::vector<std::string> lines = RunScriptedSession(WireFormat::kText);
  // 8 requests -> 8 request events, plus the stats snapshot line that
  // StatsCmd appends before its own request event.
  ASSERT_EQ(lines.size(), 9u);
  std::vector<std::string> kinds;
  uint64_t previous_trace_id = 0;
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"stats\"") != std::string::npos) {
      const std::vector<std::string> keys = TopLevelKeys(line);
      EXPECT_EQ(keys, (std::vector<std::string>{obs::kEvEvent,
                                                obs::kEvMetrics}));
      continue;
    }
    EXPECT_EQ(TopLevelKeys(line), kRequestEventKeys) << line;
    const auto trace_id =
        static_cast<uint64_t>(IntField(line, obs::kEvTraceId));
    EXPECT_GT(trace_id, previous_trace_id);  // Unique and increasing.
    previous_trace_id = trace_id;
    const std::string kind_token = "\"kind\":\"";
    const size_t at = line.find(kind_token) + kind_token.size();
    kinds.push_back(line.substr(at, line.find('"', at) - at));
  }
  EXPECT_EQ(kinds, (std::vector<std::string>{
                       "load_graph", "load_states", "distance", "distance",
                       "add_edge", "distance", "stats", "quit"}));
}

TEST_F(ServiceObsTest, StatsSnapshotEqualsSummedPerRequestDeltas) {
  const std::vector<std::string> lines = RunScriptedSession(WireFormat::kText);
  // Sum the work/cache deltas of every request event emitted BEFORE the
  // stats snapshot line; the snapshot must match them exactly (work is
  // folded into the registry before each response returns, so the cut
  // through these counters is consistent).
  std::map<std::string, int64_t> summed;
  std::string stats_line;
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"stats\"") != std::string::npos) {
      stats_line = line;
      break;
    }
    for (const char* key :
         {obs::kEvSsspRuns, obs::kEvSsspSettled, obs::kEvTransportSolves,
          obs::kEvEdgeCostBuilds, obs::kEvEdgeCostPatches,
          obs::kEvResultHits, obs::kEvResultMisses}) {
      summed[key] += IntField(line, key);
    }
  }
  ASSERT_FALSE(stats_line.empty());
  const std::map<std::string, std::string> work_rows = {
      {obs::kEvSsspRuns, "snd.work.sssp_runs"},
      {obs::kEvSsspSettled, "snd.work.sssp_settled"},
      {obs::kEvTransportSolves, "snd.work.transport_solves"},
      {obs::kEvEdgeCostBuilds, "snd.work.edge_cost_builds"},
      {obs::kEvEdgeCostPatches, "snd.work.edge_cost_patches"},
      {obs::kEvResultHits, "snd.cache.result.hits"},
      {obs::kEvResultMisses, "snd.cache.result.misses"}};
  for (const auto& [event_key, metric_name] : work_rows) {
    EXPECT_EQ(IntField(stats_line, metric_name), summed[event_key])
        << metric_name;
  }
  // The cold distance did real work; the warm repeat hit the cache.
  EXPECT_GT(summed[obs::kEvSsspRuns], 0);
  EXPECT_GT(summed[obs::kEvResultHits], 0);
}

TEST_F(ServiceObsTest, JsonWireSessionEmitsTheSameEventSequence) {
  const std::vector<std::string> lines = RunScriptedSession(WireFormat::kJson);
  ASSERT_EQ(lines.size(), 9u);
  for (const std::string& line : lines) {
    if (line.find("\"event\":\"stats\"") != std::string::npos) continue;
    EXPECT_EQ(TopLevelKeys(line), kRequestEventKeys) << line;
  }
}

// The complete Stats row-name surface. Adding a metric is deliberate:
// it must appear here, in obs/names.h, and in the README schema table.
TEST_F(ServiceObsTest, StatsSnapshotRowNamesArePinned) {
  SndService service{SndServiceConfig()};
  const StatusOr<Response> response =
      service.Dispatch(Request(StatsRequest{}));
  ASSERT_TRUE(response.ok());
  const auto* stats = std::get_if<StatsResponse>(&*response);
  ASSERT_NE(stats, nullptr);
  std::vector<std::string> names;
  for (const auto& row : stats->metrics) names.push_back(row.name);
  const std::vector<std::string> expected = {
      "snd.cache.calc.builds",      "snd.cache.calc.capacity",
      "snd.cache.calc.hits",        "snd.cache.calc.size",
      "snd.cache.result.capacity",  "snd.cache.result.evictions",
      "snd.cache.result.hits",      "snd.cache.result.misses",
      "snd.cache.result.size",      "snd.mutate.results_erased",
      "snd.mutate.results_retained", "snd.obs.events.dropped",
      "snd.obs.events.emitted",     "snd.phase.dispatch.ns",
      "snd.phase.edge_cost.ns",     "snd.phase.encode.ns",
      "snd.phase.parse.ns",         "snd.phase.sssp.ns",
      "snd.phase.transport.ns",     "snd.req.add_edge",
      "snd.req.anomalies",          "snd.req.append_state",
      "snd.req.distance",           "snd.req.error",
      "snd.req.evict",              "snd.req.help",
      "snd.req.info",               "snd.req.invalid",
      "snd.req.latency.count",      "snd.req.latency.p50_ns",
      "snd.req.latency.p90_ns",     "snd.req.latency.p99_ns",
      "snd.req.latency.sum_ns",     "snd.req.load_graph",
      "snd.req.load_states",        "snd.req.matrix",
      "snd.req.ok",                 "snd.req.quit",
      "snd.req.remove_edge",        "snd.req.series",
      "snd.req.stats",              "snd.req.subscribe",
      "snd.req.version",            "snd.session.count",
      "snd.session.mutations",      "snd.sssp.delta.runs",
      "snd.sssp.delta.settled",     "snd.sssp.dial.runs",
      "snd.sssp.dial.settled",      "snd.sssp.dijkstra.runs",
      "snd.sssp.dijkstra.settled",  "snd.subscribe.events",
      "snd.subscribe.streams",      "snd.work.edge_cost_builds",
      "snd.work.edge_cost_patches", "snd.work.sssp_runs",
      "snd.work.sssp_settled",      "snd.work.transport_solves"};
  EXPECT_EQ(names, expected);
}

// Both codecs render the Stats response in snapshot (sorted) order; the
// text header carries the row count, the JSON object nests the rows.
TEST_F(ServiceObsTest, StatsWireRenderingIsStableOnBothCodecs) {
  SndService service{SndServiceConfig()};
  ASSERT_TRUE(service.Call("load_graph g " + graph_path_).ok);
  const ServiceResponse text = service.Call("stats");
  ASSERT_TRUE(text.ok);
  EXPECT_EQ(text.header, "stats rows " + std::to_string(text.rows.size()));
  EXPECT_EQ(text.rows.front(), "snd.cache.calc.builds 0");
  // Row ordering on the wire is the snapshot's sorted order.
  std::vector<std::string> row_names;
  for (const std::string& row : text.rows) {
    row_names.push_back(row.substr(0, row.find(' ')));
  }
  EXPECT_TRUE(std::is_sorted(row_names.begin(), row_names.end()));
  // One request later, the counters moved: load_graph + stats are in.
  const StatusOr<Request> parsed = ParseJsonRequest("{\"cmd\":\"stats\"}");
  ASSERT_TRUE(parsed.ok());
  const StatusOr<Response> response = service.Dispatch(*parsed);
  ASSERT_TRUE(response.ok());
  const std::string json = RenderJsonResponse(*response);
  EXPECT_EQ(json.rfind("{\"ok\":true,\"cmd\":\"stats\",\"metrics\":{", 0),
            0u);
  EXPECT_NE(json.find("\"snd.req.load_graph\":1"), std::string::npos);
  EXPECT_NE(json.find("\"snd.req.stats\":1"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

// The integer members of the flat JSON object `"key":{...}` in `line`.
std::map<std::string, int64_t> JsonObjectInts(const std::string& line,
                                              const std::string& key) {
  std::map<std::string, int64_t> values;
  const std::string token = "\"" + key + "\":{";
  const size_t open = line.find(token);
  EXPECT_NE(open, std::string::npos) << key << " missing in " << line;
  if (open == std::string::npos) return values;
  const size_t close = line.find('}', open);
  std::istringstream members(
      line.substr(open + token.size(), close - open - token.size()));
  std::string member;
  while (std::getline(members, member, ',')) {
    const size_t colon = member.find("\":");
    values[member.substr(1, colon - 1)] =
        std::strtoll(member.c_str() + colon + 2, nullptr, 10);
  }
  return values;
}

// The `<field> <value>` pairs after the leading label of a text row.
std::map<std::string, int64_t> TextRowInts(const std::string& row) {
  std::map<std::string, int64_t> values;
  std::istringstream tokens(row);
  std::string label, field;
  int64_t value = 0;
  tokens >> label;
  while (tokens >> field >> value) values[field] = value;
  return values;
}

// `info` reads the registry instruments `stats` snapshots, so its
// calculators, results and work rows must equal the matching stats rows
// on both codecs, after a session that moves every one of them.
TEST_F(ServiceObsTest, InfoAgreesWithStatsOnBothCodecs) {
  SndServiceConfig config;
  config.result_cache_capacity = 2;
  SndService service(config);
  for (const std::string& line :
       {"load_graph g " + graph_path_, "load_states g " + states_path_,
        std::string("distance g 0 1"), std::string("distance g 0 1"),
        std::string("distance g 0 2"), std::string("distance g 0 3"),
        std::string("add_edge g 0 8"), std::string("distance g 0 3")}) {
    const ServiceResponse response = service.Call(line);
    ASSERT_TRUE(response.ok) << line << ": " << response.header;
  }
  // Info object -> stats row prefix.
  const std::vector<std::pair<std::string, std::string>> kGroups = {
      {"calculators", "snd.cache.calc."},
      {"results", "snd.cache.result."},
      {"work", "snd.work."}};

  const ServiceResponse text_info = service.Call("info");
  const ServiceResponse text_stats = service.Call("stats");
  ASSERT_TRUE(text_info.ok && text_stats.ok);
  std::map<std::string, int64_t> stats_rows;
  for (const std::string& row : text_stats.rows) {
    const size_t space = row.find(' ');
    stats_rows[row.substr(0, space)] =
        std::strtoll(row.c_str() + space + 1, nullptr, 10);
  }
  int compared = 0;
  for (const std::string& row : text_info.rows) {
    for (const auto& [label, prefix] : kGroups) {
      if (row.rfind(label + " ", 0) != 0) continue;
      for (const auto& [field, value] : TextRowInts(row)) {
        ASSERT_EQ(stats_rows.count(prefix + field), 1u) << prefix + field;
        EXPECT_EQ(value, stats_rows[prefix + field]) << prefix + field;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 4 + 5 + 4);
  // The session moved every kind of count the rows carry.
  for (const char* name :
       {obs::kMetricCacheCalcBuilds, obs::kMetricCacheCalcHits,
        obs::kMetricCacheResultHits, obs::kMetricCacheResultMisses,
        obs::kMetricCacheResultEvictions, obs::kMetricWorkSsspRuns,
        obs::kMetricWorkTransportSolves, obs::kMetricWorkEdgeCostBuilds,
        obs::kMetricWorkEdgeCostPatches}) {
    EXPECT_GT(stats_rows[name], 0) << name;
  }

  const std::string json_info =
      service.CallWire("{\"cmd\":\"info\"}", WireFormat::kJson).bytes;
  const std::string json_stats =
      service.CallWire("{\"cmd\":\"stats\"}", WireFormat::kJson).bytes;
  const std::map<std::string, int64_t> metrics =
      JsonObjectInts(json_stats, "metrics");
  compared = 0;
  for (const auto& [label, prefix] : kGroups) {
    for (const auto& [field, value] : JsonObjectInts(json_info, label)) {
      ASSERT_EQ(metrics.count(prefix + field), 1u) << prefix + field;
      EXPECT_EQ(value, metrics.at(prefix + field)) << prefix + field;
      ++compared;
    }
  }
  EXPECT_EQ(compared, 4 + 5 + 4);
}

// Request-kind counters and the invalid slot: a line that fails to
// parse folds into snd.req.invalid and snd.req.error.
TEST_F(ServiceObsTest, InvalidLinesCountAsInvalidKind) {
  SndService service{SndServiceConfig()};
  EXPECT_FALSE(service.Call("definitely_not_a_command").ok);
  EXPECT_FALSE(service.Call("distance").ok);  // Parse error: no name.
  const ServiceResponse stats = service.Call("stats");
  ASSERT_TRUE(stats.ok);
  bool saw_invalid = false;
  for (const std::string& row : stats.rows) {
    if (row == "snd.req.invalid 2") saw_invalid = true;
  }
  EXPECT_TRUE(saw_invalid);
}

}  // namespace
}  // namespace snd
