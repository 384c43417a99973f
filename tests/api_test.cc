// Tests for the typed API layer (snd/api/): Status and StatusOr
// semantics, text-codec parse/render fidelity (the legacy wire shape,
// including its token-naming diagnostics), JSON-codec grammar and
// escaping, and the acceptance bar of the redesign — the typed Dispatch
// path, the text codec path, and the JSON codec path return bitwise
// identical SND values for every SSSP backend and thread count.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "smoke_util.h"
#include "snd/api/json_codec.h"
#include "snd/api/requests.h"
#include "snd/api/responses.h"
#include "snd/api/status.h"
#include "snd/api/text_codec.h"
#include "snd/core/snd.h"
#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/service/options_parse.h"
#include "snd/service/service.h"
#include "snd/util/thread_pool.h"
#include "snd/util/version.h"

namespace snd {
namespace {

TEST(StatusTest, DefaultIsOkAndFactoriesCarryCodes) {
  EXPECT_TRUE(Status().ok());
  EXPECT_EQ(Status().code(), StatusCode::kOk);
  const Status error = Status::NotFound("unknown graph 'g'");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.code(), StatusCode::kNotFound);
  EXPECT_EQ(error.message(), "unknown graph 'g'");
  EXPECT_EQ(error.ToString(), "not_found: unknown graph 'g'");
  EXPECT_EQ(Status().ToString(), "ok");
  EXPECT_EQ(error, Status::NotFound("unknown graph 'g'"));
  EXPECT_FALSE(error == Status::InvalidArgument("unknown graph 'g'"));
}

TEST(StatusTest, EveryCodeHasAStableName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "invalid_argument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "failed_precondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "unavailable");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "internal");
}

TEST(StatusOrTest, HoldsValueOrError) {
  StatusOr<int> value = 7;
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 7);
  StatusOr<int> error = Status::InvalidArgument("nope");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kInvalidArgument);
  // Move-only payloads work.
  StatusOr<std::unique_ptr<int>> moved = std::make_unique<int>(3);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved.value(), 3);
  const std::unique_ptr<int> taken = std::move(moved).value();
  EXPECT_EQ(*taken, 3);
}

// ---------------------------------------------------------------------
// Text codec.

TEST(TextCodecTest, ParsesEveryCommandIntoItsTypedRequest) {
  EXPECT_TRUE(std::holds_alternative<LoadGraphRequest>(
      *ParseTextRequest("load_graph g /tmp/g.edges")));
  EXPECT_TRUE(std::holds_alternative<LoadStatesRequest>(
      *ParseTextRequest("load_states g /tmp/s.txt")));
  EXPECT_TRUE(std::holds_alternative<AppendStateRequest>(
      *ParseTextRequest("append_state g 1 0 -1")));
  EXPECT_TRUE(std::holds_alternative<InfoRequest>(*ParseTextRequest("info")));
  EXPECT_TRUE(
      std::holds_alternative<EvictRequest>(*ParseTextRequest("evict g")));
  EXPECT_TRUE(std::holds_alternative<VersionRequest>(
      *ParseTextRequest("version")));
  EXPECT_TRUE(std::holds_alternative<HelpRequest>(*ParseTextRequest("help")));
  EXPECT_TRUE(std::holds_alternative<QuitRequest>(*ParseTextRequest("quit")));

  const StatusOr<Request> distance =
      ParseTextRequest("distance g 1 3 --sssp=dial --threads=2");
  ASSERT_TRUE(distance.ok()) << distance.status().ToString();
  const auto& typed = std::get<DistanceRequest>(*distance);
  EXPECT_EQ(typed.name, "g");
  EXPECT_EQ(typed.i, 1);
  EXPECT_EQ(typed.j, 3);
  EXPECT_EQ(typed.options.sssp_backend, SsspBackend::kDial);
  EXPECT_EQ(typed.threads, 2);

  const StatusOr<Request> series = ParseTextRequest("series g --model=icc");
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(std::get<SeriesRequest>(*series).options.model,
            GroundModelKind::kIndependentCascade);
  const auto append = ParseTextRequest("append_state g -1 0 1");
  ASSERT_TRUE(append.ok());
  EXPECT_EQ(std::get<AppendStateRequest>(*append).values,
            (std::vector<int8_t>{-1, 0, 1}));
}

TEST(TextCodecTest, MalformedRequestsKeepTheLegacyTokenNamingMessages) {
  const struct {
    const char* request;
    const char* expected;
  } kCases[] = {
      {"", "empty request"},
      {"frobnicate g", "unknown command 'frobnicate'"},
      {"load_graph", "load_graph: missing arguments"},
      {"load_graph g path extra", "unexpected token 'extra'"},
      {"load_graph bad|name somewhere", "invalid graph name 'bad|name'"},
      {"append_state", "append_state: missing arguments"},
      {"append_state g 1 2", "invalid opinion value '2'"},
      {"distance g", "distance: missing arguments"},
      {"distance g x 1", "invalid state index 'x'"},
      {"distance g -1 1", "invalid state index '-1'"},
      {"distance g 0 1 stray", "unexpected token 'stray'"},
      {"distance g 0 1 --model=bogus", "unknown --model value 'bogus'"},
      {"series g --sssp=slow", "unknown --sssp value 'slow'"},
      {"matrix g --frobnicate=1", "unrecognized flag '--frobnicate=1'"},
      {"distance g 0 1 --solver=simplex",
       "unrecognized flag '--solver=simplex'"},
      {"anomalies g --threads=1e3", "invalid --threads value '1e3'"},
      {"evict", "evict: missing arguments"},
      {"evict g extra", "unexpected token 'extra'"},
      {"info extra", "unexpected token 'extra'"},
      {"version now", "unexpected token 'now'"},
      {"help me", "unexpected token 'me'"},
      {"quit now", "unexpected token 'now'"},
  };
  for (const auto& test_case : kCases) {
    const StatusOr<Request> parsed = ParseTextRequest(test_case.request);
    ASSERT_FALSE(parsed.ok()) << test_case.request;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << test_case.request;
    EXPECT_EQ(parsed.status().message(), test_case.expected)
        << test_case.request;
  }
}

TEST(TextCodecTest, RendersResponsesInTheLegacyWireShape) {
  const ServiceResponse graph = RenderTextResponse(
      Response(LoadGraphResponse{"g", 24, 48, 1}));
  EXPECT_TRUE(graph.ok);
  EXPECT_EQ(graph.header, "graph g nodes 24 edges 48 epoch 1");
  EXPECT_TRUE(graph.rows.empty());

  const ServiceResponse distance = RenderTextResponse(
      Response(DistanceResponse{"g", 0, 1, 2.5}));
  EXPECT_EQ(distance.header, "distance g 0 1 2.5");
  ASSERT_EQ(distance.values.size(), 1u);
  EXPECT_EQ(distance.values[0], 2.5);

  SeriesResponse series;
  series.name = "g";
  series.pairs = {{0, 1}, {1, 2}};
  series.values = {1.0, 0.25};
  const ServiceResponse series_text =
      RenderTextResponse(Response(series));
  EXPECT_EQ(series_text.header, "series g count 2");
  ASSERT_EQ(series_text.rows.size(), 2u);
  EXPECT_EQ(series_text.rows[0], "0 1 1");
  EXPECT_EQ(series_text.rows[1], "1 2 0.25");
  EXPECT_EQ(series_text.values, series.values);

  MatrixResponse matrix;
  matrix.name = "g";
  matrix.num_states = 2;
  matrix.values = {0.0, 0.5, 0.5, 0.0};
  const ServiceResponse matrix_text =
      RenderTextResponse(Response(matrix));
  EXPECT_EQ(matrix_text.header, "matrix g rows 2");
  ASSERT_EQ(matrix_text.rows.size(), 2u);
  EXPECT_EQ(matrix_text.rows[0], "0 0.5");
  EXPECT_EQ(matrix_text.rows[1], "0.5 0");

  const ServiceResponse error =
      RenderTextError(Status::NotFound("unknown graph 'g'"));
  EXPECT_FALSE(error.ok);
  EXPECT_EQ(error.header, "unknown graph 'g'");

  std::ostringstream wire;
  WriteTextResponse(series_text, wire);
  EXPECT_EQ(wire.str(), "ok series g count 2\n0 1 1\n1 2 0.25\n");
  std::ostringstream error_wire;
  WriteTextResponse(error, error_wire);
  EXPECT_EQ(error_wire.str(), "error unknown graph 'g'\n");
}

// ---------------------------------------------------------------------
// JSON codec.

TEST(JsonCodecTest, ParsesEveryCommandIntoItsTypedRequest) {
  const StatusOr<Request> distance = ParseJsonRequest(
      R"({"cmd":"distance","name":"g","i":1,"j":3,)"
      R"("flags":["--sssp=dial","--threads=2"]})");
  ASSERT_TRUE(distance.ok()) << distance.status().ToString();
  const auto& typed = std::get<DistanceRequest>(*distance);
  EXPECT_EQ(typed.name, "g");
  EXPECT_EQ(typed.i, 1);
  EXPECT_EQ(typed.j, 3);
  EXPECT_EQ(typed.options.sssp_backend, SsspBackend::kDial);
  EXPECT_EQ(typed.threads, 2);

  const StatusOr<Request> append = ParseJsonRequest(
      R"({"cmd":"append_state","name":"g","values":[-1,0,1]})");
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  EXPECT_EQ(std::get<AppendStateRequest>(*append).values,
            (std::vector<int8_t>{-1, 0, 1}));

  EXPECT_TRUE(std::holds_alternative<LoadGraphRequest>(*ParseJsonRequest(
      R"({"cmd":"load_graph","name":"g","path":"/tmp/a b.edges"})")));
  EXPECT_TRUE(std::holds_alternative<InfoRequest>(
      *ParseJsonRequest(R"({"cmd":"info"})")));
  EXPECT_TRUE(std::holds_alternative<VersionRequest>(
      *ParseJsonRequest(R"({"cmd":"version"})")));
  EXPECT_TRUE(std::holds_alternative<QuitRequest>(
      *ParseJsonRequest(R"({"cmd":"quit"})")));
  EXPECT_TRUE(std::holds_alternative<EvictRequest>(
      *ParseJsonRequest(R"({"cmd":"evict","name":"g"})")));
  // Escapes decode: \u0041 is 'A', \\ is a backslash.
  const StatusOr<Request> escaped = ParseJsonRequest(
      R"({"cmd":"load_graph","name":"\u0041","path":"C:\\g.edges"})");
  ASSERT_TRUE(escaped.ok());
  EXPECT_EQ(std::get<LoadGraphRequest>(*escaped).name, "A");
  EXPECT_EQ(std::get<LoadGraphRequest>(*escaped).path, "C:\\g.edges");
}

TEST(JsonCodecTest, MalformedRequestsNameTheProblem) {
  const struct {
    const char* request;
    const char* expected_substring;
  } kCases[] = {
      {"", "invalid json"},
      {"nonsense", "invalid json"},
      {"[1,2]", "request must be a json object"},
      {R"({"cmd":"distance","name":"g","i":1,"j":3} trailing)",
       "invalid json: trailing characters"},
      {R"({"name":"g"})", "missing field 'cmd'"},
      {R"({"cmd":7})", "field 'cmd' must be a string"},
      {R"({"cmd":"frobnicate"})", "unknown cmd 'frobnicate'"},
      {R"({"cmd":"load_graph","path":"p"})", "missing field 'name'"},
      {R"({"cmd":"load_graph","name":"bad|name","path":"p"})",
       "invalid graph name 'bad|name'"},
      {R"({"cmd":"distance","name":"g","i":-1,"j":0})",
       "field 'i' must be a non-negative integer"},
      {R"({"cmd":"distance","name":"g","i":0.5,"j":0})",
       "field 'i' must be a non-negative integer"},
      {R"({"cmd":"distance","name":"g","i":0,"j":1,"flags":"--x"})",
       "field 'flags' must be an array of strings"},
      {R"({"cmd":"distance","name":"g","i":0,"j":1,)"
       R"("flags":["--model=bogus"]})",
       "unknown --model value 'bogus'"},
      {R"({"cmd":"distance","name":"g","i":0,"j":1,)"
       R"("flags":["--solver=simplex"]})",
       "unrecognized flag '--solver=simplex'"},
      {R"({"cmd":"append_state","name":"g","values":[2]})",
       "invalid opinion value '2'"},
      {R"({"cmd":"append_state","name":"g","values":7})",
       "field 'values' must be an array of -1/0/1"},
      {R"({"cmd":"info","name":"g"})", "unexpected field 'name'"},
      {R"({"cmd":"distance","name":"g","i":0,"j":1,"i":2})",
       "duplicate object key"},
      {R"({"cmd":"quit","extra":true})", "unexpected field 'extra'"},
  };
  for (const auto& test_case : kCases) {
    const StatusOr<Request> parsed = ParseJsonRequest(test_case.request);
    ASSERT_FALSE(parsed.ok()) << test_case.request;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << test_case.request;
    EXPECT_NE(parsed.status().message().find(test_case.expected_substring),
              std::string::npos)
        << test_case.request << " -> " << parsed.status().message();
  }
}

TEST(JsonCodecTest, RendersResponsesAndErrorsAsOneObject) {
  EXPECT_EQ(RenderJsonResponse(Response(LoadGraphResponse{"g", 4, 6, 1})),
            R"({"ok":true,"cmd":"graph","name":"g",)"
            R"("nodes":4,"edges":6,"epoch":1})");
  EXPECT_EQ(RenderJsonResponse(Response(DistanceResponse{"g", 0, 1, 2.0})),
            R"({"ok":true,"cmd":"distance","name":"g","i":0,"j":1,)"
            R"("value":2})");
  SeriesResponse series;
  series.name = "g";
  series.pairs = {{0, 1}};
  series.values = {0.25};
  EXPECT_EQ(RenderJsonResponse(Response(series)),
            R"({"ok":true,"cmd":"series","name":"g",)"
            R"("pairs":[[0,1]],"values":[0.25]})");
  EXPECT_EQ(RenderJsonResponse(Response(ByeResponse{})),
            R"({"ok":true,"cmd":"bye"})");
  EXPECT_EQ(RenderJsonError(Status::NotFound("unknown graph 'g'")),
            R"({"ok":false,"code":"not_found",)"
            R"("error":"unknown graph 'g'"})");
  // Escaping: quotes, backslashes, control characters.
  EXPECT_EQ(JsonEscaped("a\"b\\c\nd\x01"), "a\\\"b\\\\c\\nd\\u0001");
}

// ---------------------------------------------------------------------
// The acceptance bar: typed Dispatch, text codec, and JSON codec return
// bitwise-identical SND values, per SSSP backend and thread count, all
// equal to direct SndCalculator answers.

class ApiTriPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_path_ = testing_util::SmokeTempPath("api", "graph.edges");
    states_path_ = testing_util::SmokeTempPath("api", "states.txt");
    graph_ = GenerateRing(20, 2);
    SyntheticEvolution evolution(&graph_, 11);
    states_ = evolution.GenerateSeries(4, 5, {0.25, 0.05}, {0.25, 0.05}, {});
    ASSERT_TRUE(WriteEdgeList(graph_, graph_path_));
    ASSERT_TRUE(WriteStateSeries(states_, states_path_));
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(states_path_.c_str());
    ThreadPool::SetGlobalThreads(1);
  }

  std::string graph_path_;
  std::string states_path_;
  Graph graph_;
  std::vector<NetworkState> states_;
};

// Extracts the "value":<number> payload of a JSON distance response.
double JsonDistanceValue(const std::string& line) {
  const size_t pos = line.find("\"value\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return std::strtod(line.c_str() + pos + 8, nullptr);
}

TEST_F(ApiTriPathTest, AllThreePathsReturnBitwiseIdenticalValues) {
  const int32_t hw = ThreadPool::DefaultThreads();
  const std::vector<int32_t> thread_counts =
      hw > 2 ? std::vector<int32_t>{1, 2, hw} : std::vector<int32_t>{1, 2};
  for (const char* backend : {"auto", "dijkstra", "dial", "delta"}) {
    const std::string flag = std::string("--sssp=") + backend;
    const auto parsed = ParseSndFlags({flag});
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const SndCalculator direct(&graph_, parsed->options);
    const double expected = direct.Distance(states_[1], states_[3]);
    for (const int32_t threads : thread_counts) {
      ThreadPool::SetGlobalThreads(threads);

      // Path 1: typed Dispatch on a fresh service (cold caches).
      SndService typed_service;
      ASSERT_TRUE(typed_service.Call("load_graph g " + graph_path_).ok);
      ASSERT_TRUE(typed_service.Call("load_states g " + states_path_).ok);
      DistanceRequest request;
      request.name = "g";
      request.i = 1;
      request.j = 3;
      request.options = parsed->options;
      const StatusOr<Response> typed =
          typed_service.Dispatch(Request(request));
      ASSERT_TRUE(typed.ok()) << typed.status().ToString();
      const double typed_value = std::get<DistanceResponse>(*typed).value;

      // Path 2: the text wire, value re-parsed from the rendered bytes.
      SndService text_service;
      ASSERT_TRUE(text_service.Call("load_graph g " + graph_path_).ok);
      ASSERT_TRUE(text_service.Call("load_states g " + states_path_).ok);
      const ServiceResponse text =
          text_service.Call("distance g 1 3 " + flag);
      ASSERT_TRUE(text.ok) << text.header;
      const size_t last_space = text.header.rfind(' ');
      const double text_value =
          std::strtod(text.header.c_str() + last_space + 1, nullptr);

      // Path 3: the JSON wire through ServeStream, value re-parsed from
      // the emitted object.
      SndService json_service;
      std::istringstream json_in(
          "{\"cmd\":\"load_graph\",\"name\":\"g\",\"path\":\"" +
          graph_path_ + "\"}\n" +
          "{\"cmd\":\"load_states\",\"name\":\"g\",\"path\":\"" +
          states_path_ + "\"}\n" +
          "{\"cmd\":\"distance\",\"name\":\"g\",\"i\":1,\"j\":3," +
          "\"flags\":[\"" + flag + "\"]}\n");
      std::ostringstream json_out;
      json_service.ServeStream(json_in, json_out, WireFormat::kJson);
      std::istringstream json_lines(json_out.str());
      std::string line, last;
      while (std::getline(json_lines, line)) last = line;
      ASSERT_NE(last.find("\"ok\":true"), std::string::npos) << last;
      const double json_value = JsonDistanceValue(last);

      EXPECT_EQ(typed_value, expected) << backend << " t=" << threads;
      EXPECT_EQ(text_value, expected) << backend << " t=" << threads;
      EXPECT_EQ(json_value, expected) << backend << " t=" << threads;
    }
  }
}

// The JSON serve loop end to end: mutations, reads, errors, bye.
TEST_F(ApiTriPathTest, JsonServeStreamSpeaksOneObjectPerLine) {
  SndService service;
  std::istringstream in(
      "{\"cmd\":\"load_graph\",\"name\":\"g\",\"path\":\"" + graph_path_ +
      "\"}\n" +
      "{\"cmd\":\"load_states\",\"name\":\"g\",\"path\":\"" + states_path_ +
      "\"}\n" +
      "{\"cmd\":\"version\"}\n"
      "not json\n"
      "{\"cmd\":\"distance\",\"name\":\"nope\",\"i\":0,\"j\":1}\n"
      "{\"cmd\":\"quit\"}\n"
      "{\"cmd\":\"info\"}\n");
  std::ostringstream out;
  service.ServeStream(in, out, WireFormat::kJson);
  std::vector<std::string> lines;
  std::istringstream parse(out.str());
  std::string line;
  while (std::getline(parse, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u) << out.str();  // Nothing after bye.
  EXPECT_NE(lines[0].find("\"cmd\":\"graph\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"cmd\":\"states\""), std::string::npos);
  EXPECT_EQ(lines[2],
            std::string(R"({"ok":true,"cmd":"version","version":")") +
                VersionString() + "\"}");
  EXPECT_NE(lines[3].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("\"code\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(lines[4].find("\"code\":\"not_found\""), std::string::npos);
  EXPECT_EQ(lines[5], R"({"ok":true,"cmd":"bye"})");
}

}  // namespace
}  // namespace snd
