// The net tier's framing invariant, proven byte by byte: a request
// stream split at EVERY byte boundary must frame — and therefore answer
// — identically to a whole-line read, on both wire formats. The epoll
// event loop depends on this (TCP hands it arbitrary fragments), so the
// invariant gets its own suite rather than riding the stress test.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/net/conn.h"
#include "snd/obs/event_log.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/service/service.h"
#include "snd/util/random.h"
#include "smoke_util.h"

namespace snd {
namespace {

using net::LineFramer;
using testing_util::SmokeTempPath;

std::vector<std::string> Frames(LineFramer* framer) {
  std::vector<std::string> frames;
  std::string frame;
  while (framer->Next(&frame)) frames.push_back(frame);
  return frames;
}

TEST(LineFramerTest, WholeLine) {
  LineFramer framer;
  const std::string bytes = "distance g 0 1\n";
  framer.Append(bytes.data(), bytes.size());
  EXPECT_EQ(Frames(&framer), std::vector<std::string>{"distance g 0 1"});
  EXPECT_EQ(framer.partial_bytes(), 0u);
}

TEST(LineFramerTest, ManyLinesOneChunk) {
  LineFramer framer;
  const std::string bytes = "a\nbb\n\nccc\n";
  framer.Append(bytes.data(), bytes.size());
  const std::vector<std::string> want = {"a", "bb", "", "ccc"};
  EXPECT_EQ(Frames(&framer), want);
}

TEST(LineFramerTest, CrLfStripped) {
  LineFramer framer;
  const std::string bytes = "info\r\nstats\r\n";
  framer.Append(bytes.data(), bytes.size());
  const std::vector<std::string> want = {"info", "stats"};
  EXPECT_EQ(Frames(&framer), want);
}

TEST(LineFramerTest, EofPromotesPartial) {
  // getline also yields a final line with no trailing newline.
  LineFramer framer;
  const std::string bytes = "quit";
  framer.Append(bytes.data(), bytes.size());
  EXPECT_TRUE(Frames(&framer).empty());
  EXPECT_EQ(framer.partial_bytes(), 4u);
  framer.Eof();
  EXPECT_EQ(Frames(&framer), std::vector<std::string>{"quit"});
}

TEST(LineFramerTest, EofOnEmptyPartialYieldsNothing) {
  LineFramer framer;
  const std::string bytes = "done\n";
  framer.Append(bytes.data(), bytes.size());
  framer.Eof();
  EXPECT_EQ(Frames(&framer), std::vector<std::string>{"done"});
}

TEST(LineFramerTest, EveryByteSplitFramesIdentically) {
  const std::string bytes = "load_graph g x.edges\r\ndistance g 0 1\n\nq\n";
  LineFramer whole;
  whole.Append(bytes.data(), bytes.size());
  const std::vector<std::string> want = Frames(&whole);
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    LineFramer split;
    split.Append(bytes.data(), cut);
    split.Append(bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(Frames(&split), want) << "cut at byte " << cut;
  }
  // The degenerate fragmentation: one byte per read().
  LineFramer trickle;
  for (const char byte : bytes) trickle.Append(&byte, 1);
  EXPECT_EQ(Frames(&trickle), want);
}

// The end-to-end form of the invariant: responses (not just frames)
// from a byte-split session are bitwise identical to whole-line calls.
class NetFramingServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_path_ = SmokeTempPath("net_framing", "graph.edges");
    states_path_ = SmokeTempPath("net_framing", "states.txt");
    const Graph graph = GenerateRing(12, 2);
    SyntheticEvolution evolution(&graph, 7);
    const std::vector<NetworkState> states =
        evolution.GenerateSeries(4, 3, {0.2, 0.1}, {0.2, 0.1}, {});
    ASSERT_TRUE(WriteEdgeList(graph, graph_path_));
    ASSERT_TRUE(WriteStateSeries(states, states_path_));
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(states_path_.c_str());
  }

  // Replies for `lines` delivered whole, in order, concatenated.
  static std::string WholeLineReplies(SndService* service,
                                      const std::vector<std::string>& lines,
                                      WireFormat format) {
    std::string replies;
    for (const std::string& line : lines) {
      replies += service->CallWire(line, format).bytes;
    }
    return replies;
  }

  // Replies for the same session streamed as raw bytes cut at `cut`,
  // pushed through the framer exactly as the event loop would.
  static std::string SplitReplies(SndService* service,
                                  const std::string& bytes, size_t cut,
                                  WireFormat format) {
    LineFramer framer;
    framer.Append(bytes.data(), cut);
    framer.Append(bytes.data() + cut, bytes.size() - cut);
    framer.Eof();
    std::string replies;
    std::string frame;
    while (framer.Next(&frame)) {
      replies += service->CallWire(frame, format).bytes;
    }
    return replies;
  }

  std::string graph_path_;
  std::string states_path_;
};

TEST_F(NetFramingServiceTest, TextResponsesIdenticalAtEveryByteSplit) {
  const std::vector<std::string> lines = {
      "load_graph g " + graph_path_,
      "load_states g " + states_path_,
      "distance g 0 1",
      "series g",
      "info",
      "distance g 9 9 9",  // Typed error: framing must not eat errors.
  };
  std::string bytes;
  for (const std::string& line : lines) bytes += line + "\n";

  SndService reference;
  const std::string want =
      WholeLineReplies(&reference, lines, WireFormat::kText);
  ASSERT_NE(want.find("ok distance g 0 1 "), std::string::npos);

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    // A fresh service per split keeps `info` epochs/counters identical.
    SndService service;
    EXPECT_EQ(SplitReplies(&service, bytes, cut, WireFormat::kText), want)
        << "cut at byte " << cut;
  }
}

TEST_F(NetFramingServiceTest, JsonResponsesIdenticalAtEveryByteSplit) {
  const std::vector<std::string> lines = {
      "{\"cmd\":\"load_graph\",\"name\":\"g\",\"path\":\"" + graph_path_ +
          "\"}",
      "{\"cmd\":\"load_states\",\"name\":\"g\",\"path\":\"" + states_path_ +
          "\"}",
      "{\"cmd\":\"distance\",\"name\":\"g\",\"i\":0,\"j\":1}",
      "{\"cmd\":\"series\",\"name\":\"g\"}",
      "{\"cmd\":\"distance\",\"name\":\"g\",\"i\":9,\"j\":99}",
      "not json at all",
  };
  std::string bytes;
  for (const std::string& line : lines) bytes += line + "\n";

  SndService reference;
  const std::string want =
      WholeLineReplies(&reference, lines, WireFormat::kJson);
  ASSERT_NE(want.find("\"cmd\":\"distance\""), std::string::npos);

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SndService service;
    EXPECT_EQ(SplitReplies(&service, bytes, cut, WireFormat::kJson), want)
        << "cut at byte " << cut;
  }
}

// ServeStream and the frame-at-a-time CallWire share one per-line
// pipeline: a script streamed through ServeStream answers byte for byte
// like the same bytes framed and sent line by line through CallWire, as
// the epoll tier does (LineFramer strips '\r', SkipWireLine drops
// blank and comment lines, `close` ends the connection), and both emit
// the same request events.
class ServeStreamVsCallWireTest : public NetFramingServiceTest {
 protected:
  struct Served {
    std::string bytes;
    std::vector<std::string> event_kinds;
  };

  static Served Serve(const std::string& script, WireFormat format,
                      bool stream) {
    Served served;
    std::ostringstream sink;
    {
      obs::EventLog log(&sink);
      SndServiceConfig config;
      config.event_log = &log;
      SndService service(config);
      if (stream) {
        std::istringstream in(script);
        std::ostringstream out;
        service.ServeStream(in, out, format);
        served.bytes = out.str();
      } else {
        LineFramer framer;
        framer.Append(script.data(), script.size());
        framer.Eof();
        std::string frame;
        while (framer.Next(&frame)) {
          if (SkipWireLine(frame, format)) continue;
          const SndService::WireReply reply = service.CallWire(frame, format);
          served.bytes += reply.bytes;
          if (reply.close) break;
        }
      }
      log.Flush();
      EXPECT_EQ(log.dropped(), 0);
    }
    std::istringstream events(sink.str());
    const std::string kind_key = "\"kind\":\"";
    std::string line;
    while (std::getline(events, line)) {
      if (line.rfind("{\"event\":\"request\"", 0) != 0) continue;
      const size_t at = line.find(kind_key) + kind_key.size();
      served.event_kinds.push_back(line.substr(at, line.find('"', at) - at));
    }
    return served;
  }
};

TEST_F(ServeStreamVsCallWireTest, SameBytesAndEventsOnBothCodecs) {
  // Each script has blank lines, a '#' line (a comment in text, an
  // unparseable line in JSON), a CRLF line, an unparseable line, and a
  // line after `quit` that must get no reply.
  const std::string text_script = "load_graph g " + graph_path_ +
                                  "\nload_states g " + states_path_ +
                                  "\n\n  \t\n# a comment\n"
                                  "distance g 0 1\r\n"
                                  "not_a_command g\n"
                                  "quit\n"
                                  "distance g 0 1\n";
  const std::string json_script =
      "{\"cmd\":\"load_graph\",\"name\":\"g\",\"path\":\"" + graph_path_ +
      "\"}\n{\"cmd\":\"load_states\",\"name\":\"g\",\"path\":\"" +
      states_path_ +
      "\"}\n\n \t \n# not a comment in JSON\n"
      "{\"cmd\":\"distance\",\"name\":\"g\",\"i\":0,\"j\":1}\r\n"
      "not json at all\n"
      "{\"cmd\":\"quit\"}\n"
      "{\"cmd\":\"version\"}\n";
  struct Case {
    WireFormat format;
    std::string script;
    std::string distance;  // A fragment of the distance reply.
    std::string bye;       // The last reply.
    std::vector<std::string> kinds;
  };
  const std::vector<Case> cases = {
      {WireFormat::kText, text_script, "\nok distance g 0 1 ", "ok bye\n",
       {"load_graph", "load_states", "distance", "invalid", "quit"}},
      {WireFormat::kJson, json_script, "\"cmd\":\"distance\"",
       "{\"ok\":true,\"cmd\":\"bye\"}\n",
       {"load_graph", "load_states", "invalid", "distance", "invalid",
        "quit"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.format == WireFormat::kText ? "text" : "json");
    const Served streamed = Serve(c.script, c.format, /*stream=*/true);
    const Served framed = Serve(c.script, c.format, /*stream=*/false);
    EXPECT_EQ(streamed.bytes, framed.bytes);
    EXPECT_NE(streamed.bytes.find(c.distance), std::string::npos);
    ASSERT_GE(streamed.bytes.size(), c.bye.size());
    EXPECT_EQ(streamed.bytes.substr(streamed.bytes.size() - c.bye.size()),
              c.bye);
    EXPECT_EQ(streamed.event_kinds, framed.event_kinds);
    EXPECT_EQ(streamed.event_kinds, c.kinds);
  }
}

TEST(CallWireTest, MatchesCallAndSignalsClose) {
  SndService service;
  const SndService::WireReply info =
      service.CallWire("version", WireFormat::kText);
  EXPECT_FALSE(info.close);
  EXPECT_EQ(info.bytes.rfind("ok version ", 0), 0u);
  EXPECT_EQ(info.bytes.back(), '\n');
  const SndService::WireReply quit =
      service.CallWire("quit", WireFormat::kText);
  EXPECT_TRUE(quit.close);
  EXPECT_EQ(quit.bytes, "ok bye\n");
  const SndService::WireReply json_quit =
      service.CallWire("{\"cmd\":\"quit\"}", WireFormat::kJson);
  EXPECT_TRUE(json_quit.close);
  EXPECT_EQ(json_quit.bytes, "{\"ok\":true,\"cmd\":\"bye\"}\n");
}

TEST(CallWireTest, SubscribeGetsTypedStreamingError) {
  // The epoll tier answers frame-at-a-time; the streaming command must
  // surface its typed rejection, not hang.
  SndService service;
  const SndService::WireReply reply =
      service.CallWire("subscribe g", WireFormat::kText);
  EXPECT_FALSE(reply.close);
  EXPECT_EQ(reply.bytes,
            "error subscribe requires a streaming connection\n");
}

}  // namespace
}  // namespace snd
