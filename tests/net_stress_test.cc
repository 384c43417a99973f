// Concurrency acceptance for the epoll serving tier: an in-process
// NetServer with --shards=2 must answer 32+ simultaneous TCP clients
// bitwise identically to direct in-process CallWire, shed cleanly past
// every admission/backpressure bound with the documented typed
// resource_exhausted line (never a hang or a torn frame), and keep its
// snd.net.* accounting consistent. Runs under tsan in CI.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if !defined(__linux__)

TEST(NetStressTest, RequiresLinux) {
  GTEST_SKIP() << "the epoll tier is Linux-only";
}

#else  // defined(__linux__)

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>

#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/net/net_server.h"
#include "snd/obs/event_log.h"
#include "snd/obs/metrics.h"
#include "snd/obs/names.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/service/service.h"
#include "smoke_util.h"

namespace snd {

// Holds the service's session lock, so that TryServeCached declines.
class SndServiceTestPeer {
 public:
  static SharedMutex& SessionMutex(SndService* service) {
    return service->session_mu_;
  }
};

namespace {

using net::NetServer;
using net::NetServerConfig;
using testing_util::SmokeTempPath;

// Scripted client: connect, send everything, half-close, read to EOF.
// This is the canonical transcript pattern the tier must serve — the
// kernel is free to fragment both directions arbitrarily.
class ScriptedClient {
 public:
  // Returns false (with a diagnostic in *error) only on socket-layer
  // failures; server-sent bytes always land in *response.
  static bool Run(int port, const std::string& request,
                  std::string* response, std::string* error) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1) {
      ::close(fd);
      *error = "inet_pton failed";
      return false;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      *error = std::string("connect: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        // EPIPE/ECONNRESET here is a legal server action (admission
        // shed): stop sending, harvest whatever reply was written.
        if (errno == EPIPE || errno == ECONNRESET) break;
        *error = std::string("send: ") + std::strerror(errno);
        ::close(fd);
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == ECONNRESET) break;
        *error = std::string("recv: ") + std::strerror(errno);
        ::close(fd);
        return false;
      }
      if (n == 0) break;
      response->append(buffer, static_cast<size_t>(n));
    }
    ::close(fd);
    return true;
  }
};

// A connection held open without sending — occupies a --max-conns slot.
class HeldConn {
 public:
  explicit HeldConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~HeldConn() { Close(); }
  bool ok() const { return fd_ >= 0; }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

// Thread-funneled failure log: joins first, reports after.
class FailureLog {
 public:
  void Add(std::string message) {
    std::lock_guard<std::mutex> lock(mu_);
    failures_.push_back(std::move(message));
  }
  void Report() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& failure : failures_) ADD_FAILURE() << failure;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
};

std::string Truncate(const std::string& bytes, size_t limit = 400) {
  if (bytes.size() <= limit) return bytes;
  return bytes.substr(0, limit) + "...[" + std::to_string(bytes.size()) +
         " bytes]";
}

std::vector<std::string> SplitLines(const std::string& bytes) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < bytes.size()) {
    const size_t nl = bytes.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(bytes.substr(start) + "[unterminated]");
      break;
    }
    lines.push_back(bytes.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// One snd.net.* row of the registry the tier reports into.
int64_t NetCount(const SndService& service, std::string_view name) {
  return obs::SnapshotValue(service.metrics().Snapshot(), name);
}

bool WaitForNetCount(const SndService& service, std::string_view name,
                     int64_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (NetCount(service, name) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

bool WaitForActiveConns(const SndService& service, int64_t want) {
  return WaitForNetCount(service, obs::kMetricNetConnsActive, want);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Takes a server's only --max-inflight slot and keeps it: a load_graph
// whose path is a FIFO blocks in open() on a dispatch worker until
// Release writes the graph into the FIFO. While it blocks, a frame
// answered at all was answered on the loop thread.
class SlotBlocker {
 public:
  SlotBlocker(const SndService& service, int port, WireFormat format,
              const std::string& fifo_path, std::string graph_bytes)
      : fifo_path_(fifo_path), graph_bytes_(std::move(graph_bytes)) {
    std::remove(fifo_path_.c_str());
    made_ = ::mkfifo(fifo_path_.c_str(), 0600) == 0;
    if (!made_) return;
    const std::string line =
        format == WireFormat::kText
            ? "load_graph blocked " + fifo_path_ + "\n"
            : "{\"cmd\":\"load_graph\",\"name\":\"blocked\",\"path\":\"" +
                  fifo_path_ + "\"}\n";
    client_ = std::thread([this, port, line] {
      ok_ = ScriptedClient::Run(port, line, &reply_, &error_);
      answered_.store(true);
    });
    holding_ = WaitForNetCount(service, obs::kMetricNetInflight, 1);
  }
  ~SlotBlocker() { Release(); }

  bool holding() const { return made_ && holding_; }

  // Feeds the graph to the blocked load and waits for its reply.
  std::string Release() {
    if (client_.joinable()) {
      // O_NONBLOCK fails at once while the load has not yet opened the
      // FIFO for reading, so retry until it has (or has answered).
      while (!answered_.load()) {
        const int fd = ::open(fifo_path_.c_str(), O_WRONLY | O_NONBLOCK);
        if (fd >= 0) {
          const ssize_t n =
              ::write(fd, graph_bytes_.data(), graph_bytes_.size());
          (void)n;
          ::close(fd);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      client_.join();
    }
    std::remove(fifo_path_.c_str());
    return ok_ ? reply_ : "client error: " + error_;
  }

 private:
  const std::string fifo_path_;
  const std::string graph_bytes_;
  bool made_ = false;
  bool holding_ = false;
  bool ok_ = false;
  std::atomic<bool> answered_{false};
  std::string reply_;
  std::string error_;
  std::thread client_;
};

class NetStressTest : public ::testing::Test {
 protected:
  static constexpr int kGraphs = 8;
  static constexpr int kClients = 32;

  void SetUp() override {
    graph_path_ = SmokeTempPath("net_stress", "graph.edges");
    states_path_ = SmokeTempPath("net_stress", "states.txt");
    const Graph graph = GenerateRing(16, 2);
    SyntheticEvolution evolution(&graph, 5);
    const std::vector<NetworkState> states =
        evolution.GenerateSeries(4, 4, {0.25, 0.05}, {0.25, 0.05}, {});
    ASSERT_TRUE(WriteEdgeList(graph, graph_path_));
    ASSERT_TRUE(WriteStateSeries(states, states_path_));
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(states_path_.c_str());
  }

  // Loads ring-0..ring-(kGraphs-1) with states, straight through the
  // wire entry point the server itself uses.
  void Preload(SndService* service) {
    for (int g = 0; g < kGraphs; ++g) {
      const std::string name = "ring-" + std::to_string(g);
      const SndService::WireReply graph_reply = service->CallWire(
          "load_graph " + name + " " + graph_path_, WireFormat::kText);
      ASSERT_EQ(graph_reply.bytes.rfind("ok graph ", 0), 0u)
          << graph_reply.bytes;
      const SndService::WireReply states_reply = service->CallWire(
          "load_states " + name + " " + states_path_, WireFormat::kText);
      ASSERT_EQ(states_reply.bytes.rfind("ok states ", 0), 0u)
          << states_reply.bytes;
    }
  }

  // The per-client scripted session: read-only, so replies are
  // deterministic and a bitwise reference can be precomputed on the
  // very service the server wraps. distance indexes the 4 loaded
  // states, so pairs stay in [0, 4).
  static std::vector<std::string> ClientLines(int client) {
    const std::string name = "ring-" + std::to_string(client % kGraphs);
    std::vector<std::string> lines;
    for (int k = 0; k < 6; ++k) {
      lines.push_back("distance " + name + " " +
                      std::to_string((client + k) % 4) + " " +
                      std::to_string((client * 3 + k) % 4));
    }
    lines.push_back("series " + name);
    lines.push_back("distance " + name + " 0 9999");  // Typed error path.
    lines.push_back("quit");
    return lines;
  }

  static std::string JoinRequest(const std::vector<std::string>& lines) {
    std::string request;
    for (const std::string& line : lines) request += line + "\n";
    return request;
  }

  static std::string Reference(SndService* service,
                               const std::vector<std::string>& lines,
                               WireFormat format) {
    std::string replies;
    for (const std::string& line : lines) {
      replies += service->CallWire(line, format).bytes;
    }
    return replies;
  }

  std::string graph_path_;
  std::string states_path_;
};

TEST_F(NetStressTest, BitwiseIdenticalAcross32ConcurrentClients) {
  SndService service;
  Preload(&service);

  NetServerConfig config;
  config.shards = 2;
  StatusOr<std::unique_ptr<NetServer>> server =
      NetServer::Start(&service, config);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const int port = (*server)->port();

  // References computed against the same shared service the server
  // dispatches into: any divergence is the tier's fault, not state's.
  std::vector<std::string> requests(kClients), want(kClients);
  for (int c = 0; c < kClients; ++c) {
    const std::vector<std::string> lines = ClientLines(c);
    requests[c] = JoinRequest(lines);
    want[c] = Reference(&service, lines, WireFormat::kText);
    ASSERT_NE(want[c].find("ok distance "), std::string::npos);
    ASSERT_NE(want[c].find("error "), std::string::npos);
  }

  FailureLog failures;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string response, error;
      if (!ScriptedClient::Run(port, requests[c], &response, &error)) {
        failures.Add("client " + std::to_string(c) + ": " + error);
        return;
      }
      if (response != want[c]) {
        failures.Add("client " + std::to_string(c) +
                     " response diverged\n  want: " + Truncate(want[c]) +
                     "\n  got:  " + Truncate(response));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  failures.Report();

  const std::vector<obs::MetricRow> rows = service.metrics().Snapshot();
  const int64_t frames = obs::SnapshotValue(rows, obs::kMetricNetFrames);
  EXPECT_GE(obs::SnapshotValue(rows, obs::kMetricNetConnsAccepted),
            kClients);
  EXPECT_EQ(obs::SnapshotValue(rows, obs::kMetricNetConnsShed), 0);
  EXPECT_EQ(obs::SnapshotValue(rows, obs::kMetricNetInflightShed), 0);
  EXPECT_EQ(obs::SnapshotValue(rows, obs::kMetricNetBackpressureShed), 0);
  EXPECT_GE(frames, static_cast<int64_t>(kClients * ClientLines(0).size()));
  (*server)->Shutdown();
  EXPECT_EQ(NetCount(service, obs::kMetricNetConnsActive), 0);
}

TEST_F(NetStressTest, InterleavedLoadsDistanceAndStatsStayWellFormed) {
  // Epoch counters are global, so concurrent load_graph replies cannot
  // be byte-predicted — this test pins everything around the epoch
  // number instead, while distance replies stay fully bitwise.
  SndService service;
  Preload(&service);

  // Template the expected shapes from a throwaway in-process load.
  const std::string proto_graph =
      service.CallWire("load_graph proto " + graph_path_, WireFormat::kText)
          .bytes;
  const std::string proto_states =
      service
          .CallWire("load_states proto " + states_path_, WireFormat::kText)
          .bytes;
  const std::string proto_distance =
      service.CallWire("distance proto 0 1", WireFormat::kText).bytes;
  ASSERT_EQ(proto_graph.rfind("ok graph proto ", 0), 0u) << proto_graph;
  const size_t graph_epoch_at = proto_graph.rfind(" epoch ");
  const size_t states_epoch_at = proto_states.rfind(" epoch ");
  ASSERT_NE(graph_epoch_at, std::string::npos);
  ASSERT_NE(states_epoch_at, std::string::npos);

  NetServerConfig config;
  config.shards = 2;
  StatusOr<std::unique_ptr<NetServer>> server =
      NetServer::Start(&service, config);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const int port = (*server)->port();

  auto expect_templated = [](const std::string& proto, size_t epoch_at,
                             const std::string& name,
                             const std::string& line, FailureLog* failures,
                             int client) {
    // "ok graph proto nodes 16 ... epoch N" with proto -> name and any
    // epoch number accepted.
    std::string want_prefix = proto.substr(0, epoch_at + 7);  // " epoch "
    const size_t name_at = want_prefix.find(" proto ");
    want_prefix.replace(name_at, 7, " " + name + " ");
    if (line.rfind(want_prefix, 0) != 0) {
      failures->Add("client " + std::to_string(client) +
                    ": want prefix '" + want_prefix + "', got '" + line +
                    "'");
    }
  };

  FailureLog failures;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string name = "c" + std::to_string(c);
      const std::string request = "load_graph " + name + " " + graph_path_ +
                                  "\nload_states " + name + " " +
                                  states_path_ + "\ndistance " + name +
                                  " 0 1\nstats\nquit\n";
      std::string response, error;
      if (!ScriptedClient::Run(port, request, &response, &error)) {
        failures.Add("client " + std::to_string(c) + ": " + error);
        return;
      }
      const std::vector<std::string> lines = SplitLines(response);
      if (lines.size() < 5) {
        failures.Add("client " + std::to_string(c) + ": short response\n" +
                     Truncate(response));
        return;
      }
      expect_templated(proto_graph, graph_epoch_at, name, lines[0],
                       &failures, c);
      expect_templated(proto_states, states_epoch_at, name, lines[1],
                       &failures, c);
      // distance replies carry no epoch: fully bitwise.
      std::string want_distance = proto_distance;
      want_distance.replace(want_distance.find(" proto "), 7,
                            " " + name + " ");
      if (lines[2] + "\n" != want_distance) {
        failures.Add("client " + std::to_string(c) + ": distance '" +
                     lines[2] + "' want '" + want_distance + "'");
      }
      int stats_rows = -1;
      if (std::sscanf(lines[3].c_str(), "ok stats rows %d", &stats_rows) !=
              1 ||
          stats_rows < 0) {
        failures.Add("client " + std::to_string(c) + ": bad stats header '" +
                     lines[3] + "'");
        return;
      }
      const size_t want_lines = 4 + static_cast<size_t>(stats_rows) + 1;
      if (lines.size() != want_lines || lines.back() != "ok bye") {
        failures.Add("client " + std::to_string(c) + ": got " +
                     std::to_string(lines.size()) + " lines, want " +
                     std::to_string(want_lines) + " ending 'ok bye'");
      }
    });
  }
  for (std::thread& client : clients) client.join();
  failures.Report();
  (*server)->Shutdown();
}

TEST_F(NetStressTest, ShedsPastMaxConnsWithTypedErrorThenRecovers) {
  SndService service;
  Preload(&service);

  NetServerConfig config;
  config.shards = 2;
  config.max_conns = 3;
  StatusOr<std::unique_ptr<NetServer>> server =
      NetServer::Start(&service, config);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const int port = (*server)->port();

  std::vector<std::unique_ptr<HeldConn>> held;
  for (int k = 0; k < 3; ++k) {
    held.push_back(std::make_unique<HeldConn>(port));
    ASSERT_TRUE(held.back()->ok()) << "held conn " << k;
  }
  ASSERT_TRUE(WaitForActiveConns(service, 3));

  // The 4th connection gets exactly the typed line, then EOF — never a
  // silent close, never a hang.
  std::string response, error;
  ASSERT_TRUE(ScriptedClient::Run(port, "", &response, &error)) << error;
  EXPECT_EQ(response, "error connection limit reached (--max-conns=3)\n");
  EXPECT_EQ(NetCount(service, obs::kMetricNetConnsShed), 1);

  // Releasing a slot restores service; the shed was per-connection, not
  // a poisoned listener.
  held.front()->Close();
  ASSERT_TRUE(WaitForActiveConns(service, 2));
  const std::string want =
      service.CallWire("distance ring-0 0 1", WireFormat::kText).bytes +
      service.CallWire("quit", WireFormat::kText).bytes;
  response.clear();
  ASSERT_TRUE(
      ScriptedClient::Run(port, "distance ring-0 0 1\nquit\n", &response,
                          &error))
      << error;
  EXPECT_EQ(response, want);
  (*server)->Shutdown();
}

TEST_F(NetStressTest, MaxInflightShedIsTypedAndPerFrame) {
  // Cache hits are answered on the loop thread and never shed, so every
  // frame here reads a pair nothing has read before: each one misses
  // the cache and needs a dispatch slot.
  constexpr int kHammerClients = 16;
  constexpr int kRequests = 8;
  constexpr int kStates = 17;  // 136 pairs >= 16 x 8 distinct ones.
  const std::string cold_states = SmokeTempPath("net_stress", "cold.txt");
  {
    const Graph graph = GenerateRing(16, 2);
    SyntheticEvolution evolution(&graph, 11);
    ASSERT_TRUE(WriteStateSeries(
        evolution.GenerateSeries(kStates, 4, {0.25, 0.05}, {0.25, 0.05}, {}),
        cold_states));
  }
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < kStates; ++i) {
    for (int j = i + 1; j < kStates; ++j) pairs.emplace_back(i, j);
  }
  auto line_of = [&](int c, int k) {
    const auto [i, j] = pairs[static_cast<size_t>(c * kRequests + k)];
    return "distance cold " + std::to_string(i) + " " + std::to_string(j);
  };
  // Expected replies from a second service: values are deterministic,
  // and the serving one must stay cold.
  SndService reference;
  SndService service;
  for (SndService* s : {&reference, &service}) {
    ASSERT_EQ(s->CallWire("load_graph cold " + graph_path_, WireFormat::kText)
                  .bytes.rfind("ok graph ", 0),
              0u);
    ASSERT_EQ(s->CallWire("load_states cold " + cold_states,
                          WireFormat::kText)
                  .bytes.rfind("ok states ", 0),
              0u);
  }
  std::remove(cold_states.c_str());

  NetServerConfig config;
  config.shards = 2;
  config.max_inflight = 1;  // Saturates trivially under 16 clients.
  StatusOr<std::unique_ptr<NetServer>> server =
      NetServer::Start(&service, config);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const int port = (*server)->port();

  const std::string shed_line = "error server saturated (--max-inflight=1)\n";
  const std::string bye_line = "ok bye\n";

  FailureLog failures;
  std::atomic<int64_t> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kHammerClients; ++c) {
    std::vector<std::string> ok_lines;
    std::string request;
    for (int k = 0; k < kRequests; ++k) {
      ok_lines.push_back(
          reference.CallWire(line_of(c, k), WireFormat::kText).bytes);
      request += line_of(c, k) + "\n";
    }
    request += "quit\n";
    clients.emplace_back([&, c, request, ok_lines] {
      std::string response, error;
      if (!ScriptedClient::Run(port, request, &response, &error)) {
        failures.Add("client " + std::to_string(c) + ": " + error);
        return;
      }
      // Whether any given frame sheds is a race; the contract is that
      // EVERY reply is exactly the right answer or exactly the typed
      // saturation error — one line per frame, nothing torn or dropped.
      const std::vector<std::string> lines = SplitLines(response);
      if (lines.size() != kRequests + 1) {
        failures.Add("client " + std::to_string(c) + ": " +
                     std::to_string(lines.size()) + " reply lines, want " +
                     std::to_string(kRequests + 1) + "\n" +
                     Truncate(response));
        return;
      }
      for (size_t k = 0; k < lines.size(); ++k) {
        const std::string line = lines[k] + "\n";
        const bool is_last = k + 1 == lines.size();
        const bool legal =
            line == shed_line || (is_last ? line == bye_line
                                          : line == ok_lines[k]);
        if (!legal) {
          failures.Add("client " + std::to_string(c) + " line " +
                       std::to_string(k) + " illegal: '" + lines[k] + "'");
          return;
        }
        if (!is_last && line != shed_line) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  failures.Report();
  // Saturation must not starve the tier outright: some work completes,
  // and some frames really were shed.
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_GT(NetCount(service, obs::kMetricNetInflightShed), 0);
  EXPECT_EQ(NetCount(service, obs::kMetricNetFrames),
            kHammerClients * (kRequests + 1));
  (*server)->Shutdown();
}

TEST_F(NetStressTest, CacheHitsTakeNoDispatchSlotOnEitherCodec) {
  // The one --max-inflight slot stays taken throughout, so any frame
  // that needed the dispatch pool is shed: a warm read answered with
  // CallWire's bytes was answered on the loop thread.
  const std::string graph_bytes = ReadFile(graph_path_);
  const std::string fifo = SmokeTempPath("net_stress", "graph.fifo");
  for (const WireFormat format : {WireFormat::kText, WireFormat::kJson}) {
    const bool text = format == WireFormat::kText;
    SCOPED_TRACE(text ? "text" : "json");
    SndService service;
    Preload(&service);
    const std::vector<std::string> reads =
        text ? std::vector<std::string>{"distance ring-0 3 1",
                                        "series ring-0", "matrix ring-0",
                                        "anomalies ring-0"}
             : std::vector<std::string>{
                   "{\"cmd\":\"distance\",\"name\":\"ring-0\",\"i\":3,"
                   "\"j\":1}",
                   "{\"cmd\":\"series\",\"name\":\"ring-0\"}",
                   "{\"cmd\":\"matrix\",\"name\":\"ring-0\"}",
                   "{\"cmd\":\"anomalies\",\"name\":\"ring-0\"}"};
    // ring-1's calculator is built, but this pair is not cached.
    service.CallWire("distance ring-1 0 1", WireFormat::kText);
    const std::string cold = text ? "distance ring-1 0 2"
                                  : "{\"cmd\":\"distance\",\"name\":"
                                    "\"ring-1\",\"i\":0,\"j\":2}";
    std::string request;
    std::string want;
    for (const std::string& line : reads) {
      service.CallWire(line, format);  // Warms the pairs.
      request += line + "\n";
      want += service.CallWire(line, format).bytes;
    }
    request += cold + "\n";
    want += text ? "error server saturated (--max-inflight=1)\n"
                 : "{\"ok\":false,\"code\":\"resource_exhausted\","
                   "\"error\":\"server saturated (--max-inflight=1)\"}\n";

    NetServerConfig config;
    config.format = format;
    config.max_inflight = 1;
    StatusOr<std::unique_ptr<NetServer>> server =
        NetServer::Start(&service, config);
    ASSERT_TRUE(server.ok()) << server.status().message();
    const int port = (*server)->port();
    SlotBlocker blocker(service, port, format, fifo, graph_bytes);
    ASSERT_TRUE(blocker.holding());

    const std::string latency_count =
        std::string(obs::kMetricNetFrameLatency) + ".count";
    const int64_t frames_before = NetCount(service, latency_count);
    const int64_t calc_hits_before =
        NetCount(service, obs::kMetricCacheCalcHits);
    const int64_t misses_before =
        NetCount(service, obs::kMetricCacheResultMisses);
    std::string response, error;
    ASSERT_TRUE(ScriptedClient::Run(port, request, &response, &error))
        << error;
    EXPECT_EQ(response, want);
    EXPECT_EQ(NetCount(service, obs::kMetricNetInflightShed), 1);
    // One calculator hit per read; the cold frame's declined probe
    // counted nothing.
    EXPECT_EQ(NetCount(service, obs::kMetricCacheCalcHits) - calc_hits_before,
              static_cast<int64_t>(reads.size()));
    EXPECT_EQ(NetCount(service, obs::kMetricCacheResultMisses), misses_before);
    // Frames answered on the loop are timed like dispatched ones.
    EXPECT_EQ(NetCount(service, latency_count) - frames_before,
              static_cast<int64_t>(reads.size()));
    const std::string loaded = blocker.Release();
    EXPECT_NE(loaded.find("blocked"), std::string::npos) << loaded;
    EXPECT_EQ(loaded.find("error"), std::string::npos) << loaded;
    (*server)->Shutdown();
  }
}

TEST_F(NetStressTest, DeclinedHitCompletesThroughThePoolWithEqualDeltas) {
  // The same warm read twice: first answered on the loop thread, then,
  // while a writer holds the session lock so the loop's probe declines,
  // through the dispatch pool. Bytes and per-request registry deltas
  // must agree.
  SndService service;
  Preload(&service);
  const std::string line = "series ring-2";
  service.CallWire(line, WireFormat::kText);  // Warms the pairs.
  const std::string want = service.CallWire(line, WireFormat::kText).bytes;

  NetServerConfig config;
  StatusOr<std::unique_ptr<NetServer>> server =
      NetServer::Start(&service, config);
  ASSERT_TRUE(server.ok()) << server.status().message();
  const int port = (*server)->port();

  const std::vector<std::string> names = {
      obs::kMetricReqOk,          obs::kMetricCacheResultHits,
      obs::kMetricCacheResultMisses, obs::kMetricCacheCalcHits,
      obs::kMetricNetFrames,      obs::kMetricReqSeries};
  auto counts = [&] {
    const std::vector<obs::MetricRow> rows = service.metrics().Snapshot();
    std::vector<int64_t> values;
    for (const std::string& name : names) {
      values.push_back(obs::SnapshotValue(rows, name));
    }
    return values;
  };
  auto delta = [](const std::vector<int64_t>& after,
                  const std::vector<int64_t>& before) {
    std::vector<int64_t> d;
    for (size_t k = 0; k < after.size(); ++k) {
      d.push_back(after[k] - before[k]);
    }
    return d;
  };

  const std::vector<int64_t> start = counts();
  std::string inline_reply, error;
  ASSERT_TRUE(
      ScriptedClient::Run(port, line + "\n", &inline_reply, &error))
      << error;
  const std::vector<int64_t> after_inline = counts();
  EXPECT_EQ(inline_reply, want);

  std::string pooled_reply;
  bool pooled_ok = false;
  bool dispatched = false;
  {
    SharedMutex& session_mu = SndServiceTestPeer::SessionMutex(&service);
    session_mu.Lock();
    std::thread client([&] {
      pooled_ok =
          ScriptedClient::Run(port, line + "\n", &pooled_reply, &error);
    });
    // The declined frame waits in the pool for the reader lock.
    dispatched = WaitForNetCount(service, obs::kMetricNetInflight, 1);
    session_mu.Unlock();
    client.join();
  }
  ASSERT_TRUE(pooled_ok) << error;
  EXPECT_TRUE(dispatched);
  EXPECT_EQ(pooled_reply, want);
  const std::vector<int64_t> after_pool = counts();
  const std::vector<int64_t> inline_delta = delta(after_inline, start);
  EXPECT_EQ(delta(after_pool, after_inline), inline_delta);
  // ok +1, hits = 3 adjacent pairs, misses 0, calculator hit +1, one
  // frame, one series request.
  EXPECT_EQ(inline_delta, (std::vector<int64_t>{1, 3, 0, 1, 1, 1}));
  (*server)->Shutdown();
}

TEST_F(NetStressTest, EventIdsStayContiguousAcrossHitMissAndSubscribe) {
  // Trace ids number the logged events 1, 2, 3, ... whichever path
  // answered each line: a miss dispatched to the pool, a hit answered
  // on the loop, and a subscribe streamed under its own line's trace.
  std::ostringstream sink;
  std::vector<std::string> kinds;
  {
    obs::EventLog log(&sink);
    SndServiceConfig service_config;
    service_config.event_log = &log;
    SndService service(service_config);
    Preload(&service);
    StatusOr<std::unique_ptr<NetServer>> server =
        NetServer::Start(&service, NetServerConfig());
    ASSERT_TRUE(server.ok()) << server.status().message();
    std::string response, error;
    ASSERT_TRUE(ScriptedClient::Run(
        (*server)->port(), "distance ring-0 0 2\ndistance ring-0 0 2\n",
        &response, &error))
        << error;
    std::istringstream in("subscribe ring-0 --from=0 --count=2\n"
                          "distance ring-0 0 2\n");
    std::ostringstream out;
    service.ServeStream(in, out, WireFormat::kText);
    ASSERT_NE(out.str().find("ok subscribe_end ring-0 count 2"),
              std::string::npos)
        << out.str();
    response.clear();
    ASSERT_TRUE(ScriptedClient::Run((*server)->port(),
                                    "distance ring-0 2 0\n", &response,
                                    &error))
        << error;
    (*server)->Shutdown();
    log.Flush();
    EXPECT_EQ(log.dropped(), 0);
  }
  std::istringstream events(sink.str());
  std::string event;
  uint64_t want_id = 1;
  int64_t subscribe_parse_ns = -1;
  while (std::getline(events, event)) {
    const std::string id_key = "\"trace_id\":";
    const size_t at = event.find(id_key);
    ASSERT_NE(at, std::string::npos) << event;
    EXPECT_EQ(std::stoull(event.substr(at + id_key.size())), want_id)
        << event;
    ++want_id;
    const std::string kind_key = "\"kind\":\"";
    const size_t kind_at = event.find(kind_key) + kind_key.size();
    kinds.push_back(event.substr(kind_at, event.find('"', kind_at) - kind_at));
    if (kinds.back() == "subscribe") {
      const std::string parse_key = "\"parse_ns\":";
      subscribe_parse_ns = std::stoll(
          event.substr(event.find(parse_key) + parse_key.size()));
    }
  }
  // 16 preload lines, then the four reads and the subscribe.
  ASSERT_EQ(kinds.size(), 2u * kGraphs + 5);
  EXPECT_EQ(std::vector<std::string>(kinds.end() - 5, kinds.end()),
            (std::vector<std::string>{"distance", "distance", "subscribe",
                                      "distance", "distance"}));
  // The subscribe event carries its line's parse time.
  EXPECT_GT(subscribe_parse_ns, 0);
}

TEST_F(NetStressTest, OversizeRequestLineShedsWithTypedError) {
  SndService service;
  NetServerConfig config;
  config.max_frame_bytes = 64;
  StatusOr<std::unique_ptr<NetServer>> server =
      NetServer::Start(&service, config);
  ASSERT_TRUE(server.ok()) << server.status().message();

  std::string response, error;
  ASSERT_TRUE(ScriptedClient::Run((*server)->port(),
                                  std::string(200, 'x'),  // No newline.
                                  &response, &error))
      << error;
  EXPECT_EQ(response, "error request line exceeds 64 bytes\n");
  EXPECT_EQ(NetCount(service, obs::kMetricNetBackpressureShed), 1);
  (*server)->Shutdown();
}

TEST_F(NetStressTest, SlowReaderBacklogShedsWithTypedError) {
  SndService service;
  Preload(&service);

  NetServerConfig config;
  // Any real reply overflows a 16-byte write budget, so the slow-reader
  // path triggers deterministically without needing an actually-slow
  // client.
  config.max_write_buffer = 16;
  StatusOr<std::unique_ptr<NetServer>> server =
      NetServer::Start(&service, config);
  ASSERT_TRUE(server.ok()) << server.status().message();

  std::string response, error;
  ASSERT_TRUE(ScriptedClient::Run((*server)->port(), "series ring-0\n",
                                  &response, &error))
      << error;
  EXPECT_EQ(response,
            "error write buffer overflow (limit 16 bytes)\n");
  EXPECT_EQ(NetCount(service, obs::kMetricNetBackpressureShed), 1);
  (*server)->Shutdown();
}

TEST_F(NetStressTest, JsonSessionBitwiseIdenticalToInProcess) {
  // Single client against a fresh service: the epoch sequence matches a
  // fresh reference service replaying the same commands, so even the
  // load replies compare bitwise.
  const std::vector<std::string> lines = {
      "{\"cmd\":\"load_graph\",\"name\":\"g\",\"path\":\"" + graph_path_ +
          "\"}",
      "{\"cmd\":\"load_states\",\"name\":\"g\",\"path\":\"" + states_path_ +
          "\"}",
      "{\"cmd\":\"distance\",\"name\":\"g\",\"i\":0,\"j\":3}",
      "{\"cmd\":\"subscribe\",\"name\":\"g\"}",  // Typed streaming error.
      "this is not json",
      "{\"cmd\":\"quit\"}",
  };
  SndService reference;
  std::string want;
  for (const std::string& line : lines) {
    want += reference.CallWire(line, WireFormat::kJson).bytes;
  }

  SndService service;
  NetServerConfig config;
  config.shards = 2;
  config.format = WireFormat::kJson;
  StatusOr<std::unique_ptr<NetServer>> server =
      NetServer::Start(&service, config);
  ASSERT_TRUE(server.ok()) << server.status().message();

  std::string request;
  for (const std::string& line : lines) request += line + "\n";
  std::string response, error;
  ASSERT_TRUE(ScriptedClient::Run((*server)->port(), request, &response,
                                  &error))
      << error;
  EXPECT_EQ(response, want);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace snd

#endif  // defined(__linux__)
