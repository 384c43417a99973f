// The `snd_serve` front end of the serving subsystem
// (snd/service/service.h): speaks the newline-delimited text protocol
// (api/text_codec.h) or the one-object-per-line JSON protocol
// (api/json_codec.h) over stdio by default, or over a TCP socket with
// --listen — served by the epoll net tier (src/snd/net/, the
// default) or the legacy thread-per-connection loop
// (--accept-mode=thread).
//
// usage: snd_serve [flags]
//   (no flags)         serve one session on stdin/stdout until EOF/quit
//   --listen=PORT      accept TCP connections on --bind:PORT over ONE
//                      shared session registry — every client sees the
//                      same resident graphs, states, and caches; reads
//                      run concurrently, mutations take the writer lock
//                      (port 0 picks a free port and prints it)
//   --bind=ADDR        IPv4 address to bind (default 127.0.0.1)
//   --backlog=N        listen(2) backlog (default SOMAXCONN)
//   --accept-mode=epoll|thread
//                      epoll (default): non-blocking event loops frame
//                      requests incrementally, heavy dispatches run off
//                      the loop threads, slow readers shed with a typed
//                      resource_exhausted error. `subscribe` needs a
//                      dedicated streaming connection and is answered
//                      with its typed failed_precondition here.
//                      thread: the legacy one-thread-per-connection
//                      loop, byte-for-byte the historical wire behavior
//                      including streaming `subscribe`.
//   --shards=N         epoll mode: worker event loops that own the
//                      connections and answer result-cache hits
//                      (default 1); one dispatch pool of 2 x N threads
//                      runs every other request
//   --max-conns=N      admission bound on open connections (default
//                      256; 0 = unbounded). epoll mode sheds with a
//                      typed resource_exhausted line; thread mode
//                      closes silently (historical behavior)
//   --max-inflight=N   epoll mode: bound on dispatches in flight
//                      process-wide; excess requests are answered
//                      resource_exhausted instead of queueing
//                      (default 0 = unbounded). Cache hits answered on
//                      the event loop take no slot and are never shed
//   --format=text|json wire format (default text)
//   --cache=N          result-LRU capacity in entries (default 65536)
//   --retain=N         keep only the newest N states per session (N >= 2;
//                      default 0 = unbounded) — enables bounded-memory
//                      streaming with `append_state` + `subscribe`
//   --log-events=FILE  append one JSONL observability event per request
//                      to FILE (rotation-safe: a background writer
//                      appends each drained batch as one unbuffered
//                      write of whole lines; see README "Observability"
//                      for the schema)
//   --stats-interval=SECS
//                      every SECS seconds take a full `stats` snapshot:
//                      appended to --log-events when set, else printed
//                      as one JSON object per line on stderr
//   --version          print the version and exit
//   --help, -h         print this message
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <variant>

#include "snd/api/json_codec.h"  // Periodic stats lines reuse the codec.
#include "snd/obs/event_log.h"
#include "snd/service/options_parse.h"  // SplitSndFlag for --listen/--cache.
#include "snd/service/service.h"
#include "snd/util/mutex.h"
#include "snd/util/version.h"

#if !defined(_WIN32)
#include "snd/net/net_server.h"
#include "snd/net/thread_server.h"
#endif

namespace {

constexpr char kUsage[] =
    "usage: snd_serve [flags]\n"
    "  (no flags)         serve one session on stdin/stdout\n"
    "  --listen=PORT      serve TCP sessions on --bind:PORT (0 picks a\n"
    "                     free port and prints it) over one shared\n"
    "                     session registry — reads run concurrently,\n"
    "                     mutations exclusively\n"
    "  --bind=ADDR        IPv4 address to bind (default 127.0.0.1)\n"
    "  --backlog=N        listen(2) backlog (default SOMAXCONN)\n"
    "  --accept-mode=epoll|thread\n"
    "                     epoll (default): N event loops, typed\n"
    "                     resource_exhausted admission/backpressure\n"
    "                     shedding; thread: legacy one thread per\n"
    "                     connection (streaming `subscribe` lives here)\n"
    "  --shards=N         epoll mode: event loops, each adding 2\n"
    "                     dispatch threads (default 1)\n"
    "  --max-conns=N      open-connection bound (default 256; 0 = off)\n"
    "  --max-inflight=N   epoll mode: in-flight dispatch bound\n"
    "                     (default 0 = off); cache hits answered on\n"
    "                     the event loop take no slot, never shed\n"
    "  --format=text|json wire format (default text)\n"
    "  --cache=N          result-LRU capacity in entries (default 65536)\n"
    "  --retain=N         keep only the newest N states per session\n"
    "                     (N >= 2; default 0 = unbounded)\n"
    "  --log-events=FILE  append one JSONL observability event per\n"
    "                     request to FILE (rotation-safe)\n"
    "  --stats-interval=SECS\n"
    "                     periodic full `stats` snapshot: to --log-events\n"
    "                     when set, else one JSON line on stderr\n"
    "  --version          print the version and exit\n"
    "  --help, -h         print this message\n"
    "Protocol: send `help` (or see the README's Serving section).\n";

int Fail(const std::string& message) {
  std::fprintf(stderr, "snd_serve: %s\n%s", message.c_str(), kUsage);
  return 1;
}

// Periodically drives a `stats` request through the service. When an
// event log is attached, StatsCmd itself appends the {"event":"stats"}
// snapshot line; otherwise the full response is printed as one JSON
// object per line on stderr. Joined before the service dies.
class StatsReporter {
 public:
  StatsReporter(snd::SndService* service, long long interval_secs,
                bool have_event_log)
      : service_(service),
        interval_(std::chrono::seconds(interval_secs)),
        have_event_log_(have_event_log) {
    thread_ = std::thread([this] { Run(); });  // snd-lint: allow(raw-thread) -- timer loop, not compute
  }

  ~StatsReporter() {
    {
      snd::MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.NotifyAll();
    thread_.join();
  }

 private:
  void Run() {
    for (;;) {
      {
        snd::MutexLock lock(mu_);
        auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(interval_);
        while (!stop_ && remaining.count() > 0) {
          const auto before = std::chrono::steady_clock::now();
          cv_.WaitFor(lock, remaining);
          remaining -= std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - before);
        }
        if (stop_) return;
      }
      const snd::StatusOr<snd::Response> response =
          service_->Dispatch(snd::Request(snd::StatsRequest{}));
      if (response.ok() && !have_event_log_) {
        std::fprintf(stderr, "%s\n",
                     snd::RenderJsonResponse(*response).c_str());
      }
    }
  }

  snd::SndService* const service_;
  const std::chrono::milliseconds interval_;
  const bool have_event_log_;
  snd::Mutex mu_;
  snd::CondVar cv_;
  bool stop_ SND_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

struct ServeFlags {
  int listen_port = -1;
  std::string bind_addr = "127.0.0.1";
  int backlog = 0;  // 0 -> SOMAXCONN.
  bool epoll_mode = true;
  int shards = 1;
  int max_conns = 256;
  int max_inflight = 0;
  long long stats_interval = 0;
  snd::WireFormat format = snd::WireFormat::kText;
};

#if !defined(_WIN32)

int ServeTcp(const ServeFlags& flags,
             const snd::SndServiceConfig& service_config) {
  // ONE shared service for the whole process: every connection sees the
  // same resident graphs and caches. SndService::Dispatch is
  // thread-safe (shared_mutex sessions, locked caches), so connections
  // are served concurrently in both accept modes.
  snd::SndService service(service_config);
  std::unique_ptr<StatsReporter> reporter;
  if (flags.stats_interval > 0) {
    reporter = std::make_unique<StatsReporter>(
        &service, flags.stats_interval,
        service_config.event_log != nullptr);
  }
  if (flags.epoll_mode) {
#if !defined(__linux__)
    return Fail(
        "--accept-mode=epoll requires Linux; use --accept-mode=thread");
#else
    snd::net::NetServerConfig config;
    config.bind_addr = flags.bind_addr;
    config.port = flags.listen_port;
    config.backlog = flags.backlog;
    config.shards = flags.shards;
    config.max_conns = flags.max_conns;
    config.max_inflight = flags.max_inflight;
    config.format = flags.format;
    snd::StatusOr<std::unique_ptr<snd::net::NetServer>> server =
        snd::net::NetServer::Start(&service, config);
    if (!server.ok()) return Fail(server.status().message());
    // The bound port on stdout (flushed) so scripts can use --listen=0.
    std::printf("listening %s:%d\n", flags.bind_addr.c_str(),
                (*server)->port());
    std::fflush(stdout);
    // The tier owns every serving thread; this thread just keeps the
    // process (and the shared service) alive until it is killed.
    for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
#endif  // defined(__linux__)
  }
  snd::net::ThreadServerConfig config;
  config.bind_addr = flags.bind_addr;
  config.port = flags.listen_port;
  config.backlog = flags.backlog;
  config.max_conns = flags.max_conns;
  config.format = flags.format;
  snd::StatusOr<std::unique_ptr<snd::net::ThreadServer>> server =
      snd::net::ThreadServer::Start(&service, config);
  if (!server.ok()) return Fail(server.status().message());
  std::printf("listening %s:%d\n", flags.bind_addr.c_str(),
              (*server)->port());
  std::fflush(stdout);
  if (!(*server)->WaitUntilStopped()) {
    // The listener broke underneath a live server. Exit without
    // unwinding: detached connection threads may still be dispatching
    // on `service`, so destroying it would race them. The OS reclaims
    // everything.
    std::_Exit(1);
  }
  return 0;
}

#endif  // !defined(_WIN32)

}  // namespace

int main(int argc, char** argv) {
  ServeFlags flags;
  size_t cache_capacity = snd::SndServiceConfig().result_cache_capacity;
  long long state_retention = 0;
  std::string log_events_path;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    std::string value;
    if (arg == "--help" || arg == "-h" || arg == "help") {
      std::printf("%s", kUsage);
      return 0;
    } else if (arg == "--version" || arg == "version") {
      std::printf("snd_serve %s\n", snd::VersionString());
      return 0;
    } else if (snd::SplitSndFlag(arg, "listen", &value)) {
      int port = -1, consumed = 0;
      if (std::sscanf(value.c_str(), "%d%n", &port, &consumed) != 1 ||
          consumed != static_cast<int>(value.size()) || port < 0 ||
          port > 65535) {
        return Fail("invalid --listen value '" + value + "'");
      }
      flags.listen_port = port;
    } else if (snd::SplitSndFlag(arg, "bind", &value)) {
      if (value.empty()) return Fail("empty --bind address");
      flags.bind_addr = value;
    } else if (snd::SplitSndFlag(arg, "backlog", &value)) {
      int backlog = 0, consumed = 0;
      if (std::sscanf(value.c_str(), "%d%n", &backlog, &consumed) != 1 ||
          consumed != static_cast<int>(value.size()) || backlog < 1) {
        return Fail("invalid --backlog value '" + value + "'");
      }
      flags.backlog = backlog;
    } else if (snd::SplitSndFlag(arg, "accept-mode", &value)) {
      if (value == "epoll") {
        flags.epoll_mode = true;
      } else if (value == "thread") {
        flags.epoll_mode = false;
      } else {
        return Fail("invalid --accept-mode value '" + value +
                    "' (want epoll or thread)");
      }
    } else if (snd::SplitSndFlag(arg, "shards", &value)) {
      int shards = 0, consumed = 0;
      if (std::sscanf(value.c_str(), "%d%n", &shards, &consumed) != 1 ||
          consumed != static_cast<int>(value.size()) || shards < 1 ||
          shards > 64) {
        return Fail("invalid --shards value '" + value + "' (want 1..64)");
      }
      flags.shards = shards;
    } else if (snd::SplitSndFlag(arg, "max-conns", &value)) {
      int max_conns = -1, consumed = 0;
      if (std::sscanf(value.c_str(), "%d%n", &max_conns, &consumed) != 1 ||
          consumed != static_cast<int>(value.size()) || max_conns < 0) {
        return Fail("invalid --max-conns value '" + value + "'");
      }
      flags.max_conns = max_conns;
    } else if (snd::SplitSndFlag(arg, "max-inflight", &value)) {
      int max_inflight = -1, consumed = 0;
      if (std::sscanf(value.c_str(), "%d%n", &max_inflight, &consumed) !=
              1 ||
          consumed != static_cast<int>(value.size()) || max_inflight < 0) {
        return Fail("invalid --max-inflight value '" + value + "'");
      }
      flags.max_inflight = max_inflight;
    } else if (snd::SplitSndFlag(arg, "format", &value)) {
      if (value == "text") {
        flags.format = snd::WireFormat::kText;
      } else if (value == "json") {
        flags.format = snd::WireFormat::kJson;
      } else {
        return Fail("invalid --format value '" + value + "'");
      }
    } else if (snd::SplitSndFlag(arg, "cache", &value)) {
      long long capacity = 0;
      int consumed = 0;
      if (std::sscanf(value.c_str(), "%lld%n", &capacity, &consumed) != 1 ||
          consumed != static_cast<int>(value.size()) || capacity < 1) {
        return Fail("invalid --cache value '" + value + "'");
      }
      cache_capacity = static_cast<size_t>(capacity);
    } else if (snd::SplitSndFlag(arg, "retain", &value)) {
      long long retain = 0;
      int consumed = 0;
      if (std::sscanf(value.c_str(), "%lld%n", &retain, &consumed) != 1 ||
          consumed != static_cast<int>(value.size()) || retain < 0 ||
          (retain > 0 && retain < 2)) {
        return Fail("invalid --retain value '" + value +
                    "' (want 0 or N >= 2)");
      }
      state_retention = retain;
    } else if (snd::SplitSndFlag(arg, "log-events", &value)) {
      if (value.empty()) return Fail("empty --log-events path");
      log_events_path = value;
    } else if (snd::SplitSndFlag(arg, "stats-interval", &value)) {
      long long secs = 0;
      int consumed = 0;
      if (std::sscanf(value.c_str(), "%lld%n", &secs, &consumed) != 1 ||
          consumed != static_cast<int>(value.size()) || secs < 1) {
        return Fail("invalid --stats-interval value '" + value + "'");
      }
      flags.stats_interval = secs;
    } else {
      return Fail("unrecognized flag '" + arg + "'");
    }
  }

  std::unique_ptr<snd::obs::EventLog> event_log;
  if (!log_events_path.empty()) {
    event_log = snd::obs::EventLog::OpenFile(log_events_path);
    if (event_log == nullptr) {
      return Fail("cannot open --log-events file '" + log_events_path + "'");
    }
  }
  snd::SndServiceConfig config;
  config.result_cache_capacity = cache_capacity;
  config.state_retention = state_retention;
  config.event_log = event_log.get();

  if (flags.listen_port >= 0) {
#if defined(_WIN32)
    return Fail("--listen is not supported on this platform");
#else
    return ServeTcp(flags, config);
#endif
  }

  {
    snd::SndService service(config);
    std::unique_ptr<StatsReporter> reporter;
    if (flags.stats_interval > 0) {
      reporter = std::make_unique<StatsReporter>(
          &service, flags.stats_interval, event_log != nullptr);
    }
    service.ServeStream(std::cin, std::cout, flags.format);
    // Reporter joins, then the service dies, then the event log drains.
  }
  return 0;
}
