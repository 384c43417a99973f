#include "snd/net/net_server.h"

#if defined(__linux__)

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "snd/api/json_codec.h"
#include "snd/api/text_codec.h"
#include "snd/net/conn.h"
#include "snd/net/socket.h"
#include "snd/obs/metrics.h"
#include "snd/obs/names.h"
#include "snd/util/mutex.h"

namespace snd {
namespace net {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Dispatch workers per shard loop: the one pool has this many times
// --shards threads.
constexpr int kDispatchThreadsPerShard = 2;

}  // namespace

// One worker event loop and the connections it owns. `conns` is
// touched only on the loop's thread.
struct NetServer::Shard {
  EventLoop loop;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
};

// The snd.net.* instrument family, registered into the shared service
// registry so `stats`/`info` carry the tier next to the request
// metrics. Registration is get-or-create: multiple servers over one
// service (tests) aggregate into the same instruments.
struct NetServer::Metrics {
  explicit Metrics(obs::MetricsRegistry* registry)
      : conns_accepted(
            registry->RegisterCounter(obs::kMetricNetConnsAccepted)),
        conns_active(registry->RegisterGauge(obs::kMetricNetConnsActive)),
        conns_closed(registry->RegisterCounter(obs::kMetricNetConnsClosed)),
        conns_shed(registry->RegisterCounter(obs::kMetricNetConnsShed)),
        inflight(registry->RegisterGauge(obs::kMetricNetInflight)),
        inflight_shed(
            registry->RegisterCounter(obs::kMetricNetInflightShed)),
        backpressure_shed(
            registry->RegisterCounter(obs::kMetricNetBackpressureShed)),
        frames(registry->RegisterCounter(obs::kMetricNetFrames)),
        read_bytes(registry->RegisterCounter(obs::kMetricNetReadBytes)),
        write_bytes(registry->RegisterCounter(obs::kMetricNetWriteBytes)),
        frame_latency(
            registry->RegisterHistogram(obs::kMetricNetFrameLatency)) {}

  obs::Counter* const conns_accepted;
  obs::Gauge* const conns_active;
  obs::Counter* const conns_closed;
  obs::Counter* const conns_shed;
  obs::Gauge* const inflight;
  obs::Counter* const inflight_shed;
  obs::Counter* const backpressure_shed;
  obs::Counter* const frames;
  obs::Counter* const read_bytes;
  obs::Counter* const write_bytes;
  obs::Histogram* const frame_latency;
};

NetServer::NetServer(SndService* service, const NetServerConfig& config)
    : service_(service),
      config_(config),
      metrics_(std::make_unique<Metrics>(&service->metrics_registry())) {}

StatusOr<std::unique_ptr<NetServer>> NetServer::Start(
    SndService* service, const NetServerConfig& config) {
  std::unique_ptr<NetServer> server(new NetServer(service, config));
  Status status = server->Init();
  if (!status.ok()) return status;
  return server;
}

Status NetServer::Init() {
  IgnoreSigpipe();
  StatusOr<int> listener =
      CreateListener(config_.bind_addr, config_.port, config_.backlog);
  if (!listener.ok()) return listener.status();
  listener_ = *listener;
  port_ = BoundPort(listener_);
  Status status = SetNonBlocking(listener_);
  if (!status.ok()) {
    ::close(listener_);
    listener_ = -1;
    return status;
  }
  const int shard_count = std::max(1, config_.shards);
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int k = 0; k < shard_count; ++k) {
    auto shard = std::make_unique<Shard>();
    status = shard->loop.Start();
    if (!status.ok()) {
      // Unwind what started; the destructor must not see a half-built
      // tier.
      for (auto& built : shards_) built->loop.Stop();
      shards_.clear();
      ::close(listener_);
      listener_ = -1;
      return status;
    }
    shards_.push_back(std::move(shard));
  }
  pool_.Start(kDispatchThreadsPerShard * shard_count);
  // The listener lives on shard 0's loop; accepted fds are spread
  // round-robin so no single loop owns all the read/write work.
  Shard* shard0 = shards_[0].get();
  shard0->loop.Post([this, shard0] {
    const Status added =
        shard0->loop.Add(listener_, EPOLLIN, [this](uint32_t) { OnAccept(); });
    if (!added.ok()) {
      std::fprintf(stderr, "snd net: cannot register listener: %s\n",
                   added.ToString().c_str());
    }
  });
  return Status::Ok();
}

NetServer::~NetServer() { Shutdown(); }

void NetServer::Shutdown() {
  if (shut_down_.exchange(true)) return;
  if (shards_.empty()) {
    if (listener_ >= 0) ::close(listener_);
    listener_ = -1;
    return;
  }
  // 1. Stop accepting: the listener is owned by shard 0's loop, so its
  // teardown must run there (synchronously — new conns after this see
  // ECONNREFUSED, not a hang).
  {
    Mutex mu;
    CondVar cv;
    bool done = false;
    shards_[0]->loop.Post([this, &mu, &cv, &done] {
      shards_[0]->loop.Remove(listener_);
      ::close(listener_);
      listener_ = -1;
      // Notify UNDER the lock: the waiter owns these stack objects and
      // destroys them the moment it wakes, so the broadcast must have
      // returned before the waiter can re-acquire the mutex.
      MutexLock lock(mu);
      done = true;
      cv.NotifyAll();
    });
    MutexLock lock(mu);
    while (!done) cv.Wait(lock);
  }
  // 2. Drain the dispatch pool: every admitted frame completes and
  // posts its reply (loops still alive, so best-effort final flushes
  // still happen as those posts run).
  pool_.Stop();
  // 3. Stop the loops; remaining posted completions are dropped, then
  // the conn maps die with the server and close every fd.
  for (auto& shard : shards_) shard->loop.Stop();
}

std::string NetServer::RenderShedError(const std::string& message) const {
  const Status status = Status::ResourceExhausted(message);
  if (config_.format == WireFormat::kText) {
    std::string bytes;
    AppendTextResponse(RenderTextError(status), &bytes);
    return bytes;
  }
  return RenderJsonError(status) + "\n";
}

void NetServer::OnAccept() {
  // Runs on shard 0's loop thread. Drain the accept queue; the listener
  // is level-triggered, so a batch cut short by an error is re-reported.
  for (;;) {
    const int fd =
        ::accept4(listener_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EAGAIN: queue drained. Anything else (ECONNABORTED handshake
      // aborts, EMFILE pressure): give up on this batch and wait for
      // the next readiness instead of spinning inside the loop thread.
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        std::perror("snd net: accept");
      }
      return;
    }
    metrics_->conns_accepted->Add(1);
    // Admission: past --max-conns the client gets one typed
    // resource_exhausted line and a close — never a silent drop, never
    // an unbounded thread/buffer bill. The reply write is best-effort
    // (the socket buffer of a fresh conn always has room for one line).
    if (config_.max_conns > 0 &&
        active_conns_.load(std::memory_order_relaxed) >= config_.max_conns) {
      // Count before the close: anyone who watched this conn die must
      // already see it in the shed counter.
      metrics_->conns_shed->Add(1);
      const std::string reply = RenderShedError(
          "connection limit reached (--max-conns=" +
          std::to_string(config_.max_conns) + ")");
      ssize_t ignored;
      do {
        ignored = ::write(fd, reply.data(), reply.size());
      } while (ignored < 0 && errno == EINTR);
      (void)ignored;
      ::close(fd);
      continue;
    }
    active_conns_.fetch_add(1, std::memory_order_relaxed);
    metrics_->conns_active->Add(1);
    Shard* shard =
        shards_[next_accept_shard_.fetch_add(1, std::memory_order_relaxed) %
                shards_.size()]
            .get();
    if (shard == shards_[0].get()) {
      AdoptConn(shard, fd);
    } else {
      shard->loop.Post([this, shard, fd] { AdoptConn(shard, fd); });
    }
  }
}

void NetServer::AdoptConn(Shard* shard, int fd) {
  // Runs on the owning shard's loop thread.
  const uint64_t id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  auto conn = std::make_unique<Conn>(id, fd);
  conn->armed_events = EPOLLIN;
  const Status added = shard->loop.Add(
      fd, EPOLLIN,
      [this, shard, id](uint32_t events) { OnConnEvent(shard, id, events); });
  if (!added.ok()) {
    active_conns_.fetch_sub(1, std::memory_order_relaxed);
    metrics_->conns_active->Add(-1);
    return;  // ~Conn closes the fd.
  }
  shard->conns.emplace(id, std::move(conn));
}

void NetServer::OnConnEvent(Shard* shard, uint64_t conn_id,
                            uint32_t events) {
  const auto it = shard->conns.find(conn_id);
  if (it == shard->conns.end()) return;
  Conn* conn = it->second.get();
  if (events & (EPOLLHUP | EPOLLERR)) {
    // Full hangup: both directions are gone, every buffered or inflight
    // reply is undeliverable. Closing now (an inflight dispatch's
    // completion finds the id gone and drops the reply) also stops the
    // level-triggered HUP from re-firing while a dispatch computes.
    CloseConn(shard, conn_id);
    return;
  }
  if ((events & EPOLLIN) && !conn->draining && !conn->peer_eof) {
    size_t got = 0;
    const Conn::IoResult result = conn->ReadAvailable(&got);
    metrics_->read_bytes->Add(static_cast<int64_t>(got));
    if (result == Conn::IoResult::kError) {
      CloseConn(shard, conn_id);
      return;
    }
    if (conn->framer.partial_bytes() > config_.max_frame_bytes) {
      // A line that never ends is the read-side slow-consumer dual:
      // bound it and shed with the typed error.
      metrics_->backpressure_shed->Add(1);
      conn->draining = true;
      conn->QueueBytes(RenderShedError(
          "request line exceeds " +
          std::to_string(config_.max_frame_bytes) + " bytes"));
    } else {
      std::string frame;
      while (conn->framer.Next(&frame)) {
        // A completed frame can also exceed the bound: EOF promotes the
        // unterminated partial before the partial-size check above runs
        // again, so enforce the limit here too or it leaks through.
        if (frame.size() > config_.max_frame_bytes) {
          metrics_->backpressure_shed->Add(1);
          conn->draining = true;
          conn->pending.clear();
          conn->QueueBytes(RenderShedError(
              "request line exceeds " +
              std::to_string(config_.max_frame_bytes) + " bytes"));
          break;
        }
        metrics_->frames->Add(1);
        if (!SkipWireLine(frame, config_.format)) {
          conn->pending.push_back(std::move(frame));
        }
      }
    }
  }
  PumpDispatch(shard, conn);
}

void NetServer::PumpDispatch(Shard* shard, Conn* conn) {
  // The per-connection step function: answer pending frames the
  // service can serve from its result cache right here, start the next
  // dispatch for the first one it cannot, flush, close if finished,
  // re-arm interest. Loop thread.
  while (!conn->draining && !conn->inflight && !conn->pending.empty()) {
    const int64_t started_ns = NowNs();
    std::unique_ptr<SndService::ParsedLine> line =
        service_->ParseWire(conn->pending.front(), config_.format);
    conn->pending.pop_front();
    if (std::optional<SndService::WireReply> reply =
            service_->TryServeCached(line.get())) {
      // A cache hit: no dispatch slot, no handoff, never shed.
      metrics_->frame_latency->Record(NowNs() - started_ns);
      QueueReply(conn, std::move(*reply));
      continue;
    }
    if (config_.max_inflight > 0 &&
        inflight_.load(std::memory_order_relaxed) >= config_.max_inflight) {
      // Typed per-request shed: the client hears `resource_exhausted`
      // for this frame NOW instead of silently queueing behind a
      // saturated dispatch tier; the connection stays usable.
      metrics_->inflight_shed->Add(1);
      conn->QueueBytes(RenderShedError(
          "server saturated (--max-inflight=" +
          std::to_string(config_.max_inflight) + ")"));
      continue;
    }
    conn->inflight = true;
    inflight_.fetch_add(1, std::memory_order_relaxed);
    metrics_->inflight->Add(1);
    // Any worker may answer the line (the service is shared and
    // thread-safe); the reply is posted back to the owning loop.
    const uint64_t conn_id = conn->id;
    pool_.Submit([this, shard, conn_id, started_ns,
                  line = std::shared_ptr<SndService::ParsedLine>(
                      std::move(line))] {
      SndService::WireReply reply = service_->CallWire(line.get());
      shard->loop.Post([this, shard, conn_id, started_ns,
                        reply = std::move(reply)]() mutable {
        OnDispatchDone(shard, conn_id, std::move(reply), started_ns);
      });
    });
    break;  // One inflight per connection keeps replies in order.
  }
  if (conn->WantsWrite()) {
    size_t flushed = 0;
    const Conn::IoResult result = conn->FlushWrites(&flushed);
    metrics_->write_bytes->Add(static_cast<int64_t>(flushed));
    if (result == Conn::IoResult::kError) {
      CloseConn(shard, conn->id);
      return;
    }
  }
  const bool flushed_out = !conn->WantsWrite();
  if (conn->draining) {
    // Doomed: ignore pending frames, wait only for the inflight reply
    // (dropped on arrival) and the final error bytes to leave.
    if (flushed_out && !conn->inflight) {
      CloseConn(shard, conn->id);
      return;
    }
  } else if (conn->peer_eof && flushed_out && !conn->inflight &&
             conn->pending.empty()) {
    CloseConn(shard, conn->id);
    return;
  }
  UpdateInterest(shard, conn);
}

void NetServer::OnDispatchDone(Shard* shard, uint64_t conn_id,
                               SndService::WireReply reply,
                               int64_t started_ns) {
  // Posted to the owning loop by a dispatch worker.
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  metrics_->inflight->Add(-1);
  metrics_->frame_latency->Record(NowNs() - started_ns);
  const auto it = shard->conns.find(conn_id);
  if (it == shard->conns.end()) return;  // Closed while computing.
  Conn* conn = it->second.get();
  conn->inflight = false;
  if (!conn->draining) QueueReply(conn, std::move(reply));
  PumpDispatch(shard, conn);
}

void NetServer::QueueReply(Conn* conn, SndService::WireReply reply) {
  if (conn->BufferedWriteBytes() + reply.bytes.size() >
      config_.max_write_buffer) {
    ShedSlowReader(conn);
    return;
  }
  conn->QueueBytes(reply.bytes);
  if (reply.close) conn->draining = true;
}

void NetServer::ShedSlowReader(Conn* conn) {
  // The reader is not keeping up: its backlog passed the write-buffer
  // bound. Everything already queued is complete frames, so the wire is
  // never torn — the new reply is dropped, one short typed error is
  // appended, and the connection drains then closes.
  metrics_->backpressure_shed->Add(1);
  conn->draining = true;
  conn->QueueBytes(RenderShedError(
      "write buffer overflow (limit " +
      std::to_string(config_.max_write_buffer) + " bytes)"));
}

void NetServer::UpdateInterest(Shard* shard, Conn* conn) {
  // Reads stay disarmed while a dispatch is inflight or frames are
  // pending: the kernel socket buffer fills and the client blocks in
  // write() — natural TCP backpressure, zero server-side memory.
  const bool want_read = !conn->draining && !conn->peer_eof &&
                         !conn->inflight && conn->pending.empty();
  const bool want_write = conn->WantsWrite();
  const uint32_t events = (want_read ? static_cast<uint32_t>(EPOLLIN) : 0) |
                          (want_write ? static_cast<uint32_t>(EPOLLOUT) : 0);
  if (events == conn->armed_events) return;
  const Status modified = shard->loop.Modify(conn->fd, events);
  if (!modified.ok()) {
    CloseConn(shard, conn->id);
    return;
  }
  conn->armed_events = events;
}

void NetServer::CloseConn(Shard* shard, uint64_t conn_id) {
  const auto it = shard->conns.find(conn_id);
  if (it == shard->conns.end()) return;
  shard->loop.Remove(it->second->fd);
  shard->conns.erase(it);  // ~Conn closes the fd.
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
  metrics_->conns_active->Add(-1);
  metrics_->conns_closed->Add(1);
}

}  // namespace net
}  // namespace snd

#endif  // defined(__linux__)
