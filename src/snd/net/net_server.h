// The epoll serving tier: N worker event loops (shards) that own the
// connections and answer result-cache hits themselves, one dispatch
// pool that runs every other request, and the NetServer front end
// tying listener, admission control and backpressure together over one
// shared SndService.
//
// Data flow per connection:
//
//   accept (shard 0 loop) --round-robin--> owning shard loop
//     loop: non-blocking reads -> LineFramer -> pending frames ->
//       SndService::ParseWire, once per frame
//     hits: SndService::TryServeCached answers a read whose every pair
//       is cached right on the loop thread, with try-locks only; it
//       takes no dispatch slot and is never shed
//     admission: --max-conns at accept, --max-inflight per dispatched
//       frame, both answered with a typed resource_exhausted reply
//       (never a silent queue, never a silent close of an admitted
//       conn)
//     dispatch: everything else goes to the one pool (2 workers per
//       shard), which runs SndService::CallWire on the parsed frame
//     completion: Post back to the owning loop (eventfd wakeup) ->
//       bounded write buffer -> non-blocking flush; a slow reader's
//       backlog passing the write-buffer bound sheds the connection
//       with a final typed error, never blocking the loop.
#ifndef SND_NET_NET_SERVER_H_
#define SND_NET_NET_SERVER_H_

#include <cstddef>
#include <string>

#include "snd/api/status.h"
#include "snd/service/service.h"

#if defined(__linux__)
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "snd/net/event_loop.h"
#endif

namespace snd {
namespace net {

struct NetServerConfig {
  std::string bind_addr = "127.0.0.1";
  int port = 0;        // 0 picks a free port; read it back via port().
  int backlog = 0;     // <= 0 -> SOMAXCONN.
  int shards = 1;      // Worker event loops.
  // Admission control. <= 0 disables the bound.
  int max_conns = 256;     // Accepted-and-open connections, process-wide.
  // Dispatches outstanding, process-wide; cache hits answered on the
  // loop take no slot.
  int max_inflight = 0;
  // Backpressure + framing bounds, per connection.
  size_t max_write_buffer = 4u << 20;  // Shed a reader lagging past this.
  size_t max_frame_bytes = 1u << 20;   // Shed a line longer than this.
  WireFormat format = WireFormat::kText;
};

#if defined(__linux__)

class NetServer {
 public:
  // Binds, spawns the shard loops and the dispatch pool, registers the
  // listener and serves until Shutdown. `service` is shared with every
  // other front end in the process and must outlive the server.
  static StatusOr<std::unique_ptr<NetServer>> Start(
      SndService* service, const NetServerConfig& config);

  ~NetServer();  // Shutdown().

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  int port() const { return port_; }

  // Stops accepting, completes inflight dispatches, closes every
  // connection, joins all tier threads. Idempotent.
  void Shutdown();

 private:
  struct Shard;
  struct Metrics;

  NetServer(SndService* service, const NetServerConfig& config);

  Status Init();
  void OnAccept();
  void AdoptConn(Shard* shard, int fd);
  void OnConnEvent(Shard* shard, uint64_t conn_id, uint32_t events);
  void PumpDispatch(Shard* shard, class Conn* conn);
  void OnDispatchDone(Shard* shard, uint64_t conn_id,
                      SndService::WireReply reply, int64_t started_ns);
  // Queues a reply's bytes, or sheds the reader if they would pass the
  // write-buffer bound.
  void QueueReply(class Conn* conn, SndService::WireReply reply);
  void ShedSlowReader(class Conn* conn);
  void UpdateInterest(Shard* shard, class Conn* conn);
  void CloseConn(Shard* shard, uint64_t conn_id);
  std::string RenderShedError(const std::string& message) const;

  SndService* const service_;
  const NetServerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  DispatchPool pool_;
  int listener_ = -1;
  int port_ = -1;
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint64_t> next_accept_shard_{0};
  // Admission state for this server's --max-conns / --max-inflight
  // bounds. The snd.net.conns_active / snd.net.inflight gauges count
  // the same moves for `stats`, summed over every server sharing the
  // service, so they cannot stand in for one server's limit.
  std::atomic<int64_t> active_conns_{0};
  std::atomic<int64_t> inflight_{0};
  std::atomic<bool> shut_down_{false};
  std::unique_ptr<Metrics> metrics_;
};

#endif  // defined(__linux__)

}  // namespace net
}  // namespace snd

#endif  // SND_NET_NET_SERVER_H_
