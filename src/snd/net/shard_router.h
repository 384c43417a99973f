// The sharded epoll serving tier: N worker event loops (shards), a
// consistent-hash router assigning each session name a home shard, and
// the NetServer front end tying listener, admission control,
// backpressure and per-shard stats together over one shared SndService.
//
// Data flow per connection:
//
//   accept (shard 0 loop) --round-robin--> owning shard loop
//     loop: non-blocking reads -> LineFramer -> pending frames
//     admission: --max-conns at accept, --max-inflight per frame,
//       both answered with a typed resource_exhausted reply (never a
//       silent queue, never a silent close of an admitted conn)
//     route: frame's session name --consistent hash--> shard dispatch
//       pool (cache/lock affinity: one graph's heavy requests land on
//       one crew) -> SndService::CallWire off the loop thread
//     completion: Post back to the owning loop (eventfd wakeup) ->
//       bounded write buffer -> non-blocking flush; a slow reader's
//       backlog passing --max-write-buf sheds the connection with a
//       final typed error, never blocking the loop.
//
// The service is shared and thread-safe, so routing is an affinity
// optimization, not a correctness requirement — a mis-routed frame
// still answers bitwise identically.
#ifndef SND_NET_SHARD_ROUTER_H_
#define SND_NET_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "snd/api/status.h"
#include "snd/service/service.h"

#if defined(__linux__)
#include <memory>
#endif

namespace snd {
namespace net {

// FNV-1a 64-bit over the bytes of `name`. The router runs an avalanche
// finalizer on top before placing points on the ring (raw FNV clusters
// on near-identical keys). Exposed for tests (mapping stability is a
// wire-visible property once shards get per-shard state).
uint64_t HashName(std::string_view name);

// Consistent hashing: each shard owns `vnodes_per_shard` points on a
// 64-bit ring; a name maps to the first point clockwise of its hash.
// Changing the shard count moves only ~1/N of the names, and virtual
// nodes keep the load split near-uniform.
class ShardRouter {
 public:
  explicit ShardRouter(int shards, int vnodes_per_shard = 64);

  int shards() const { return shards_; }
  int ShardFor(std::string_view name) const;

 private:
  struct Point {
    uint64_t hash;
    int shard;
  };
  std::vector<Point> ring_;  // Sorted by hash.
  int shards_;
};

struct NetServerConfig {
  std::string bind_addr = "127.0.0.1";
  int port = 0;        // 0 picks a free port; read it back via port().
  int backlog = 0;     // <= 0 -> SOMAXCONN.
  int shards = 1;      // Worker event loops.
  int dispatch_threads = 2;  // Dispatch workers per shard.
  // Admission control. <= 0 disables the bound.
  int max_conns = 256;     // Accepted-and-open connections, process-wide.
  int max_inflight = 0;    // Dispatches outstanding, process-wide.
  // Backpressure + framing bounds, per connection.
  size_t max_write_buffer = 4u << 20;  // Shed a reader lagging past this.
  size_t max_frame_bytes = 1u << 20;   // Shed a line longer than this.
  WireFormat format = WireFormat::kText;
};

// Per-shard split of the tier's load. The aggregate tier counters live
// only in the service registry (the snd.net.* family): read them from
// SndService::metrics().Snapshot() or a `stats` request.
struct ShardStats {
  int64_t conns = 0;    // Currently owned by this shard's loop.
  int64_t frames = 0;   // Frames ingested on this shard.
};

#if defined(__linux__)

class NetServer {
 public:
  // Binds, spawns shard loops + dispatch pools, registers the listener
  // and serves until Shutdown. `service` is shared with every other
  // front end in the process and must outlive the server.
  static StatusOr<std::unique_ptr<NetServer>> Start(
      SndService* service, const NetServerConfig& config);

  ~NetServer();  // Shutdown().

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  int port() const { return port_; }

  // Stops accepting, completes inflight dispatches, closes every
  // connection, joins all tier threads. Idempotent.
  void Shutdown();

  std::vector<ShardStats> ShardSnapshot() const;

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
                      SndService::WireReply reply, int64_t dispatched_ns);
  void ShedSlowReader(Shard* shard, class Conn* conn);
  void UpdateInterest(Shard* shard, class Conn* conn);
  void CloseConn(Shard* shard, uint64_t conn_id);
  std::string RenderShedError(const std::string& message) const;

  SndService* const service_;
  const NetServerConfig config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
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

#endif  // SND_NET_SHARD_ROUTER_H_
