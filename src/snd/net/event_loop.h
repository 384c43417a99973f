// The reactor at the bottom of the epoll net tier: one EventLoop per
// shard runs epoll_wait on its own thread, dispatching readiness to
// per-fd handlers, and the server's one DispatchPool of worker threads
// runs the CPU-heavy SndService dispatches for every loop, so no loop
// thread ever computes.
//
// Threading contract:
//   - Start() spawns the loop thread; every FdHandler and every
//     function passed to Post() runs on that thread, serialized — so
//     per-connection state touched only from handlers/Posts needs no
//     locking.
//   - Post() is the ONLY cross-thread entry point: it enqueues a
//     function under a small lock and wakes the loop through an
//     edge-triggered eventfd. Dispatch workers use it to hand completed
//     replies back to the connection's owning loop.
//   - Connection fds are registered level-triggered (the handler drains
//     until EAGAIN but a short read costs nothing); the wakeup eventfd
//     is the one edge-triggered registration (EPOLLET), re-armed purely
//     by writes.
//
// This file (and only this file) mints the net tier's raw threads: the
// snd_lint raw-thread rule exempts src/snd/net/event_loop.* exactly so
// the loop and dispatch threads are auditable in one place. The shared
// ThreadPool is deliberately not used for dispatch workers: its only
// primitive is the blocking ParallelFor, and parking long-lived
// dispatch tasks in it would starve the nested ParallelFor calls those
// very dispatches issue for parallel SSSP.
#ifndef SND_NET_EVENT_LOOP_H_
#define SND_NET_EVENT_LOOP_H_

#if defined(__linux__)

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "snd/api/status.h"
#include "snd/util/mutex.h"
#include "snd/util/thread_annotations.h"

namespace snd {
namespace net {

// Invoked on the loop thread with the ready epoll event mask
// (EPOLLIN/EPOLLOUT/EPOLLHUP/EPOLLERR bits).
using FdHandler = std::function<void(uint32_t events)>;

class EventLoop {
 public:
  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Creates the epoll instance + wakeup eventfd and spawns the loop
  // thread. Call once.
  Status Start();

  // Stops the loop and joins its thread. Posted functions not yet run
  // are dropped (shutdown only tears down; nothing observable is lost).
  // Idempotent.
  void Stop();

  // Thread-safe: run `fn` on the loop thread, in post order relative to
  // other Posts. Safe (a silent no-op) after Stop.
  void Post(std::function<void()> fn);

  // Loop-thread only: register/re-arm/unregister `fd`. Remove does not
  // close the fd. A removed fd's handler is never invoked again, even
  // for events already harvested in the current epoll batch.
  Status Add(int fd, uint32_t events, FdHandler handler);
  Status Modify(int fd, uint32_t events);
  void Remove(int fd);

 private:
  void Run();
  void DrainPosted();
  void Wake();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;

  Mutex post_mu_;
  bool accepting_posts_ SND_GUARDED_BY(post_mu_) = false;
  std::deque<std::function<void()>> posted_ SND_GUARDED_BY(post_mu_);

  // Loop-thread only. Values are shared_ptr so a handler that Removes
  // (or re-registers) its own fd mid-invocation never destroys the
  // std::function it is executing.
  std::unordered_map<int, std::shared_ptr<FdHandler>> handlers_;
};

// Fixed crew of dispatch workers behind a FIFO queue. Depth is bounded
// externally by the net tier's admission control (at most one inflight
// dispatch per connection, at most --max-inflight process-wide), so the
// queue itself never grows past the admitted load.
class DispatchPool {
 public:
  DispatchPool() = default;
  ~DispatchPool();

  DispatchPool(const DispatchPool&) = delete;
  DispatchPool& operator=(const DispatchPool&) = delete;

  // Spawns `threads` workers (>= 1 enforced). Call once.
  void Start(int threads);

  // Thread-safe. Tasks run FIFO on some worker.
  void Submit(std::function<void()> task);

  // Runs every queued task to completion, then joins the workers.
  // Idempotent.
  void Stop();

 private:
  void Worker();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ SND_GUARDED_BY(mu_);
  bool stop_ SND_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace net
}  // namespace snd

#endif  // defined(__linux__)

#endif  // SND_NET_EVENT_LOOP_H_
