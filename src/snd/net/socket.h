// POSIX socket plumbing shared by both serving front ends: the epoll
// tier (event_loop.h / net_server.h) and the legacy
// thread-per-connection server (thread_server.h). Everything here is
// policy-free — listeners, non-blocking mode, and a streambuf shim so
// blocking code can speak iostreams over a socket fd.
//
// Windows builds compile this header to an empty surface; the callers
// gate their TCP paths the same way.
#ifndef SND_NET_SOCKET_H_
#define SND_NET_SOCKET_H_

#if !defined(_WIN32)

#include <streambuf>
#include <string>

#include "snd/api/status.h"

namespace snd {
namespace net {

// Idempotently sets SIGPIPE to ignored. A client closing its socket
// mid-response must not kill the server: without this, a write() to the
// dead peer raises SIGPIPE whose default disposition terminates the
// process. Safe to call from every server start path.
void IgnoreSigpipe();

// Creates, binds and listens a TCP socket on `bind_addr:port`
// (SO_REUSEADDR set; `bind_addr` is a dotted-quad IPv4 address, port 0
// picks a free port). `backlog` <= 0 means SOMAXCONN — the kernel caps
// it anyway, so the old hard-coded 16 only ever shrank the queue.
// Returns the listening fd.
StatusOr<int> CreateListener(const std::string& bind_addr, int port,
                             int backlog);

// The port a bound socket actually listens on (resolves port 0), or -1.
int BoundPort(int fd);

// O_NONBLOCK on `fd`; every fd an event loop touches must be
// non-blocking or one stalled peer blocks every other connection.
Status SetNonBlocking(int fd);

// A std::streambuf over a POSIX fd, enough to hand the service's
// ServeStream an istream/ostream pair speaking to a (blocking) socket.
// Used by the thread-per-connection path only; the epoll tier frames
// bytes itself.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd);

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  int Flush();

  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace net
}  // namespace snd

#endif  // !defined(_WIN32)

#endif  // SND_NET_SOCKET_H_
