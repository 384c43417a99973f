// Per-connection state for the epoll net tier: incremental newline
// framing over partial reads (LineFramer) and the Conn record the shard
// event loop drives. Conn owns the socket fd and both buffers but makes
// no epoll calls and knows no policy — admission, backpressure bounds,
// dispatch and shedding live in net_server.cc, so this layer is unit
// testable without a live socket (see tests/net_framing_test.cc, which
// proves a request split at every byte boundary frames identically to a
// whole-line read).
//
// Every Conn member and method is touched only from the owning shard's
// loop thread, so none of it needs locking.
#ifndef SND_NET_CONN_H_
#define SND_NET_CONN_H_

#if !defined(_WIN32)

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace snd {
namespace net {

// Reassembles '\n'-delimited frames from arbitrarily fragmented byte
// chunks. Matches ServeStream's std::getline semantics exactly: a
// trailing '\r' is stripped, the final unterminated partial line is
// delivered on Eof, and an empty stream yields nothing.
class LineFramer {
 public:
  // Feed a chunk; complete frames become retrievable via Next().
  void Append(const char* data, size_t size);

  // Pops the oldest complete frame. False when none is ready.
  bool Next(std::string* frame);

  // Peer sent EOF: getline also yields a final line with no '\n', so
  // promote a non-empty partial to a frame.
  void Eof();

  // Bytes of the unterminated partial line (the frame-size bound is
  // enforced on this: a peer streaming a gigabyte with no newline must
  // be shed, not buffered).
  size_t partial_bytes() const { return partial_.size(); }
  size_t queued_frames() const { return frames_.size(); }

 private:
  std::string partial_;
  std::deque<std::string> frames_;
};

// One accepted socket: framer on the read side, a bounded flush buffer
// on the write side, and the flags the shard state machine steps.
class Conn {
 public:
  Conn(uint64_t id, int fd);
  ~Conn();  // Closes the fd.

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  const uint64_t id;
  const int fd;

  LineFramer framer;
  // Complete frames not yet dispatched. At most one dispatch is ever
  // inflight per connection (responses stay in request order on the
  // wire); the rest wait here with EPOLLIN disarmed, so a pipelining
  // client backpressures into its own socket buffer.
  std::deque<std::string> pending;
  bool inflight = false;
  // Shed or `quit`: flush what is buffered, then close. No further
  // reads are ingested.
  bool draining = false;
  bool peer_eof = false;
  // The epoll interest mask currently armed for this fd; the shard's
  // interest updater compares against it to skip redundant epoll_ctls.
  uint32_t armed_events = 0;

  // -- Write side. Replies append here and drain through non-blocking
  // writes; the shard sheds the connection when the buffered backlog
  // passes its bound (never silently, never blocking the loop).
  void QueueBytes(std::string_view bytes);
  bool WantsWrite() const { return write_pos_ < write_buf_.size(); }
  size_t BufferedWriteBytes() const { return write_buf_.size() - write_pos_; }

  enum class IoResult {
    kOk,    // Made progress or hit EAGAIN; connection healthy.
    kEof,   // Peer closed (read side only).
    kError  // Unrecoverable socket error; close the connection.
  };

  // Reads until EAGAIN/EOF, feeding the framer. Adds bytes consumed to
  // `*bytes_read`.
  IoResult ReadAvailable(size_t* bytes_read);

  // Writes buffered bytes until drained or EAGAIN. Adds bytes flushed
  // to `*bytes_written`.
  IoResult FlushWrites(size_t* bytes_written);

 private:
  std::string write_buf_;
  size_t write_pos_ = 0;
};

}  // namespace net
}  // namespace snd

#endif  // !defined(_WIN32)

#endif  // SND_NET_CONN_H_
