#ifndef MDS_COMMON_BUFFERED_SOCKET_H_
#define MDS_COMMON_BUFFERED_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/slab_pool.h"
#include "common/socket.h"

namespace mds {

/// Non-blocking read/write buffering over an owned Socket — the per-
/// connection I/O state of the event-loop server (after beng-proxy's
/// buffered_socket: a receive buffer the frame parser consumes from, and
/// a queue of outgoing frames flushed with scatter-gather writev).
///
/// The fd is put in O_NONBLOCK mode at construction. Fill() and Flush()
/// never block: they move as many bytes as the kernel will take and
/// report would-block, so the caller (an EventLoop handler) re-arms
/// readiness instead of waiting.
///
/// Thread safety: none — a BufferedSocket is owned by its connection's
/// loop thread. Cross-thread reply submission goes through
/// EventLoop::Post, never directly into QueueWrite.
class BufferedSocket {
 public:
  BufferedSocket() = default;
  explicit BufferedSocket(Socket sock);

  BufferedSocket(BufferedSocket&&) = default;
  BufferedSocket& operator=(BufferedSocket&&) = default;

  Socket& socket() { return sock_; }
  int fd() const { return sock_.fd(); }
  bool valid() const { return sock_.valid(); }

  enum class IoResult {
    kProgress,    ///< moved at least one byte
    kWouldBlock,  ///< kernel has nothing (read) / took nothing (write)
    kClosed,      ///< peer closed (read: EOF; write: EPIPE/ECONNRESET)
    kError,       ///< unrecoverable socket error
  };

  /// Reads whatever the kernel has into the receive buffer, up to
  /// `max_bytes` this call (backpressure: a peer blasting frames cannot
  /// make the buffer grow unboundedly in one event). kWouldBlock with
  /// buffered data still pending parse is normal.
  IoResult Fill(size_t max_bytes = 1 << 20);

  /// Unconsumed received bytes (the frame parser's window).
  const uint8_t* data() const { return read_buf_.data() + read_pos_; }
  size_t size() const { return read_end_ - read_pos_; }
  /// Marks n received bytes as parsed.
  void Consume(size_t n);

  /// Queues one outgoing buffer (an encoded frame, or a frame segment —
  /// segments queued back to back are gathered into one writev). Does not
  /// write; callers follow with Flush() and watch for kWouldBlock.
  void QueueWrite(std::vector<uint8_t> bytes);
  /// Queues a refcounted slab slice (its size() bytes) without copying.
  /// The queue holds a reference until the kernel has taken every byte,
  /// so a cache entry sharing the slice stays valid while it flushes.
  void QueueWrite(SlabPool::Slice slice);

  /// Writes queued buffers with writev until the queue drains or the
  /// kernel stops taking bytes. kProgress means drained here.
  IoResult Flush();

  /// Bytes queued but not yet accepted by the kernel (write-side
  /// backpressure signal).
  size_t pending_write_bytes() const { return pending_write_bytes_; }
  bool has_pending_write() const { return pending_write_bytes_ != 0; }

 private:
  void CompactReadBuffer();

  Socket sock_;
  std::vector<uint8_t> read_buf_;  // received bytes: [read_pos_, read_end_)
  size_t read_pos_ = 0;
  size_t read_end_ = 0;

  /// One write-queue entry: either an owned byte vector or a refcounted
  /// slab slice (zero-copy reply tails). Exactly one is non-empty.
  struct WriteBuf {
    std::vector<uint8_t> owned;
    SlabPool::Slice slice;

    const uint8_t* data() const {
      return slice ? slice.data() : owned.data();
    }
    size_t size() const { return slice ? slice.size() : owned.size(); }
  };

  std::deque<WriteBuf> write_queue_;
  size_t write_front_pos_ = 0;  // consumed bytes of write_queue_.front()
  size_t pending_write_bytes_ = 0;
};

}  // namespace mds

#endif  // MDS_COMMON_BUFFERED_SOCKET_H_
