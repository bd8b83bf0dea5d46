#include "common/buffered_socket.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <utility>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace mds {

namespace {

/// Chunk size per recv() call; also the growth step of the read buffer.
constexpr size_t kReadChunk = 64 * 1024;

/// writev gathers at most this many queued buffers per call (IOV_MAX is
/// much larger; 16 already amortizes the syscall across a pipeline).
constexpr int kMaxIovecs = 16;

}  // namespace

BufferedSocket::BufferedSocket(Socket sock) : sock_(std::move(sock)) {
  if (sock_.valid()) (void)sock_.SetNonBlocking();
}

void BufferedSocket::CompactReadBuffer() {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // connection doesn't accrete every frame it ever received.
  if (read_pos_ > 0 && (read_pos_ >= read_end_ || read_pos_ >= kReadChunk)) {
    memmove(read_buf_.data(), read_buf_.data() + read_pos_,
            read_end_ - read_pos_);
    read_end_ -= read_pos_;
    read_pos_ = 0;
  }
}

BufferedSocket::IoResult BufferedSocket::Fill(size_t max_bytes) {
  CompactReadBuffer();
  size_t filled = 0;
  while (filled < max_bytes) {
    const size_t want = std::min(kReadChunk, max_bytes - filled);
    // The buffer only grows: bytes past read_end_ are spare room, so a
    // steady-state read does not zero a fresh chunk before recv fills it.
    if (read_buf_.size() < read_end_ + want) {
      read_buf_.resize(read_end_ + want);
    }
    const ssize_t rc = recv(sock_.fd(), read_buf_.data() + read_end_, want, 0);
    if (rc > 0) {
      read_end_ += static_cast<size_t>(rc);
      filled += static_cast<size_t>(rc);
      if (static_cast<size_t>(rc) < want) {
        return IoResult::kProgress;  // kernel drained; skip one EAGAIN round
      }
      continue;
    }
    if (rc == 0) return IoResult::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return filled > 0 ? IoResult::kProgress : IoResult::kWouldBlock;
    }
    return IoResult::kError;
  }
  return IoResult::kProgress;
}

void BufferedSocket::Consume(size_t n) {
  read_pos_ += std::min(n, read_end_ - read_pos_);
}

void BufferedSocket::QueueWrite(std::vector<uint8_t> bytes) {
  if (bytes.empty()) return;
  pending_write_bytes_ += bytes.size();
  WriteBuf buf;
  buf.owned = std::move(bytes);
  write_queue_.push_back(std::move(buf));
}

void BufferedSocket::QueueWrite(SlabPool::Slice slice) {
  if (!slice || slice.size() == 0) return;
  pending_write_bytes_ += slice.size();
  WriteBuf buf;
  buf.slice = std::move(slice);
  write_queue_.push_back(std::move(buf));
}

BufferedSocket::IoResult BufferedSocket::Flush() {
  while (!write_queue_.empty()) {
    struct iovec iov[kMaxIovecs];
    int iovcnt = 0;
    size_t offset = write_front_pos_;
    for (const auto& buf : write_queue_) {
      if (iovcnt == kMaxIovecs) break;
      iov[iovcnt].iov_base = const_cast<uint8_t*>(buf.data()) + offset;
      iov[iovcnt].iov_len = buf.size() - offset;
      ++iovcnt;
      offset = 0;
    }
    struct msghdr msg;
    memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    const ssize_t rc = sendmsg(sock_.fd(), &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoResult::kWouldBlock;
      }
      if (errno == EPIPE || errno == ECONNRESET) return IoResult::kClosed;
      return IoResult::kError;
    }
    size_t written = static_cast<size_t>(rc);
    pending_write_bytes_ -= written;
    while (written > 0 && !write_queue_.empty()) {
      auto& front = write_queue_.front();
      const size_t left = front.size() - write_front_pos_;
      if (written >= left) {
        written -= left;
        write_front_pos_ = 0;
        write_queue_.pop_front();
      } else {
        write_front_pos_ += written;
        written = 0;
      }
    }
  }
  return IoResult::kProgress;
}

}  // namespace mds
