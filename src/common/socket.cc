#include "common/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <limits>

// A peer that closes mid-reply must surface as a Status, never SIGPIPE
// (which kills the process by default). Linux suppresses the signal per
// send() via MSG_NOSIGNAL; BSD/macOS lack that flag but offer the
// per-socket SO_NOSIGPIPE option instead — so the flag compiles away to 0
// there and DisableSigpipe() below covers the socket at creation.
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace mds {

namespace {

Status Errno(const char* op) {
  return Status::IOError(std::string(op) + ": " + strerror(errno));
}

/// Best-effort SO_NOSIGPIPE on platforms that have it (no-op elsewhere).
void DisableSigpipe(int fd) {
#ifdef SO_NOSIGPIPE
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

/// Waits for `events` on fd, bounded by deadline. OK when ready;
/// kUnavailable on deadline expiry.
Status PollFor(int fd, short events, const IoDeadline& deadline) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int timeout = deadline.PollTimeoutMillis();
    const int rc = poll(&pfd, 1, timeout);
    if (rc > 0) return Status::OK();
    if (rc == 0) return Status::Unavailable("socket deadline expired");
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

}  // namespace

int IoDeadline::PollTimeoutMillis() const {
  if (!has_deadline_) return -1;
  const auto now = std::chrono::steady_clock::now();
  if (now >= at_) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(at_ - now).count();
  return static_cast<int>(
      std::min<long long>(ms + 1, std::numeric_limits<int>::max()));
}

Status Socket::ReadFull(void* buf, size_t n, const IoDeadline& deadline) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    MDS_RETURN_NOT_OK(PollFor(fd_, POLLIN, deadline));
    const ssize_t rc = recv(fd_, p + done, n - done, 0);
    if (rc > 0) {
      done += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      // Peer closed. A close on a frame boundary (zero bytes of the next
      // frame read) is the normal end of a connection, distinguishable
      // from a mid-frame truncation.
      return done == 0 ? Status::NotFound("connection closed")
                       : Status::Unavailable("connection closed mid-read");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // re-poll
    return Errno("recv");
  }
  return Status::OK();
}

Status Socket::WriteFull(const void* buf, size_t n, const IoDeadline& deadline) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    MDS_RETURN_NOT_OK(PollFor(fd_, POLLOUT, deadline));
    const ssize_t rc = send(fd_, p + done, n - done, MSG_NOSIGNAL);
    if (rc >= 0) {
      done += static_cast<size_t>(rc);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
    if (errno == EPIPE || errno == ECONNRESET) {
      return Status::Unavailable("connection closed mid-write");
    }
    return Errno("send");
  }
  return Status::OK();
}

Status Socket::SetNoDelay() {
  const int one = 1;
  if (setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

Status Socket::SetNonBlocking() {
  const int flags = fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Result<TcpListener> TcpListener::Listen(uint16_t port, int backlog) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);

  const int one = 1;
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (listen(fd, backlog) != 0) return Errno("listen");

  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }

  TcpListener listener;
  listener.socket_ = std::move(sock);
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Result<Socket> TcpListener::Accept(const IoDeadline& deadline) {
  for (;;) {
    MDS_RETURN_NOT_OK(PollFor(socket_.fd(), POLLIN, deadline));
    const int fd = accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      DisableSigpipe(fd);
      return Socket(fd);
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      continue;
    }
    if (errno == EINVAL) {
      // listen socket shut down from another thread
      return Status::Unavailable("listener shut down");
    }
    return Errno("accept");
  }
}

Result<Socket> TcpListener::AcceptNonBlocking() {
  for (;;) {
    const int fd = accept(socket_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      DisableSigpipe(fd);
      return Socket(fd);
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("no pending connection");
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // Descriptor/buffer exhaustion: the pending connection stays queued,
      // so returning to the event loop without backing off would spin.
      return Status::ResourceExhausted(Errno("accept").message());
    }
    if (errno == EINVAL) {
      return Status::Unavailable("listener shut down");
    }
    return Errno("accept");
  }
}

Result<Socket> TcpConnectStart(const std::string& host, uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  DisableSigpipe(fd);

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("TcpConnect: bad IPv4 address '" + host +
                                   "'");
  }
  MDS_RETURN_NOT_OK(sock.SetNonBlocking());
  const int rc =
      connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) return Errno("connect");
  return sock;
}

Status TcpConnectFinish(Socket* sock) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(sock->fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return Errno("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return Status::Unavailable(std::string("connect: ") + strerror(err));
  }
  return sock->SetNoDelay();
}

Result<Socket> TcpConnect(const std::string& host, uint16_t port,
                          uint64_t timeout_millis) {
  auto sock = TcpConnectStart(host, port);
  if (!sock.ok()) return sock.status();
  const IoDeadline deadline = timeout_millis == 0
                                  ? IoDeadline::Infinite()
                                  : IoDeadline::After(timeout_millis);
  Status ready = PollFor(sock->fd(), POLLOUT, deadline);
  if (!ready.ok()) return AnnotateStatus(ready, "TcpConnect");
  MDS_RETURN_NOT_OK(TcpConnectFinish(&*sock));
  return sock;
}

}  // namespace mds
