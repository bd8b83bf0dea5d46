#include "server/front_end.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "common/buffered_socket.h"
#include "common/crc32c.h"
#include "common/event_loop.h"

namespace mds {

namespace {

using protocol::MessageHeader;
using protocol::MessageType;
using protocol::TypeIndex;

/// Bound on any single reply flush: a client that stops draining its
/// socket cannot hold a write queue (and its buffers) forever. Armed when
/// the kernel stops taking bytes, cancelled when the queue drains.
constexpr uint32_t kReplyWriteTimeoutMs = 30000;

/// accept() fd-exhaustion backoff bounds: the listener is deregistered and
/// re-armed after a bounded, exponentially growing delay instead of
/// busy-spinning on the forever-readable listen fd.
constexpr uint64_t kAcceptBackoffMinMs = 10;
constexpr uint64_t kAcceptBackoffMaxMs = 1000;

/// Shutdown grace for flushing pending replies to slow readers before
/// their connections are closed anyway.
constexpr uint64_t kDrainFlushGraceMs = 5000;

/// True for requests a worker may gang into one Execute call: box-like
/// queries with no behavior-altering flags. kNN has no access path, and
/// hinted/skip-corrupt requests take the planner's special branches —
/// each of those executes alone.
bool Gangable(const MessageHeader& header) {
  constexpr uint32_t kAloneFlags = protocol::kFlagSkipCorrupt |
                                   protocol::kFlagHintFullScan |
                                   protocol::kFlagHintIndex;
  if ((header.flags & kAloneFlags) != 0) return false;
  switch (header.type) {
    case MessageType::kPointCount:
    case MessageType::kBoxQuery:
    case MessageType::kTableSample:
      return true;
    default:
      return false;
  }
}

void CancelTimer(EventLoop* loop, EventLoop::TimerId* timer) {
  if (*timer == 0) return;
  loop->CancelTimer(*timer);
  *timer = 0;
}

void RelaxedMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

struct WireFrontEnd::Conn {
  BufferedSocket bsock;
  IoLoop* home = nullptr;
  int fd = -1;  ///< cached for deregistration after the socket closes
  bool closed = false;
  /// Logical close: no more frames are read (peer EOF, idle timeout or
  /// protocol violation), but the socket stays open until the replies of
  /// already-admitted requests have flushed.
  bool read_eof = false;
  bool want_write = false;  ///< EPOLLOUT currently requested
  /// Admitted requests whose replies have not yet been delivered to this
  /// connection's write queue (loop thread only).
  size_t admitted_open = 0;
  EventLoop::TimerId idle_timer = 0;
  EventLoop::TimerId write_timer = 0;
};

/// One reactor thread: an event loop plus the connections homed on it.
struct WireFrontEnd::IoLoop {
  EventLoop loop;
  std::thread thread;
  std::vector<std::shared_ptr<Conn>> conns;  // loop-thread owned
  bool shutting_down = false;
  bool stop_requested = false;
  EventLoop::TimerId shutdown_timer = 0;
};

WireFrontEnd::WireFrontEnd(Backend* backend, const Options& options)
    : backend_(backend), options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_in_flight == 0) options_.max_in_flight = 1;
  if (options_.io_threads == 0) options_.io_threads = 1;
  if (options_.pipeline_batch_max == 0) options_.pipeline_batch_max = 1;
}

WireFrontEnd::~WireFrontEnd() { Shutdown(); }

Status WireFrontEnd::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  auto listener = TcpListener::Listen(options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port();
  MDS_RETURN_NOT_OK(listener_.SetNonBlocking());

  loops_.clear();
  next_loop_ = 0;
  for (unsigned i = 0; i < options_.io_threads; ++i) {
    loops_.push_back(std::make_unique<IoLoop>());
    if (!loops_.back()->loop.valid()) {
      loops_.clear();
      return Status::Internal("epoll unavailable");
    }
  }
  debug_fail_remaining_ = options_.debug_fail_first_accepts;
  accept_backoff_ms_ = 0;

  // Register the listener before the loop thread exists — no concurrent
  // access yet, and the thread start is the happens-before edge.
  MDS_RETURN_NOT_OK(loops_[0]->loop.Add(
      listener_.fd(), EventLoop::kReadable,
      [this](uint32_t) { OnAcceptReady(); }));
  listener_registered_ = true;

  started_ = true;
  state_.store(State::kRunning);
  workers_ = std::make_unique<ThreadPool>(options_.workers,
                                          options_.workers_at_start);
  for (auto& io : loops_) {
    IoLoop* p = io.get();
    p->thread = std::thread([p] { p->loop.Run(); });
  }
  return Status::OK();
}

// --- reactor: accept path ---------------------------------------------------

void WireFrontEnd::UnregisterListener() {
  if (!listener_registered_) return;
  loops_[0]->loop.Remove(listener_.fd());
  listener_registered_ = false;
}

void WireFrontEnd::OnAcceptReady() {
  if (state_.load() != State::kRunning) {
    UnregisterListener();
    return;
  }
  // Drain the backlog to EAGAIN; the listener stays level-triggered so a
  // partial drain re-fires.
  for (;;) {
    auto accepted = listener_.AcceptNonBlocking();
    if (!accepted.ok()) {
      const StatusCode code = accepted.status().code();
      if (code == StatusCode::kResourceExhausted) {
        // Out of fds: the pending connection stays queued, so the fd
        // would stay readable and the loop would spin. Deregister and
        // come back after a bounded, growing backoff.
        counters_.accept_errors.fetch_add(1, std::memory_order_relaxed);
        BackOffAccept();
      } else if (code != StatusCode::kUnavailable) {
        // Unrecoverable listener error; stop accepting. (kUnavailable is
        // EAGAIN — backlog drained — or the drain-path shutdown.)
        UnregisterListener();
      }
      return;
    }
    if (debug_fail_remaining_ > 0) {
      // Test hook: behave exactly as if accept() had returned EMFILE.
      --debug_fail_remaining_;
      counters_.accept_errors.fetch_add(1, std::memory_order_relaxed);
      BackOffAccept();
      return;  // the accepted socket closes on scope exit
    }
    accept_backoff_ms_ = 0;
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    AdoptConnection(std::move(*accepted));
  }
}

void WireFrontEnd::BackOffAccept() {
  UnregisterListener();
  accept_backoff_ms_ =
      accept_backoff_ms_ == 0
          ? kAcceptBackoffMinMs
          : std::min(accept_backoff_ms_ * 2, kAcceptBackoffMaxMs);
  // Equal jitter (base/2 + uniform(0, base/2]): fd exhaustion is usually
  // fleet-wide (a shared client burst), and deterministic doubling would
  // re-arm every replica's acceptor on the same tick. Loop-0 thread only,
  // like the rest of the accept state.
  const uint64_t backoff_ms =
      accept_backoff_ms_ / 2 +
      accept_rng_.NextBounded(accept_backoff_ms_ / 2 + 1);
  loops_[0]->loop.AddTimer(backoff_ms, [this] {
    IoLoop* io0 = loops_[0].get();
    if (io0->shutting_down || state_.load() != State::kRunning) return;
    if (!listener_registered_ && listener_.valid()) {
      Status added = io0->loop.Add(listener_.fd(), EventLoop::kReadable,
                                   [this](uint32_t) { OnAcceptReady(); });
      if (added.ok()) {
        listener_registered_ = true;
        OnAcceptReady();  // serve anything that queued during the backoff
      }
    }
  });
}

void WireFrontEnd::AdoptConnection(Socket sock) {
  if (open_connections_.load(std::memory_order_relaxed) >=
      options_.max_connections) {
    // Connection-level shed: no protocol state yet, so close is the only
    // honest answer (request-level shedding replies kUnavailable).
    counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
    return;  // sock closes on scope exit
  }
  (void)sock.SetNoDelay();
  auto conn = std::make_shared<Conn>();
  conn->fd = sock.fd();
  conn->bsock = BufferedSocket(std::move(sock));
  IoLoop* home = loops_[next_loop_++ % loops_.size()].get();
  conn->home = home;
  open_connections_.fetch_add(1, std::memory_order_relaxed);
  if (home == loops_[0].get()) {
    RegisterConnection(home, std::move(conn));
  } else {
    home->loop.Post([this, home, conn] { RegisterConnection(home, conn); });
  }
}

void WireFrontEnd::RegisterConnection(IoLoop* home,
                                      std::shared_ptr<Conn> conn) {
  if (home->shutting_down) {
    counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
    return;  // socket closes with the Conn
  }
  home->conns.push_back(conn);
  ArmIdleTimer(conn);
  Status added = home->loop.Add(
      conn->fd, EventLoop::kReadable,
      [this, conn](uint32_t ready) { OnConnEvent(conn, ready); });
  if (!added.ok()) CloseConn(conn);
}

// --- reactor: per-connection events -----------------------------------------

void WireFrontEnd::ArmIdleTimer(const std::shared_ptr<Conn>& conn) {
  CancelTimer(&conn->home->loop, &conn->idle_timer);
  if (options_.idle_timeout_ms == 0) return;
  conn->idle_timer =
      conn->home->loop.AddTimer(options_.idle_timeout_ms, [this, conn] {
        conn->idle_timer = 0;
        // Idle or mid-frame stall (slow-loris): stop reading. Not a
        // protocol violation.
        if (!conn->closed) StopReading(conn);
      });
}

void WireFrontEnd::OnConnEvent(const std::shared_ptr<Conn>& conn,
                               uint32_t ready) {
  if (conn->closed) return;
  if (ready & EventLoop::kWritable) {
    FlushConn(conn);
    if (conn->closed) return;
  }
  if (conn->read_eof) {
    // Reading already stopped; hangup/error just accelerates the flush
    // (or surfaces the failure that closes the connection).
    if (ready & (EventLoop::kHangup | EventLoop::kError)) FlushConn(conn);
    return;
  }
  if (ready &
      (EventLoop::kReadable | EventLoop::kHangup | EventLoop::kError)) {
    const BufferedSocket::IoResult fill = conn->bsock.Fill();
    Batch gang;
    const bool reading = ProcessFrames(conn, &gang);
    FlushGang(&gang);
    if (conn->closed) return;
    if (reading && (fill == BufferedSocket::IoResult::kClosed ||
                    fill == BufferedSocket::IoResult::kError)) {
      if (fill == BufferedSocket::IoResult::kError) {
        CloseConn(conn);
      } else {
        // Peer EOF. A partial frame left in the buffer is a mid-frame
        // close; a clean boundary is the normal end of a connection.
        // Either way no more frames arrive — stop reading and let any
        // admitted replies flush.
        StopReading(conn);
      }
    }
  }
}

bool WireFrontEnd::ProcessFrames(const std::shared_ptr<Conn>& conn,
                                 Batch* gang) {
  size_t frames = 0;
  for (;;) {
    if (conn->bsock.size() < protocol::kFramePrefixBytes) break;
    WireReader prefix(conn->bsock.data(), protocol::kFramePrefixBytes);
    const uint32_t magic = prefix.GetU32();
    const uint32_t len = prefix.GetU32();
    const uint32_t crc = prefix.GetU32();
    if (magic != protocol::kFrameMagic || len > protocol::kMaxPayloadBytes) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      StopReading(conn);
      return false;
    }
    if (conn->bsock.size() < protocol::kFramePrefixBytes + len) break;
    const uint8_t* body = conn->bsock.data() + protocol::kFramePrefixBytes;
    if (Crc32c(body, len) != crc) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      StopReading(conn);
      return false;
    }
    std::vector<uint8_t> payload(body, body + len);
    conn->bsock.Consume(protocol::kFramePrefixBytes + len);
    counters_.bytes_in.fetch_add(protocol::kFramePrefixBytes + len,
                                 std::memory_order_relaxed);
    ++frames;
    if (!HandleFrame(conn, std::move(payload), gang)) {
      StopReading(conn);
      return false;
    }
  }
  // A completed frame with an empty buffer is a frame boundary: restart
  // the idle clock. A partial frame keeps the clock from its last boundary
  // (slow-loris).
  if (frames > 0 && conn->bsock.size() == 0 && !conn->closed &&
      !conn->read_eof) {
    ArmIdleTimer(conn);
  }
  return true;
}

bool WireFrontEnd::HandleFrame(const std::shared_ptr<Conn>& conn,
                               std::vector<uint8_t> payload, Batch* gang) {
  Request req;
  req.conn = conn;
  req.payload = std::move(payload);
  req.arrival = std::chrono::steady_clock::now();
  WireReader r(req.payload);
  if (!DecodeMessageHeader(&r, &req.header).ok()) {
    // Unknown version or truncated header: nothing trustworthy to echo —
    // close the connection (the documented contract for version skew).
    counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  counters_.requests_total.fetch_add(1, std::memory_order_relaxed);

  // All request bodies begin with the deadline prefix.
  req.deadline_ms = r.GetU32();
  req.body_offset = req.payload.size() - r.remaining();
  if (!r.ok()) {
    ReplyError(req, Status::InvalidArgument("request body truncated"), 0);
    return true;
  }
  if (req.deadline_ms == 0) req.deadline_ms = options_.default_deadline_ms;

  switch (req.header.type) {
    case MessageType::kHealth:
      HandleHealth(req);
      return true;
    case MessageType::kStats:
      HandleStats(req);
      return true;
    case MessageType::kPointCount:
    case MessageType::kBoxQuery:
    case MessageType::kKnn:
    case MessageType::kTableSample:
    case MessageType::kReload:
      // kReload rides the worker path: non-gangable, so it lands in its
      // own singleton batch behind admission control.
      break;
    default:
      ReplyError(req,
                 Status::Unimplemented("unknown request type " +
                                       std::to_string(static_cast<unsigned>(
                                           req.header.type))),
                 0);
      return true;
  }

  // Backend fast path, on this I/O thread: an inline answer (mdsd: a
  // response-cache hit) never touches admission control, the queue or the
  // deadline machinery.
  ReplyFrame inline_reply;
  if (backend_->Probe(&req, &inline_reply)) {
    // Counters and latency are finalized before the reply is enqueued,
    // matching the executed-reply path's read-your-own-write contract.
    Record(req, Status::OK());
    EnqueueReply(conn, std::move(inline_reply), /*admitted=*/false);
    return true;
  }

  // Admission control: reject rather than buffer beyond the cap.
  {
    std::unique_lock<std::mutex> lock(admit_mu_);
    if (state_.load() != State::kRunning) {
      lock.unlock();
      counters_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
      ReplyError(req, Status::Unavailable("server draining; retry elsewhere"),
                 protocol::kFlagDraining);
      return true;
    }
    if (in_flight_ >= options_.max_in_flight) {
      lock.unlock();
      counters_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      ReplyError(req,
                 Status::Unavailable("server overloaded; retry with backoff"),
                 0);
      return true;
    }
    ++in_flight_;
    RelaxedMax(&counters_.in_flight_peak, in_flight_);
  }
  req.admitted = true;
  ++conn->admitted_open;

  // Pipelining: contiguous gangable requests from this readiness event
  // ride one batch; anything else executes alone (and splits the gang to
  // preserve queue order).
  if (!Gangable(req.header)) {
    FlushGang(gang);
    Batch single;
    single.push_back(std::move(req));
    EnqueueBatch(std::move(single));
  } else {
    gang->push_back(std::move(req));
    if (gang->size() >= options_.pipeline_batch_max) FlushGang(gang);
  }
  return true;
}

void WireFrontEnd::HandleHealth(const Request& req) {
  protocol::HealthReply reply;
  reply.draining = draining() ? 1 : 0;
  backend_->FillHealth(&reply);
  Record(req, Status::OK());
  const uint32_t flags = reply.draining ? protocol::kFlagDraining : 0;
  Reply(req, Status::OK(), flags,
        [&](WireWriter* w) { protocol::EncodeHealthReply(reply, w); });
}

void WireFrontEnd::HandleStats(const Request& req) {
  // Counted before the snapshot, so the snapshot includes this request.
  Record(req, Status::OK());
  const protocol::ServerStatsSnapshot snapshot = Stats();
  Reply(req, Status::OK(), 0,
        [&](WireWriter* w) { protocol::EncodeServerStats(snapshot, w); });
}

void WireFrontEnd::FlushGang(Batch* gang) {
  if (gang->empty()) return;
  EnqueueBatch(std::move(*gang));
  gang->clear();
}

void WireFrontEnd::EnqueueBatch(Batch batch) {
  workers_->Submit(
      [this, b = std::move(batch)]() mutable { RunBatch(&b); });
}

void WireFrontEnd::FlushConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  IoLoop* home = conn->home;
  if (conn->bsock.has_pending_write()) {
    switch (conn->bsock.Flush()) {
      case BufferedSocket::IoResult::kWouldBlock:
        if (!conn->want_write) {
          conn->want_write = true;
          (void)home->loop.Modify(
              conn->fd, EventLoop::kWritable |
                            (conn->read_eof ? 0u : EventLoop::kReadable));
        }
        if (conn->write_timer == 0) {
          conn->write_timer =
              home->loop.AddTimer(kReplyWriteTimeoutMs, [this, conn] {
                conn->write_timer = 0;
                // Write-side slow-loris: the peer stopped draining its
                // socket; drop it rather than hold the reply bytes.
                if (!conn->closed) CloseConn(conn);
              });
        }
        return;
      case BufferedSocket::IoResult::kClosed:
      case BufferedSocket::IoResult::kError:
        CloseConn(conn);
        return;
      case BufferedSocket::IoResult::kProgress:
        break;  // drained
    }
  }
  // Queue drained.
  if (conn->want_write) {
    conn->want_write = false;
    (void)home->loop.Modify(conn->fd,
                            conn->read_eof ? 0u : EventLoop::kReadable);
  }
  CancelTimer(&home->loop, &conn->write_timer);
  if (conn->read_eof && conn->admitted_open == 0) {
    CloseConn(conn);
    return;
  }
  if (home->shutting_down) CheckLoopDrained(home);
}

void WireFrontEnd::StopReading(const std::shared_ptr<Conn>& conn) {
  if (conn->closed || conn->read_eof) return;
  conn->read_eof = true;
  CancelTimer(&conn->home->loop, &conn->idle_timer);
  if (conn->admitted_open == 0 && !conn->bsock.has_pending_write()) {
    CloseConn(conn);
    return;
  }
  (void)conn->home->loop.Modify(
      conn->fd, conn->want_write ? EventLoop::kWritable : 0u);
}

void WireFrontEnd::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  IoLoop* home = conn->home;
  CancelTimer(&home->loop, &conn->idle_timer);
  CancelTimer(&home->loop, &conn->write_timer);
  home->loop.Remove(conn->fd);
  conn->bsock.socket().Close();
  counters_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  for (auto it = home->conns.begin(); it != home->conns.end(); ++it) {
    if (it->get() == conn.get()) {
      *it = std::move(home->conns.back());
      home->conns.pop_back();
      break;
    }
  }
  if (home->shutting_down && !home->stop_requested) CheckLoopDrained(home);
}

void WireFrontEnd::DeliverReply(const std::shared_ptr<Conn>& conn,
                                ReplyFrame frame, bool admitted) {
  if (admitted && conn->admitted_open > 0) --conn->admitted_open;
  if (conn->closed) return;  // peer is gone; the reply has nowhere to go
  counters_.bytes_out.fetch_add(frame.size(), std::memory_order_relaxed);
  // Head then tail, back to back: Flush gathers both into one writev. The
  // tail slice keeps its refcount pinned in the write queue until the
  // kernel has taken every byte, so a cache entry sharing it may be
  // evicted mid-flush without invalidating these bytes.
  conn->bsock.QueueWrite(std::move(frame.head));
  conn->bsock.QueueWrite(std::move(frame.tail));
  FlushConn(conn);
}

void WireFrontEnd::EnqueueReply(const std::shared_ptr<Conn>& conn,
                                ReplyFrame frame, bool admitted) {
  EventLoop* loop = &conn->home->loop;
  if (loop->InLoopThread()) {
    DeliverReply(conn, std::move(frame), admitted);
  } else {
    loop->Post([this, conn, admitted, f = std::move(frame)]() mutable {
      DeliverReply(conn, std::move(f), admitted);
    });
  }
}

// --- reply path ------------------------------------------------------------

WireFrontEnd::ReplyFrame WireFrontEnd::SealReply(
    const std::vector<uint8_t>& payload) {
  // Move the encoded tail (everything after the message header) into a
  // slab slice: the one post-encode payload copy. The slice is then shared
  // by reference — a cache entry and the socket write queue pin the same
  // bytes.
  const size_t tail_len = payload.size() - protocol::kMessageHeaderBytes;
  ReplyFrame frame;
  frame.tail = SlabPool::Global().Allocate(tail_len);
  if (frame.tail) {
    std::memcpy(frame.tail.data(),
                payload.data() + protocol::kMessageHeaderBytes, tail_len);
    counters_.reply_tail_copies.fetch_add(1, std::memory_order_relaxed);
  }
  frame.head.reserve(protocol::kFramePrefixBytes +
                     protocol::kMessageHeaderBytes);
  WireWriter hw(&frame.head);
  hw.PutU32(protocol::kFrameMagic);
  hw.PutU32(static_cast<uint32_t>(payload.size()));
  hw.PutU32(Crc32c(payload.data(), payload.size()));
  hw.PutRaw(payload.data(), protocol::kMessageHeaderBytes);
  return frame;
}

void WireFrontEnd::Send(const Request& req, ReplyFrame frame) {
  EnqueueReply(req.conn, std::move(frame), req.admitted);
}

void WireFrontEnd::ReplyError(const Request& req, const Status& status,
                              uint32_t extra_flags) {
  Reply(req, status, extra_flags, [](WireWriter*) {});
}

void WireFrontEnd::Finish(const Request& req, const Status& status) {
  Record(req, status);
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    --in_flight_;
    drained = in_flight_ == 0;
  }
  if (drained) drained_cv_.notify_all();
}

void WireFrontEnd::Record(const Request& req, const Status& status) {
  const size_t idx = TypeIndex(req.header.type);
  if (idx >= protocol::kNumRequestTypes) return;
  const auto elapsed = std::chrono::steady_clock::now() - req.arrival;
  latency_us_[idx].Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count()));
  if (status.ok()) {
    counters_.replies_ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    counters_.replies_error.fetch_add(1, std::memory_order_relaxed);
    counters_.type_errors[idx].fetch_add(1, std::memory_order_relaxed);
  }
}

// --- worker path -----------------------------------------------------------

bool WireFrontEnd::Expired(const Request& req) const {
  if (req.deadline_ms == 0) return false;
  const auto elapsed = std::chrono::steady_clock::now() - req.arrival;
  return elapsed >= std::chrono::milliseconds(req.deadline_ms);
}

void WireFrontEnd::RunBatch(Batch* batch) {
  // Counters and latency are finalized BEFORE a reply is enqueued, so a
  // client that has seen its reply always sees it reflected in a
  // subsequent stats request (no read-your-own-write race).
  size_t live = 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    Request& req = (*batch)[i];
    if (Expired(req)) {
      counters_.deadline_timeouts.fetch_add(1, std::memory_order_relaxed);
      const Status expired =
          Status::Unavailable("deadline expired before execution");
      Finish(req, expired);
      ReplyError(req, expired, 0);
      continue;
    }
    if (i != live) (*batch)[live] = std::move(req);
    ++live;
  }
  batch->resize(live);
  if (!batch->empty()) backend_->Execute(batch);
}

protocol::ServerStatsSnapshot WireFrontEnd::Stats() const {
  protocol::ServerStatsSnapshot s;
  s.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  s.connections_closed =
      counters_.connections_closed.load(std::memory_order_relaxed);
  s.accept_errors = counters_.accept_errors.load(std::memory_order_relaxed);
  s.protocol_errors =
      counters_.protocol_errors.load(std::memory_order_relaxed);
  s.requests_total = counters_.requests_total.load(std::memory_order_relaxed);
  s.replies_ok = counters_.replies_ok.load(std::memory_order_relaxed);
  s.replies_error = counters_.replies_error.load(std::memory_order_relaxed);
  s.rejected_overload =
      counters_.rejected_overload.load(std::memory_order_relaxed);
  s.rejected_draining =
      counters_.rejected_draining.load(std::memory_order_relaxed);
  s.deadline_timeouts =
      counters_.deadline_timeouts.load(std::memory_order_relaxed);
  s.bytes_in = counters_.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = counters_.bytes_out.load(std::memory_order_relaxed);
  s.in_flight_peak = counters_.in_flight_peak.load(std::memory_order_relaxed);

  const SlabPool::StatsSnapshot slab = SlabPool::Global().Stats();
  s.slab_allocations = slab.allocations;
  s.slab_recycles = slab.recycles;
  s.slab_bytes_in_use = slab.bytes_in_use;
  s.reply_tail_copies =
      counters_.reply_tail_copies.load(std::memory_order_relaxed);

  for (size_t i = 0; i < protocol::kNumRequestTypes; ++i) {
    const Histogram::Snapshot h = latency_us_[i].TakeSnapshot();
    protocol::RequestTypeStats& t = s.per_type[i];
    t.count = h.count;
    t.errors = counters_.type_errors[i].load(std::memory_order_relaxed);
    t.p50_us = h.ValueAtPercentile(50);
    t.p95_us = h.ValueAtPercentile(95);
    t.p99_us = h.ValueAtPercentile(99);
    t.max_us = h.ValueAtPercentile(100);
    t.mean_us = h.Mean();
  }
  backend_->AddStats(&s);
  return s;
}

// --- drain / shutdown --------------------------------------------------------

void WireFrontEnd::RequestDrain() {
  State expected = State::kRunning;
  if (state_.compare_exchange_strong(expected, State::kDraining)) {
    // Wakes loop 0 through the (registered) listener fd; the accept
    // handler sees the drained state and deregisters it.
    listener_.Shutdown();
  }
}

void WireFrontEnd::ShutdownLoopTask(IoLoop* io) {
  io->shutting_down = true;
  if (io == loops_[0].get()) UnregisterListener();
  // Close everything with an empty write queue; give the rest a flush.
  std::vector<std::shared_ptr<Conn>> conns = io->conns;
  for (auto& conn : conns) {
    if (!conn->bsock.has_pending_write()) {
      CloseConn(conn);
    } else {
      FlushConn(conn);
    }
  }
  CheckLoopDrained(io);
}

void WireFrontEnd::CheckLoopDrained(IoLoop* io) {
  if (!io->shutting_down || io->stop_requested) return;
  const bool pending =
      std::any_of(io->conns.begin(), io->conns.end(), [](const auto& conn) {
        return conn->bsock.has_pending_write();
      });
  if (!pending) {
    CancelTimer(&io->loop, &io->shutdown_timer);
    StopLoop(io);
  } else if (io->shutdown_timer == 0) {
    // Bounded grace for peers that stopped reading: after it, their
    // replies are forfeit and the loop stops regardless.
    io->shutdown_timer = io->loop.AddTimer(kDrainFlushGraceMs, [this, io] {
      io->shutdown_timer = 0;
      StopLoop(io);
    });
  }
}

void WireFrontEnd::StopLoop(IoLoop* io) {
  io->stop_requested = true;
  std::vector<std::shared_ptr<Conn>> conns = io->conns;
  for (auto& conn : conns) CloseConn(conn);
  io->loop.Stop();
}

void WireFrontEnd::Shutdown() {
  if (!started_) return;
  RequestDrain();

  // Complete every admitted request before tearing anything down — the
  // graceful-drain contract.
  {
    std::unique_lock<std::mutex> lock(admit_mu_);
    drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  workers_.reset();  // joins the worker threads

  // Workers are joined, so every reply has been posted; loop post queues
  // are FIFO, so the shutdown task runs after the last delivery. It
  // flushes stragglers (bounded) and stops the loop.
  for (auto& io : loops_) {
    IoLoop* p = io.get();
    p->loop.Post([this, p] { ShutdownLoopTask(p); });
  }
  for (auto& io : loops_) {
    if (io->thread.joinable()) io->thread.join();
  }
  loops_.clear();
  listener_ = TcpListener();  // release the listen fd

  state_.store(State::kStopped);
  started_ = false;
}

}  // namespace mds
