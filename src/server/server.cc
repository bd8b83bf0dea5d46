#include "server/server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "common/rng.h"
#include "core/knn.h"
#include "core/query_engine.h"
#include "core/query_planner.h"

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

/// Resource cap on one kNN request (the result is k * 16 bytes).
constexpr uint32_t kMaxKnnK = 1u << 16;

/// Flags that make a request uncacheable: skip_corrupt can produce a
/// degraded answer tied to a transient fault, and planner-pinning hints
/// are diagnostics whose replies (chosen_path, I/O counters) must reflect
/// a real execution.
constexpr uint32_t kUncacheableFlags = protocol::kFlagSkipCorrupt |
                                       protocol::kFlagHintFullScan |
                                       protocol::kFlagHintIndex;

/// True for request types whose reply is a pure function of (dataset
/// epoch, request body): point counts, box queries, kNN and seeded
/// TABLESAMPLE (the RNG seed travels in the body). Health and stats are
/// answered inline and change between calls.
bool CacheableRequest(const protocol::MessageHeader& header) {
  if ((header.flags & kUncacheableFlags) != 0) return false;
  switch (header.type) {
    case MessageType::kPointCount:
    case MessageType::kBoxQuery:
    case MessageType::kKnn:
    case MessageType::kTableSample:
      return true;
    default:
      return false;
  }
}

/// True for requests the worker may gang into one ExecuteBatch call:
/// box-like queries with no behavior-altering flags. kNN has no access
/// path, and hinted/skip-corrupt requests take the planner's special
/// branches — each of those executes alone.
bool Gangable(const protocol::MessageHeader& header) {
  if ((header.flags & kUncacheableFlags) != 0) return false;
  switch (header.type) {
    case MessageType::kPointCount:
    case MessageType::kBoxQuery:
    case MessageType::kTableSample:
      return true;
    default:
      return false;
  }
}

void RelaxedMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t cur = target->load(std::memory_order_relaxed);
  while (cur < value &&
         !target->compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

QueryServer::QueryServer(std::shared_ptr<const ServedDataset> dataset,
                         const ServerConfig& config)
    : dataset_(std::move(dataset)), config_(config) {
  if (config_.max_in_flight == 0) config_.max_in_flight = 1;
  if (config_.io_threads == 0) config_.io_threads = 1;
  if (config_.pipeline_batch_max == 0) config_.pipeline_batch_max = 1;
  if (config_.cache_bytes != 0) {
    cache_ = std::make_unique<ResponseCache>(config_.cache_bytes);
  }
}

QueryServer::QueryServer(const ServedDataset* dataset,
                         const ServerConfig& config)
    // Aliasing constructor with an empty owner: a non-owning shared_ptr,
    // preserving the legacy caller-owns-the-dataset contract.
    : QueryServer(std::shared_ptr<const ServedDataset>(
                      std::shared_ptr<const void>(), dataset),
                  config) {}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  auto listener = TcpListener::Listen(config_.port);
  if (!listener.ok()) {
    return AnnotateStatus(listener.status(), "QueryServer::Start");
  }
  listener_ = std::move(*listener);
  port_ = listener_.port();
  MDS_RETURN_NOT_OK(listener_.SetNonBlocking());
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    pool_at_start_ = dataset_->pool()->Snapshot();
  }

  loops_.clear();
  next_loop_ = 0;
  for (unsigned i = 0; i < config_.io_threads; ++i) {
    loops_.push_back(std::make_unique<IoLoop>());
    if (!loops_.back()->loop.valid()) {
      loops_.clear();
      return Status::Internal("QueryServer::Start: epoll unavailable");
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = false;
  }
  debug_fail_remaining_ = config_.debug_fail_first_accepts;
  accept_backoff_ms_ = 0;

  // Register the listener before the loop thread exists — no concurrent
  // access yet, and the thread start is the happens-before edge.
  Status added = loops_[0]->loop.Add(listener_.fd(), EventLoop::kReadable,
                                     [this](uint32_t) { OnAcceptReady(); });
  if (!added.ok()) {
    loops_.clear();
    return AnnotateStatus(added, "QueryServer::Start");
  }
  listener_registered_ = true;

  started_ = true;
  state_.store(State::kRunning);
  workers_ = std::make_unique<TaskPool>(config_.num_workers);
  worker_runner_ = std::thread([this] {
    workers_->Run([this](unsigned) { WorkerLoop(); });
  });
  for (auto& io : loops_) {
    IoLoop* p = io.get();
    p->thread = std::thread([p] { p->loop.Run(); });
  }
  return Status::OK();
}

// --- dataset lifecycle -------------------------------------------------------

void QueryServer::SnapshotDataset(
    std::shared_ptr<const ServedDataset>* dataset, uint64_t* epoch) const {
  std::lock_guard<std::mutex> lock(dataset_mu_);
  *dataset = dataset_;
  if (epoch != nullptr) *epoch = dataset_->epoch();
}

void QueryServer::SetReloadHandler(ReloadHandler handler) {
  std::lock_guard<std::mutex> lock(dataset_mu_);
  reload_handler_ = std::move(handler);
}

Result<protocol::ReloadReply> QueryServer::Reload(const std::string& path) {
  // One reload at a time: concurrent kReload requests (or a SIGHUP racing
  // an admin request) serialize here instead of interleaving their swaps.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);

  ReloadHandler handler;
  std::shared_ptr<const ServedDataset> current;
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    handler = reload_handler_;
    current = dataset_;
  }
  if (!handler) {
    return Status::FailedPrecondition(
        "QueryServer::Reload: no reload handler installed");
  }

  // The load runs on the calling thread, off dataset_mu_ — queries keep
  // executing against the current snapshot for the whole build.
  auto next = handler(path);
  if (!next.ok()) {
    return AnnotateStatus(next.status(),
                          "QueryServer::Reload('" + path + "')");
  }
  if (*next == nullptr) {
    return Status::Internal(
        "QueryServer::Reload: handler returned no dataset");
  }

  // Same refusal taxonomy as the coordinator's startup probe: the new
  // generation must answer the same query space as the one it replaces.
  if ((*next)->dim() != current->dim()) {
    return Status::FailedPrecondition(
        "reload refused: new dataset serves dimension " +
        std::to_string((*next)->dim()) + ", expected " +
        std::to_string(current->dim()));
  }
  if ((*next)->shard_index() != current->shard_index() ||
      (*next)->shard_count() != current->shard_count()) {
    return Status::FailedPrecondition(
        "reload refused: new dataset is shard " +
        std::to_string((*next)->shard_index()) + "/" +
        std::to_string((*next)->shard_count()) + ", expected shard " +
        std::to_string(current->shard_index()) + "/" +
        std::to_string(current->shard_count()));
  }

  protocol::ReloadReply reply;
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    // Swap first, then bump: a request racing this window can at worst
    // insert an old-epoch cache entry, which the bump invalidates
    // wholesale. (Bump-then-swap could cache an old-data reply under the
    // NEW epoch — a persistent lie.) In-flight requests that snapshotted
    // the old generation finish against it; its pages stay alive until
    // the last shared_ptr drops.
    (*next)->AdoptEpochFrom(*dataset_);
    reply.old_epoch = dataset_->epoch();
    dataset_ = std::move(*next);
    dataset_->BumpEpoch();
    reply.new_epoch = dataset_->epoch();
    reply.served_rows = dataset_->num_rows();
    reply.bounds = dataset_->tree().root().bounds;
    pool_at_start_ = dataset_->pool()->Snapshot();
  }
  return reply;
}

// --- reactor: accept path ---------------------------------------------------

void QueryServer::OnAcceptReady() {
  IoLoop* io0 = loops_[0].get();
  if (state_.load() != State::kRunning) {
    if (listener_registered_) {
      io0->loop.Remove(listener_.fd());
      listener_registered_ = false;
    }
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
        if (listener_registered_) {
          io0->loop.Remove(listener_.fd());
          listener_registered_ = false;
        }
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

void QueryServer::BackOffAccept() {
  if (listener_registered_) {
    loops_[0]->loop.Remove(listener_.fd());
    listener_registered_ = false;
  }
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

void QueryServer::AdoptConnection(Socket sock) {
  if (open_connections_.load(std::memory_order_relaxed) >=
      config_.max_connections) {
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
    home->loop.Post(
        [this, home, conn] { RegisterConnection(home, conn); });
  }
}

void QueryServer::RegisterConnection(IoLoop* home,
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

void QueryServer::ArmIdleTimer(const std::shared_ptr<Conn>& conn) {
  if (conn->idle_timer != 0) {
    conn->home->loop.CancelTimer(conn->idle_timer);
    conn->idle_timer = 0;
  }
  if (config_.idle_timeout_ms == 0) return;
  conn->idle_timer =
      conn->home->loop.AddTimer(config_.idle_timeout_ms, [this, conn] {
        conn->idle_timer = 0;
        // Idle or mid-frame stall (slow-loris): stop reading. Not a
        // protocol violation — the same taxonomy as the blocking read
        // deadline this replaces.
        if (!conn->closed) StopReading(conn);
      });
}

void QueryServer::OnConnEvent(const std::shared_ptr<Conn>& conn,
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

bool QueryServer::ProcessFrames(const std::shared_ptr<Conn>& conn,
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
  // the idle clock, exactly like the per-frame blocking read deadline. A
  // partial frame keeps the clock from its last boundary (slow-loris).
  if (frames > 0 && conn->bsock.size() == 0 && !conn->closed &&
      !conn->read_eof) {
    ArmIdleTimer(conn);
  }
  return true;
}

bool QueryServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                              std::vector<uint8_t> payload, Batch* gang) {
  PendingRequest req;
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

  // Snapshot the serving generation and its cache epoch as one consistent
  // pair: Reload swaps the pointer and bumps the (shared) epoch under the
  // same mutex, so a request never pairs old data with the new epoch.
  SnapshotDataset(&req.dataset, &req.cache_epoch);

  // All request bodies begin with the deadline prefix.
  req.deadline_ms = r.GetU32();
  req.body_offset = req.payload.size() - r.remaining();
  if (!r.ok()) {
    WriteErrorReply(req, Status::InvalidArgument("request body truncated"),
                    0);
    return true;
  }
  if (req.deadline_ms == 0) req.deadline_ms = config_.default_deadline_ms;

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
      // kReload rides the worker path: uncacheable (CacheableRequest is
      // false) and non-gangable (Gangable is false), so it lands in its
      // own singleton batch behind admission control.
      break;
    default:
      WriteErrorReply(
          req,
          Status::Unimplemented("unknown request type " +
                                std::to_string(static_cast<unsigned>(
                                    req.header.type))),
          0);
      return true;
  }

  // Response-cache fast path, on this I/O thread: a hit is answered
  // immediately and never touches admission control, the queue or the
  // deadline machinery. A miss tags the request to populate the cache
  // once its reply is finalized.
  if (TryServeFromCache(&req)) return true;

  // Admission control: reject rather than buffer beyond the cap.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (state_.load() != State::kRunning) {
      lock.unlock();
      counters_.rejected_draining.fetch_add(1, std::memory_order_relaxed);
      WriteErrorReply(req,
                      Status::Unavailable("server draining; retry elsewhere"),
                      protocol::kFlagDraining);
      return true;
    }
    if (in_flight_ >= config_.max_in_flight) {
      lock.unlock();
      counters_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      WriteErrorReply(
          req, Status::Unavailable("server overloaded; retry with backoff"),
          0);
      return true;
    }
    ++in_flight_;
    RelaxedMax(&counters_.in_flight_peak, in_flight_);
  }
  req.admitted = true;
  ++conn->admitted_open;

  // Pipelining: contiguous gangable cache misses from this readiness
  // event ride one batch into a single ExecuteBatch call; anything else
  // executes alone (and splits the gang to preserve queue order).
  if (!Gangable(req.header)) {
    FlushGang(gang);
    Batch single;
    single.push_back(std::move(req));
    EnqueueBatch(std::move(single));
  } else {
    gang->push_back(std::move(req));
    if (gang->size() >= config_.pipeline_batch_max) FlushGang(gang);
  }
  return true;
}

void QueryServer::FlushGang(Batch* gang) {
  if (gang->empty()) return;
  EnqueueBatch(std::move(*gang));
  gang->clear();
}

void QueryServer::EnqueueBatch(Batch batch) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(batch));
  }
  queue_cv_.notify_one();
}

void QueryServer::FlushConn(const std::shared_ptr<Conn>& conn) {
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
    (void)home->loop.Modify(
        conn->fd, conn->read_eof ? 0u : EventLoop::kReadable);
  }
  if (conn->write_timer != 0) {
    home->loop.CancelTimer(conn->write_timer);
    conn->write_timer = 0;
  }
  if (conn->read_eof && conn->admitted_open == 0) {
    CloseConn(conn);
    return;
  }
  if (home->shutting_down) CheckLoopDrained(home);
}

void QueryServer::StopReading(const std::shared_ptr<Conn>& conn) {
  if (conn->closed || conn->read_eof) return;
  conn->read_eof = true;
  if (conn->idle_timer != 0) {
    conn->home->loop.CancelTimer(conn->idle_timer);
    conn->idle_timer = 0;
  }
  if (conn->admitted_open == 0 && !conn->bsock.has_pending_write()) {
    CloseConn(conn);
    return;
  }
  (void)conn->home->loop.Modify(
      conn->fd, conn->want_write ? EventLoop::kWritable : 0u);
}

void QueryServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  IoLoop* home = conn->home;
  if (conn->idle_timer != 0) {
    home->loop.CancelTimer(conn->idle_timer);
    conn->idle_timer = 0;
  }
  if (conn->write_timer != 0) {
    home->loop.CancelTimer(conn->write_timer);
    conn->write_timer = 0;
  }
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

void QueryServer::DeliverReply(const std::shared_ptr<Conn>& conn,
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

void QueryServer::EnqueueReply(const std::shared_ptr<Conn>& conn,
                               ReplyFrame frame, bool admitted) {
  EventLoop* loop = &conn->home->loop;
  if (loop->InLoopThread()) {
    DeliverReply(conn, std::move(frame), admitted);
  } else {
    loop->Post([this, conn, admitted,
                f = std::move(frame)]() mutable {
      DeliverReply(conn, std::move(f), admitted);
    });
  }
}

// --- worker path -------------------------------------------------------------

void QueryServer::WorkerLoop() {
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      batch = std::move(queue_.front());
      queue_.pop_front();
    }
    if (batch.size() == 1) {
      HandleRequest(&batch[0]);
    } else {
      HandleBatch(&batch);
    }
  }
}

bool QueryServer::TryServeFromCache(PendingRequest* req) {
  if (cache_ == nullptr || !CacheableRequest(req->header)) return false;
  // req->cache_epoch was captured together with the dataset snapshot (one
  // consistent pair, under dataset_mu_): a reply computed for this request
  // populates the cache under the same generation it was looked up
  // against, never a newer one.
  const uint8_t* body = req->payload.data() + req->body_offset;
  const size_t body_len = req->payload.size() - req->body_offset;
  ResponseCache::CachedReply hit;
  if (!cache_->Lookup(static_cast<uint16_t>(req->header.type),
                      req->cache_epoch, body, body_len, &hit)) {
    req->cache_populate = true;
    return false;
  }

  // Re-head in place under the requester's own request id: the frame is
  // [prefix | header | memoized tail], where only prefix + header (28
  // bytes) are built per hit and the tail ships as the cache entry's own
  // slice — zero payload copies. The frame CRC spans header then tail;
  // CRC-32C chains, so checksumming the two segments in order equals the
  // CRC of their (never materialized) concatenation, and the bytes on the
  // wire are identical to the execution that populated the entry.
  MessageHeader header;
  header.type = req->header.type;
  header.flags = protocol::kFlagReply | hit.flags;
  header.request_id = req->header.request_id;

  ReplyFrame frame;
  frame.head.reserve(protocol::kFramePrefixBytes +
                     protocol::kMessageHeaderBytes);
  WireWriter w(&frame.head);
  w.PutU32(protocol::kFrameMagic);
  w.PutU32(static_cast<uint32_t>(protocol::kMessageHeaderBytes +
                                 hit.tail.size()));
  w.PutU32(0);  // CRC placeholder, patched below
  EncodeMessageHeader(header, &w);
  const uint32_t crc =
      Crc32c(Crc32c(frame.head.data() + protocol::kFramePrefixBytes,
                    protocol::kMessageHeaderBytes),
             hit.tail.data(), hit.tail.size());
  std::memcpy(frame.head.data() + 8, &crc, sizeof(crc));
  frame.tail = std::move(hit.tail);

  // Counters and latency are finalized before the reply is enqueued,
  // matching the executed-reply path's read-your-own-write contract.
  RecordInlineReply(*req);

  EnqueueReply(req->conn, std::move(frame), /*admitted=*/false);
  return true;
}

bool QueryServer::Expired(const PendingRequest& req) const {
  if (req.deadline_ms == 0) return false;
  const auto elapsed = std::chrono::steady_clock::now() - req.arrival;
  return elapsed >= std::chrono::milliseconds(req.deadline_ms);
}

void QueryServer::HandleRequest(PendingRequest* req) {
  // Counters and latency are finalized BEFORE the reply is enqueued, so
  // a client that has seen its reply always sees it reflected in a
  // subsequent stats request (no read-your-own-write race).
  if (Expired(*req)) {
    counters_.deadline_timeouts.fetch_add(1, std::memory_order_relaxed);
    const Status expired =
        Status::Unavailable("deadline expired before execution");
    FinishRequest(*req, expired);
    WriteErrorReply(*req, expired, 0);
  } else if (req->header.type == MessageType::kReload) {
    HandleReload(req);
  } else if (req->header.type == MessageType::kKnn) {
    protocol::KnnReply reply;
    const Status query_status = ExecuteKnn(*req, &reply);
    FinishRequest(*req, query_status);
    WriteReply(*req, query_status, 0,
               ReplyCacheable(query_status, /*degraded=*/false,
                              /*pages_skipped=*/0),
               [&](WireWriter* w) { protocol::EncodeKnnReply(reply, w); });
  } else {
    ExecuteAndReplyBoxLike(req);
  }
}

void QueryServer::ExecuteAndReplyBoxLike(PendingRequest* req) {
  protocol::QueryReply reply;
  const Status query_status = ExecuteBoxLike(*req, &reply);
  const uint32_t flags = reply.degraded ? protocol::kFlagDegraded : 0;
  FinishRequest(*req, query_status);
  WriteReply(
      *req, query_status, flags,
      ReplyCacheable(query_status, reply.degraded, reply.pages_skipped),
      [&](WireWriter* w) { protocol::EncodeQueryReply(reply, w); });
}

void QueryServer::HandleReload(PendingRequest* req) {
  WireReader r(req->payload.data() + req->body_offset,
               req->payload.size() - req->body_offset);
  protocol::ReloadRequest reload;
  Status decoded = DecodeReloadRequest(&r, &reload);
  if (decoded.ok()) decoded = r.ExpectEnd();
  if (!decoded.ok()) {
    FinishRequest(*req, decoded);
    WriteErrorReply(*req, decoded, 0);
    return;
  }
  auto result = Reload(reload.path);
  if (!result.ok()) {
    FinishRequest(*req, result.status());
    WriteErrorReply(*req, result.status(), 0);
    return;
  }
  FinishRequest(*req, Status::OK());
  WriteReply(*req, Status::OK(), 0, /*cacheable_reply=*/false,
             [&](WireWriter* w) { protocol::EncodeReloadReply(*result, w); });
}

void QueryServer::HandleBatch(Batch* batch) {
  // One gang = contiguous pipelined cache-miss box-like requests from one
  // connection. Each slot picks its access path with the planner's exact
  // cost rule, then every chosen path runs through a single
  // QueryEngine::ExecuteBatch call. Any slot that cannot take this fast
  // path — expired deadline, decode error, no feasible path, or a failed
  // execution — drops back to the exact single-request path, so replies
  // are indistinguishable from sequential execution.
  struct GangSlot {
    PendingRequest* req = nullptr;
    // The paths reference (not copy) their query geometry and RNG, so the
    // slot owns all of it for the duration of ExecuteBatch.
    std::unique_ptr<Rng> rng;
    std::unique_ptr<Box> box;
    std::unique_ptr<Polyhedron> poly;
    std::vector<std::unique_ptr<AccessPath>> paths;
    AccessPath* chosen = nullptr;
    uint64_t limit = 0;
  };

  std::vector<GangSlot> slots(batch->size());
  std::vector<AccessPath*> gang_paths;
  std::vector<size_t> gang_slots;  // slot index per gang_paths entry

  for (size_t i = 0; i < batch->size(); ++i) {
    PendingRequest* req = &(*batch)[i];
    GangSlot* slot = &slots[i];
    slot->req = req;
    if (Expired(*req)) {
      counters_.deadline_timeouts.fetch_add(1, std::memory_order_relaxed);
      const Status expired =
          Status::Unavailable("deadline expired before execution");
      FinishRequest(*req, expired);
      WriteErrorReply(*req, expired, 0);
      continue;
    }

    WireReader r(req->payload.data() + req->body_offset,
                 req->payload.size() - req->body_offset);
    const PointTableBinding& binding = req->dataset->binding();
    if (req->header.type == MessageType::kTableSample) {
      protocol::TableSampleRequest sample;
      if (!DecodeTableSampleRequest(&r, &sample).ok() ||
          !r.ExpectEnd().ok() || sample.lo.size() != req->dataset->dim()) {
        ExecuteAndReplyBoxLike(req);  // exact sequential error handling
        slot->req = nullptr;
        continue;
      }
      slot->box = std::make_unique<Box>(sample.lo, sample.hi);
      slot->rng = std::make_unique<Rng>(sample.seed);
      slot->paths.push_back(std::make_unique<TableSamplePath>(
          binding, *slot->box, sample.percent, sample.n, slot->rng.get()));
      slot->chosen = slot->paths.back().get();
    } else {
      protocol::BoxQueryRequest query;
      if (!DecodeBoxQueryRequest(&r, &query).ok() || !r.ExpectEnd().ok() ||
          query.lo.size() != req->dataset->dim()) {
        ExecuteAndReplyBoxLike(req);
        slot->req = nullptr;
        continue;
      }
      slot->limit = query.limit;
      slot->box = std::make_unique<Box>(query.lo, query.hi);
      slot->poly =
          std::make_unique<Polyhedron>(Polyhedron::FromBox(*slot->box));
      slot->paths.push_back(
          std::make_unique<FullScanPath>(binding, *slot->box));
      slot->paths.push_back(std::make_unique<KdTreePath>(
          binding, req->dataset->tree(), *slot->poly));
      // The planner's rule: cheapest feasible path by Estimate().Total(),
      // ties to the earlier registration (full-scan before kd-tree).
      double best_cost = 0.0;
      for (const auto& path : slot->paths) {
        if (!path->Validate().ok()) continue;
        const CostEstimate estimate = path->Estimate();
        if (!estimate.feasible) continue;
        const double cost = estimate.Total();
        if (slot->chosen == nullptr || cost < best_cost) {
          slot->chosen = path.get();
          best_cost = cost;
        }
      }
      if (slot->chosen == nullptr) {
        ExecuteAndReplyBoxLike(req);  // planner's no-feasible-path error
        slot->req = nullptr;
        continue;
      }
    }
    gang_paths.push_back(slot->chosen);
    gang_slots.push_back(i);
  }

  if (gang_paths.empty()) return;

  // Inline on this worker (num_threads=1): parallelism across requests
  // comes from the worker pool itself — the single MDS_QUERY_THREADS knob
  // keeps bounding total execution concurrency.
  QueryEngine::BatchOptions options;
  options.num_threads = 1;
  std::vector<QueryStats> stats;
  std::vector<Result<StorageQueryResult>> results =
      QueryEngine::ExecuteBatch(gang_paths, options, &stats);

  for (size_t g = 0; g < results.size(); ++g) {
    GangSlot* slot = &slots[gang_slots[g]];
    PendingRequest* req = slot->req;
    if (!results[g].ok()) {
      // Rare (corruption, fault injection): re-run through the planner so
      // the fallback-and-degrade policy — and the error text — match the
      // sequential path exactly.
      ExecuteAndReplyBoxLike(req);
      continue;
    }
    StorageQueryResult result = std::move(*results[g]);
    protocol::QueryReply reply;
    reply.chosen_path = slot->chosen->name();
    reply.row_count = result.objids.size();
    if (req->header.type == MessageType::kBoxQuery ||
        req->header.type == MessageType::kTableSample) {
      reply.objids = std::move(result.objids);
      if (slot->limit != 0 && reply.objids.size() > slot->limit) {
        // The reply-size cap: first `limit` matches in clustered row
        // order. (The scan itself is not truncated.)
        reply.objids.resize(slot->limit);
      }
    }
    reply.rows_scanned = stats[g].rows_scanned;
    reply.pages_fetched = stats[g].pages_fetched;
    reply.pages_read = stats[g].pages_read;
    reply.pages_skipped = stats[g].pages_skipped;
    reply.degraded = result.degraded;
    const uint32_t flags = reply.degraded ? protocol::kFlagDegraded : 0;
    FinishRequest(*req, Status::OK());
    WriteReply(*req, Status::OK(), flags,
               ReplyCacheable(Status::OK(), reply.degraded,
                              reply.pages_skipped),
               [&](WireWriter* w) { protocol::EncodeQueryReply(reply, w); });
  }
}

void QueryServer::FinishRequest(const PendingRequest& req,
                                const Status& status) {
  const size_t idx = TypeIndex(req.header.type);
  if (idx < protocol::kNumRequestTypes) {
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
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    --in_flight_;
    drained = in_flight_ == 0;
  }
  if (drained) drained_cv_.notify_all();
}

void QueryServer::RecordInlineReply(const PendingRequest& req) {
  const size_t idx = TypeIndex(req.header.type);
  const auto elapsed = std::chrono::steady_clock::now() - req.arrival;
  latency_us_[idx].Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count()));
  counters_.replies_ok.fetch_add(1, std::memory_order_relaxed);
}

Status QueryServer::ExecuteBoxLike(const PendingRequest& req,
                                   protocol::QueryReply* out) {
  WireReader r(req.payload.data() + req.body_offset,
               req.payload.size() - req.body_offset);
  const PointTableBinding& binding = req.dataset->binding();

  RangeScanner::ScanOptions scan;
  scan.skip_corrupt_pages =
      (req.header.flags & protocol::kFlagSkipCorrupt) != 0;

  QueryStats stats;
  Result<StorageQueryResult> result =
      Status::Internal("query not executed");
  uint64_t limit = 0;

  if (req.header.type == MessageType::kTableSample) {
    protocol::TableSampleRequest sample;
    MDS_RETURN_NOT_OK(DecodeTableSampleRequest(&r, &sample));
    MDS_RETURN_NOT_OK(r.ExpectEnd());
    if (sample.lo.size() != req.dataset->dim()) {
      return Status::InvalidArgument("query dimension " +
                                     std::to_string(sample.lo.size()) +
                                     " != served dimension " +
                                     std::to_string(req.dataset->dim()));
    }
    Box box(sample.lo, sample.hi);
    Rng rng(sample.seed);
    TableSamplePath path(binding, box, sample.percent, sample.n, &rng);
    result = ExecuteAccessPath(&path, scan, &stats);
    out->chosen_path = path.name();
  } else {
    protocol::BoxQueryRequest query;
    MDS_RETURN_NOT_OK(DecodeBoxQueryRequest(&r, &query));
    MDS_RETURN_NOT_OK(r.ExpectEnd());
    if (query.lo.size() != req.dataset->dim()) {
      return Status::InvalidArgument("query dimension " +
                                     std::to_string(query.lo.size()) +
                                     " != served dimension " +
                                     std::to_string(req.dataset->dim()));
    }
    limit = query.limit;
    Box box(query.lo, query.hi);
    const Polyhedron poly = Polyhedron::FromBox(box);

    QueryPlanner planner;
    planner.AddPath(std::make_unique<FullScanPath>(binding, box))
        .AddPath(std::make_unique<KdTreePath>(binding, req.dataset->tree(),
                                              poly));

    QueryPlanner::ExecuteOptions options;
    options.scan = scan;
    // Protocol planner hints map onto the planner's path restriction.
    if (req.header.flags & protocol::kFlagHintFullScan) {
      options.required_path = "full-scan";
    } else if (req.header.flags & protocol::kFlagHintIndex) {
      options.required_path = "kd-tree";
    }
    result = planner.Execute(options, &stats, &out->chosen_path);
  }

  if (!result.ok()) return result.status();

  out->row_count = result->objids.size();
  if (req.header.type == MessageType::kBoxQuery ||
      req.header.type == MessageType::kTableSample) {
    out->objids = std::move(result->objids);
    if (limit != 0 && out->objids.size() > limit) {
      // The reply-size cap: first `limit` matches in clustered row order.
      // (The scan itself is not truncated; pages_fetched is unaffected.)
      out->objids.resize(limit);
    }
  }
  out->rows_scanned = stats.rows_scanned;
  out->pages_fetched = stats.pages_fetched;
  out->pages_read = stats.pages_read;
  out->pages_skipped = stats.pages_skipped;
  out->degraded = result->degraded;
  return Status::OK();
}

Status QueryServer::ExecuteKnn(const PendingRequest& req,
                               protocol::KnnReply* out) {
  WireReader r(req.payload.data() + req.body_offset,
               req.payload.size() - req.body_offset);
  protocol::KnnRequest knn;
  MDS_RETURN_NOT_OK(DecodeKnnRequest(&r, &knn));
  MDS_RETURN_NOT_OK(r.ExpectEnd());
  if (knn.point.size() != req.dataset->dim()) {
    return Status::InvalidArgument("query dimension " +
                                   std::to_string(knn.point.size()) +
                                   " != served dimension " +
                                   std::to_string(req.dataset->dim()));
  }
  if (knn.k > kMaxKnnK) {
    return Status::InvalidArgument("k exceeds cap " +
                                   std::to_string(kMaxKnnK));
  }
  // k beyond the stored row count used to clamp silently; an answer with
  // fewer than k neighbors is indistinguishable from data loss to the
  // caller, so it is now a boundary error.
  if (knn.k > req.dataset->num_rows()) {
    return Status::InvalidArgument(
        "k " + std::to_string(knn.k) + " exceeds served rows " +
        std::to_string(req.dataset->num_rows()));
  }
  KdKnnSearcher searcher(&req.dataset->tree());
  std::vector<Neighbor> neighbors =
      searcher.BoundaryGrow(knn.point.data(), knn.k);
  out->neighbors.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) {
    out->neighbors.push_back(protocol::WireNeighbor{
        static_cast<int64_t>(n.id), n.squared_distance});
  }
  return Status::OK();
}

void QueryServer::HandleHealth(const PendingRequest& req) {
  protocol::HealthReply reply;
  reply.draining = state_.load() != State::kRunning ? 1 : 0;
  reply.served_rows = req.dataset->num_rows();
  reply.dim = static_cast<uint32_t>(req.dataset->dim());
  reply.bounds = req.dataset->tree().root().bounds;
  RecordInlineReply(req);
  const uint32_t flags = reply.draining ? protocol::kFlagDraining : 0;
  WriteReply(req, Status::OK(), flags, /*cacheable_reply=*/false,
             [&](WireWriter* w) { protocol::EncodeHealthReply(reply, w); });
}

void QueryServer::HandleStats(const PendingRequest& req) {
  RecordInlineReply(req);
  const protocol::ServerStatsSnapshot snapshot = Stats();
  WriteReply(req, Status::OK(), 0, /*cacheable_reply=*/false,
             [&](WireWriter* w) { protocol::EncodeServerStats(snapshot, w); });
}

template <typename EncodeBody>
void QueryServer::WriteReply(const PendingRequest& req, const Status& status,
                             uint32_t extra_flags, bool cacheable_reply,
                             EncodeBody&& encode_body) {
  std::vector<uint8_t> payload;
  WireWriter w(&payload);
  MessageHeader header;
  header.type = req.header.type;
  header.flags = protocol::kFlagReply | extra_flags;
  header.request_id = req.header.request_id;
  EncodeMessageHeader(header, &w);
  protocol::EncodeStatus(status, &w);
  if (status.ok()) {
    encode_body(&w);
  }

  // Move the encoded tail (everything after the message header) into a
  // slab slice: the one post-encode payload copy on the miss path. The
  // slice is then shared by reference — the cache entry below and the
  // socket write queue pin the same bytes.
  const size_t tail_len = payload.size() - protocol::kMessageHeaderBytes;
  SlabPool::Slice tail = SlabPool::Global().Allocate(tail_len);
  if (tail) {
    std::memcpy(tail.data(), payload.data() + protocol::kMessageHeaderBytes,
                tail_len);
    counters_.reply_tail_copies.fetch_add(1, std::memory_order_relaxed);
  }

  // Populate after the reply is finalized and before it is enqueued: a
  // subsequent hit on any connection replays exactly these bytes (minus
  // the request id). Only requests the I/O-thread probe tagged get here
  // with cache_populate set, so uncacheable flags never leak entries in.
  if (cache_ != nullptr && req.cache_populate && cacheable_reply) {
    cache_->Insert(static_cast<uint16_t>(req.header.type), req.cache_epoch,
                   req.payload.data() + req.body_offset,
                   req.payload.size() - req.body_offset, extra_flags, tail);
  }

  ReplyFrame frame;
  frame.head.reserve(protocol::kFramePrefixBytes +
                     protocol::kMessageHeaderBytes);
  WireWriter hw(&frame.head);
  hw.PutU32(protocol::kFrameMagic);
  hw.PutU32(static_cast<uint32_t>(payload.size()));
  hw.PutU32(Crc32c(payload.data(), payload.size()));
  hw.PutRaw(payload.data(), protocol::kMessageHeaderBytes);
  frame.tail = std::move(tail);
  EnqueueReply(req.conn, std::move(frame), req.admitted);
}

void QueryServer::WriteErrorReply(const PendingRequest& req,
                                  const Status& status,
                                  uint32_t extra_flags) {
  WriteReply(req, status, extra_flags, /*cacheable_reply=*/false,
             [](WireWriter*) {});
}

protocol::ServerStatsSnapshot QueryServer::Stats() const {
  // One consistent (generation, baseline) pair: Reload re-baselines
  // pool_at_start_ when it swaps the dataset, under the same mutex.
  std::shared_ptr<const ServedDataset> dataset;
  CounterSnapshot pool_at_start;
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    dataset = dataset_;
    pool_at_start = pool_at_start_;
  }

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

  const CounterSnapshot::Delta delta =
      dataset->pool()->Delta(pool_at_start);
  s.pool_logical_reads = delta.logical_reads;
  s.pool_physical_reads = delta.physical_reads;

  if (cache_ != nullptr) {
    const ResponseCache::StatsSnapshot c = cache_->Stats();
    s.cache_hits = c.hits;
    s.cache_misses = c.misses;
    s.cache_insertions = c.insertions;
    s.cache_evictions = c.evictions;
    s.cache_bytes = c.bytes;
    s.cache_entries = c.entries;
  }
  s.dataset_epoch = dataset->epoch();

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
  return s;
}

// --- drain / shutdown --------------------------------------------------------

void QueryServer::RequestDrain() {
  State expected = State::kRunning;
  if (state_.compare_exchange_strong(expected, State::kDraining)) {
    // Wakes loop 0 through the (registered) listener fd; the accept
    // handler sees the drained state and deregisters it.
    listener_.Shutdown();
  }
}

void QueryServer::ShutdownLoopTask(IoLoop* io) {
  io->shutting_down = true;
  if (io == loops_[0].get() && listener_registered_) {
    io->loop.Remove(listener_.fd());
    listener_registered_ = false;
  }
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

void QueryServer::CheckLoopDrained(IoLoop* io) {
  if (!io->shutting_down || io->stop_requested) return;
  bool pending = false;
  for (const auto& conn : io->conns) {
    if (conn->bsock.has_pending_write()) {
      pending = true;
      break;
    }
  }
  if (!pending) {
    io->stop_requested = true;
    if (io->shutdown_timer != 0) {
      io->loop.CancelTimer(io->shutdown_timer);
      io->shutdown_timer = 0;
    }
    std::vector<std::shared_ptr<Conn>> conns = io->conns;
    for (auto& conn : conns) CloseConn(conn);
    io->loop.Stop();
  } else if (io->shutdown_timer == 0) {
    // Bounded grace for peers that stopped reading: after it, their
    // replies are forfeit and the loop stops regardless.
    io->shutdown_timer = io->loop.AddTimer(kDrainFlushGraceMs, [this, io] {
      io->shutdown_timer = 0;
      io->stop_requested = true;
      std::vector<std::shared_ptr<Conn>> conns = io->conns;
      for (auto& conn : conns) CloseConn(conn);
      io->loop.Stop();
    });
  }
}

void QueryServer::Shutdown() {
  if (!started_) return;
  RequestDrain();

  // Complete every admitted request before tearing anything down — the
  // graceful-drain contract.
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  if (worker_runner_.joinable()) worker_runner_.join();

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
