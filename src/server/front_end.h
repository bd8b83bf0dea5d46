#ifndef MDS_SERVER_FRONT_END_H_
#define MDS_SERVER_FRONT_END_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <vector>

#include "common/histogram.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/slab_pool.h"
#include "common/socket.h"
#include "common/status.h"
#include "server/protocol.h"
#include "server/wire.h"

namespace mds {

/// The wire front end shared by mdsd (QueryServer) and mdsc (Coordinator):
/// everything about serving the protocol that does not depend on what
/// answers the queries.
///
/// Threading model (DESIGN.md "Serving layer"):
///  - `io_threads` reactor threads, each running an epoll EventLoop; loop 0
///    owns the non-blocking listener, and every connection lives on exactly
///    one loop (BufferedSocket, idle timer, write queue). Thread count is
///    independent of connection count — thousands of idle connections cost
///    table entries, not stacks.
///  - the I/O thread parses and CRC-checks frames in place; health/stats
///    are answered inline (they must work while the server is saturated),
///    the backend's Probe may answer a request inline (mdsd: response-cache
///    hits); everything else passes admission control and is handed to a
///    worker as its own job — pipelined requests from one connection
///    execute independently and reply in completion order;
///  - a queue-fed ThreadPool of at most `workers` threads (beyond
///    `workers_at_start`, started on demand) runs Backend::Execute on each
///    request; replies are posted back to the connection's loop, which
///    flushes them with writev (no worker ever blocks on a slow client).
///
/// Admission control: at most max_in_flight requests are in the system;
/// beyond that, arrivals get an immediate retryable kUnavailable. A request
/// whose deadline expires while queued is answered kUnavailable without
/// reaching the backend.
///
/// Graceful drain: RequestDrain() stops accepting connections and rejects
/// new worker-bound requests (kUnavailable + kFlagDraining) while every
/// admitted request still executes and replies. Shutdown() drains, waits
/// for in-flight work, flushes pending replies, then joins all threads.
class WireFrontEnd {
 public:
  struct Options {
    uint16_t port = 0;
    /// Worker-pool cap; 0 = 1. `workers_at_start` of them start with the
    /// front end, the rest on demand.
    unsigned workers = 1;
    unsigned workers_at_start = 0;
    size_t max_in_flight = 64;
    size_t max_connections = 256;
    /// Applied to requests that carry no deadline; 0 = none.
    uint32_t default_deadline_ms = 0;
    uint32_t idle_timeout_ms = 30000;
    unsigned io_threads = 1;
    /// Treat the first N accepts as EMFILE failures (test hook).
    size_t debug_fail_first_accepts = 0;
  };

  /// One connection's reactor state (front-end private).
  struct Conn;

  /// One decoded request frame.
  struct Request {
    std::shared_ptr<Conn> conn;
    protocol::MessageHeader header;
    std::vector<uint8_t> payload;  // full payload; body starts at body_offset
    size_t body_offset = 0;
    uint32_t deadline_ms = 0;  // effective (request or default)
    std::chrono::steady_clock::time_point arrival;
    /// True once the request passed admission control.
    bool admitted = false;
    /// Backend state set by Backend::Probe on the loop thread and read by
    /// Backend::Execute on the worker; the front end only carries it.
    /// mdsd pins the dataset generation the request executes against and,
    /// on a response-cache miss, the epoch its reply populates under.
    std::shared_ptr<const void> pinned;
    bool cache_populate = false;
    uint64_t cache_epoch = 0;

    const uint8_t* body() const { return payload.data() + body_offset; }
    size_t body_size() const { return payload.size() - body_offset; }
  };

  /// One encoded reply, split for scatter-gather delivery: `head` is the
  /// frame prefix plus the message header (per-request: it carries the
  /// requester's id), `tail` is the refcounted payload after the header
  /// (status + body), which mdsd shares with its response cache. Queued
  /// as two write buffers, gathered into one writev.
  struct ReplyFrame {
    std::vector<uint8_t> head;
    SlabPool::Slice tail;
    size_t size() const { return head.size() + tail.size(); }
  };

  /// What answers the queries.
  class Backend {
   public:
    /// Loop thread, for each worker-bound request before admission. May
    /// pin state on `req`, or answer it by filling `*reply` and returning
    /// true — such a reply bypasses admission and the worker queue.
    virtual bool Probe(Request* /*req*/, ReplyFrame* /*reply*/) {
      return false;
    }
    /// Worker thread: executes one admitted, unexpired request. It must be
    /// answered with Finish followed by Send (or Reply / ReplyError).
    virtual void Execute(Request* req) = 0;
    /// Loop thread: served_rows, dim and bounds of a Health reply.
    virtual void FillHealth(protocol::HealthReply* reply) = 0;
    /// Any thread: adds backend fields and tails to a stats snapshot.
    virtual void AddStats(protocol::ServerStatsSnapshot* stats) const = 0;

   protected:
    ~Backend() = default;
  };

  /// `backend` must outlive the front end.
  WireFrontEnd(Backend* backend, const Options& options);
  ~WireFrontEnd();

  WireFrontEnd(const WireFrontEnd&) = delete;
  WireFrontEnd& operator=(const WireFrontEnd&) = delete;

  /// Binds the port and starts the I/O threads and the first
  /// `workers_at_start` workers.
  Status Start();
  uint16_t port() const { return port_; }
  bool draining() const { return state_.load() != State::kRunning; }
  void RequestDrain();
  void Shutdown();

  /// Front-end counters plus Backend::AddStats.
  protocol::ServerStatsSnapshot Stats() const;

  // --- reply path (worker threads) -----------------------------------------

  /// Records an admitted request's latency and outcome and releases its
  /// admission slot. Call before sending its reply, so a client that has
  /// seen the reply sees it in a later stats request.
  void Finish(const Request& req, const Status& status);

  /// Encodes a reply: status, then (when OK) the body `encode_body` writes.
  template <typename EncodeBody>
  ReplyFrame EncodeReply(const Request& req, const Status& status,
                         uint32_t extra_flags, EncodeBody&& encode_body) {
    std::vector<uint8_t> payload;
    WireWriter w(&payload);
    protocol::MessageHeader header;
    header.type = req.header.type;
    header.flags = protocol::kFlagReply | extra_flags;
    header.request_id = req.header.request_id;
    protocol::EncodeMessageHeader(header, &w);
    protocol::EncodeStatus(status, &w);
    if (status.ok()) encode_body(&w);
    return SealReply(payload);
  }

  /// Routes an encoded reply to the request's connection loop.
  void Send(const Request& req, ReplyFrame frame);

  template <typename EncodeBody>
  void Reply(const Request& req, const Status& status, uint32_t extra_flags,
             EncodeBody&& encode_body) {
    Send(req, EncodeReply(req, status, extra_flags, encode_body));
  }
  void ReplyError(const Request& req, const Status& status,
                  uint32_t extra_flags);

 private:
  enum class State { kRunning, kDraining, kStopped };
  struct IoLoop;

  /// Frames an encoded payload: its tail moves into a slab slice (the one
  /// post-encode payload copy), the head gets the prefix and CRC.
  ReplyFrame SealReply(const std::vector<uint8_t>& payload);

  // --- reactor path (loop threads) -----------------------------------------
  void OnAcceptReady();
  void BackOffAccept();
  void AdoptConnection(Socket sock);
  void RegisterConnection(IoLoop* home, std::shared_ptr<Conn> conn);
  void OnConnEvent(const std::shared_ptr<Conn>& conn, uint32_t ready);
  /// Parses complete frames out of the connection's read buffer,
  /// dispatching each. Returns false when reading stopped (protocol
  /// violation).
  bool ProcessFrames(const std::shared_ptr<Conn>& conn);
  /// Dispatches one decoded frame payload. Returns false when the
  /// connection must stop reading (header violation).
  bool HandleFrame(const std::shared_ptr<Conn>& conn,
                   std::vector<uint8_t> payload);
  void HandleHealth(const Request& req);
  void HandleStats(const Request& req);
  void ArmIdleTimer(const std::shared_ptr<Conn>& conn);
  /// Flushes the connection's write queue, managing EPOLLOUT interest and
  /// the write-stall timer; closes on error.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  /// Logical close: no more frames are read, but the socket stays open
  /// until the replies of already-admitted requests have flushed.
  void StopReading(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  /// Loop-thread delivery: queues head then tail back to back (one writev
  /// gathers both; no payload copy).
  void DeliverReply(const std::shared_ptr<Conn>& conn, ReplyFrame frame,
                    bool admitted);
  void EnqueueReply(const std::shared_ptr<Conn>& conn, ReplyFrame frame,
                    bool admitted);
  /// Records a reply's latency and outcome in the per-type stats.
  void Record(const Request& req, const Status& status);
  void UnregisterListener();  // loop-0 thread
  void ShutdownLoopTask(IoLoop* io);
  void CheckLoopDrained(IoLoop* io);
  /// Closes every connection of `io` and stops its loop.
  void StopLoop(IoLoop* io);

  // --- worker path ---------------------------------------------------------
  /// Answers an expired request, or hands it to Backend::Execute.
  void Run(Request* req);
  bool Expired(const Request& req) const;

  Backend* const backend_;
  Options options_;
  uint16_t port_ = 0;

  TcpListener listener_;
  size_t next_loop_ = 0;  // loop-0 thread only (round-robin assignment)

  std::atomic<State> state_{State::kStopped};
  bool started_ = false;

  // Accept-backoff state (loop-0 thread only; accept_rng_ jitters the
  // re-arm interval and is therefore fine unguarded).
  bool listener_registered_ = false;
  uint64_t accept_backoff_ms_ = 0;
  size_t debug_fail_remaining_ = 0;
  Rng accept_rng_{std::random_device{}()};

  // Admission control: queued + executing requests.
  std::mutex admit_mu_;
  std::condition_variable drained_cv_;  // Shutdown waits for in-flight == 0
  size_t in_flight_ = 0;                // guarded by admit_mu_

  std::atomic<size_t> open_connections_{0};

  // Counters (relaxed atomics; aggregated into ServerStatsSnapshot).
  struct Counters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> accept_errors{0};
    std::atomic<uint64_t> protocol_errors{0};
    std::atomic<uint64_t> requests_total{0};
    std::atomic<uint64_t> replies_ok{0};
    std::atomic<uint64_t> replies_error{0};
    std::atomic<uint64_t> rejected_overload{0};
    std::atomic<uint64_t> rejected_draining{0};
    std::atomic<uint64_t> deadline_timeouts{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> in_flight_peak{0};
    /// Post-encode payload memcpys on the reply path: one per encoded
    /// reply when it moves into a slab slice, zero per inline Probe reply
    /// (mdsd cache hit). The zero-copy regression gauge.
    std::atomic<uint64_t> reply_tail_copies{0};
    std::atomic<uint64_t> type_errors[protocol::kNumRequestTypes] = {};
  };
  mutable Counters counters_;
  Histogram latency_us_[protocol::kNumRequestTypes];

  // The threads, declared after everything they touch.
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::unique_ptr<ThreadPool> workers_;
};

}  // namespace mds

#endif  // MDS_SERVER_FRONT_END_H_
