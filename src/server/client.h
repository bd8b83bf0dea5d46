#ifndef MDS_SERVER_CLIENT_H_
#define MDS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/buffered_socket.h"
#include "common/result.h"
#include "common/socket.h"
#include "geom/box.h"
#include "server/protocol.h"

namespace mds {

/// Synchronous client for the mdsd wire protocol — the library tests,
/// benches and examples speak to the server exclusively through this
/// class, so the protocol has exactly two implementations (server,
/// client) and one codec (protocol.h).
///
/// Thread safety: thread-compatible. One QueryClient owns one connection
/// and one in-flight request at a time; use one client per thread (the
/// throughput bench's closed-loop workers do exactly that).
/// Per-request client options (namespace scope so `= {}` default
/// arguments work; a nested class cannot use its default member
/// initializers in the enclosing class's default arguments).
struct QueryOptions {
  /// Server-side deadline for the request, and the client-side I/O
  /// bound for the exchange (plus 2 s slack). 0 = none.
  uint32_t deadline_ms = 0;
  /// Permit a degraded (partial) answer over checksum-failed pages.
  bool skip_corrupt = false;
  /// Planner hints (mutually exclusive; force_full_scan wins).
  bool force_full_scan = false;
  bool force_index = false;
  /// Against mdsc: accept a merged reply from only the surviving shards
  /// (kFlagAllowPartial on the wire) instead of a blanket failure when a
  /// shard is exhausted. Plain mdsd ignores the flag.
  bool allow_partial = false;
};

class QueryClient {
 public:
  using Options = QueryOptions;

  /// Result of a box/sample query, including the server-side I/O
  /// accounting and degradation marker.
  struct QueryResult {
    uint64_t row_count = 0;
    std::vector<int64_t> objids;
    uint64_t rows_scanned = 0;
    uint64_t pages_fetched = 0;
    uint64_t pages_read = 0;
    uint64_t pages_skipped = 0;
    bool degraded = false;
    /// True when a coordinator answered from a strict subset of its
    /// shards (kFlagPartial); counts cover only shards_mask.
    bool partial = false;
    uint32_t shards_answered = 0;
    uint32_t shards_total = 0;  ///< 0 = reply came from a single mdsd
    uint64_t shards_mask = 0;
    std::string chosen_path;
  };

  struct KnnResult {
    std::vector<protocol::WireNeighbor> neighbors;  // ascending distance
    bool degraded = false;
    /// True when one or more shards did not answer: the neighbor list is
    /// exact over shards_mask but possibly non-global.
    bool partial = false;
    uint32_t shards_answered = 0;
    uint32_t shards_total = 0;  ///< 0 = reply came from a single mdsd
    uint64_t shards_mask = 0;
  };

  struct HealthResult {
    bool draining = false;
    uint64_t served_rows = 0;
    uint32_t dim = 0;
    /// Tight box around every served row; dim 0 when the server did not
    /// report one (an older mdsd).
    Box bounds;
  };

  /// Connects to an mdsd instance (numeric IPv4 host).
  static Result<QueryClient> Connect(const std::string& host, uint16_t port,
                                     uint64_t connect_timeout_ms = 5000);

  QueryClient(QueryClient&&) = default;
  QueryClient& operator=(QueryClient&&) = default;

  /// Number of stored rows inside `box` (no row payload on the wire).
  Result<uint64_t> PointCount(const Box& box, const Options& options = {});

  /// PointCount with the full reply (row_count plus the I/O accounting and
  /// chosen_path a kBoxQuery reply carries; objids stays empty). The mdsc
  /// coordinator uses this so merged point-count replies keep the same
  /// instrumentation a single server reports.
  Result<QueryResult> PointCountDetailed(const Box& box,
                                         const Options& options = {});

  /// Objids of stored rows inside `box`; `limit` != 0 caps the reply to
  /// the first `limit` matches in clustered row order.
  Result<QueryResult> BoxQuery(const Box& box, uint64_t limit = 0,
                               const Options& options = {});

  /// Exact k nearest stored points to `point`.
  Result<KnnResult> Knn(const std::vector<double>& point, uint32_t k,
                        const Options& options = {});

  /// TABLESAMPLE SYSTEM(percent) + TOP(n) inside `box`, page sampling
  /// seeded by `seed` (same seed, same sample).
  Result<QueryResult> TableSample(const Box& box, double percent, uint64_t n,
                                  uint64_t seed, const Options& options = {});

  Result<HealthResult> Health(const Options& options = {});
  Result<protocol::ServerStatsSnapshot> ServerStats(
      const Options& options = {});

  /// Admin: asks the server to load a new dataset generation and swap it
  /// in (kReload). `path` names a dataset file on the SERVER's
  /// filesystem; empty asks the server to reload its current source.
  /// Loading runs on a server worker, so pass a deadline generous enough
  /// to cover the build (or 0 for the client's long default bound).
  Result<protocol::ReloadReply> Reload(const std::string& path,
                                       const Options& options = {});

  /// Pipelined batch exchanges: all k request frames are written before
  /// any reply is read, so the batch costs one round trip instead of k.
  /// Replies are correlated by request id (the server may interleave
  /// them), and each slot of the returned vector carries that request's
  /// own result — per-request errors (invalid argument, overload
  /// rejection) fail only their slot. A transport failure (timeout,
  /// desynchronized stream, connection loss) closes the connection and
  /// fails every slot that has no reply yet.
  ///
  /// The returned vector always has boxes.size() entries, slot i matching
  /// boxes[i].
  std::vector<Result<uint64_t>> PointCountPipeline(
      const std::vector<Box>& boxes, const Options& options = {});
  std::vector<Result<QueryResult>> BoxQueryPipeline(
      const std::vector<Box>& boxes, uint64_t limit = 0,
      const Options& options = {});

  /// True while the connection has not failed. A failed exchange closes
  /// the connection; callers reconnect with Connect().
  bool connected() const { return bsock_.valid(); }

  // --- Incremental exchange --------------------------------------------
  //
  // The primitive every exchange above runs to completion on one
  // connection, exposed so one thread can drive many connections from its
  // own poll(2) set (the mdsc coordinator's shard legs): Send a request,
  // then Progress the connection on each poll readiness until a reply is
  // ready, or Expire it when the caller's deadline runs out.

  /// Starts a non-blocking connect and returns at once; the handshake
  /// completes inside Progress() once poll reports the socket writable.
  static Result<QueryClient> Open(const std::string& host, uint16_t port);

  /// One reply frame that matched an outstanding request.
  struct Reply {
    bool ready = false;
    protocol::MessageHeader header;
    Status status;  ///< the server's status for the request
    std::vector<uint8_t> payload;
    size_t body_offset = 0;  ///< where the body after the status starts

    WireReader body() const {
      return WireReader(payload.data() + body_offset,
                        payload.size() - body_offset);
    }
  };

  /// Frames one request (header, deadline prefix, body) and queues it for
  /// writing; returns the request id its reply will carry. Nothing is
  /// written until the next Progress().
  Result<uint64_t> Send(protocol::MessageType type, const Options& options,
                        const std::vector<uint8_t>& body);

  /// Advances the connection without blocking, given the revents poll
  /// reported for fd() (0 = none): finishes a pending connect, writes
  /// queued request bytes, reads reply bytes, and sets reply->ready once
  /// a whole reply frame for an outstanding request has arrived. A
  /// transport or framing failure closes the connection and returns its
  /// status (a damaged reply frame is a retryable kIOError).
  Status Progress(short revents, Reply* reply);

  /// The events to poll fd() for: POLLOUT while the connect or a request
  /// write is pending, else POLLIN.
  short PollEvents() const;
  int fd() const { return bsock_.fd(); }
  /// True until the connect started by Open() has completed.
  bool connecting() const { return connecting_; }

  /// The caller's deadline ran out with a reply still due: closes the
  /// connection and returns kDeadlineExceeded when `options` carried a
  /// deadline (the caller set the bound), else kUnavailable.
  Status Expire(const Options& options);

 private:
  explicit QueryClient(Socket sock) : bsock_(std::move(sock)) {}

  /// Send + Await: one request/reply exchange bounded by the options'
  /// deadline plus slack. Returns the server's status for the request.
  Status RoundTrip(protocol::MessageType type, const Options& options,
                   const std::vector<uint8_t>& body, Reply* reply);

  /// Progress + poll until a reply is ready or `deadline` runs out.
  Status Await(const Options& options, const IoDeadline& deadline,
               Reply* reply);

  /// Closes the connection after a transport or framing failure.
  Status Fail(Status st);

  /// Shared body of PointCount / BoxQuery (same request shape, different
  /// message type).
  Result<QueryResult> BoxQueryInternal(const Box& box, uint64_t limit,
                                       const Options& options,
                                       protocol::MessageType type);

  /// Shared body of the pipelined exchanges: sends every request, then
  /// awaits and correlates the replies. Returns one decoded QueryReply
  /// result per request, in request order.
  std::vector<Result<QueryResult>> PipelineInternal(
      const std::vector<Box>& boxes, uint64_t limit, const Options& options,
      protocol::MessageType type);

  static uint32_t RequestFlags(const Options& options);

  BufferedSocket bsock_;
  bool connecting_ = false;
  /// The peer closed; frames already buffered are still delivered.
  bool eof_ = false;
  uint64_t next_request_id_ = 1;
  /// Requests sent whose replies are still due: (request id, type).
  std::vector<std::pair<uint64_t, protocol::MessageType>> outstanding_;
};

}  // namespace mds

#endif  // MDS_SERVER_CLIENT_H_
