#ifndef MDS_SERVER_SERVER_H_
#define MDS_SERVER_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "server/dataset.h"
#include "server/front_end.h"
#include "server/protocol.h"
#include "server/response_cache.h"

namespace mds {

/// mdsd server tuning knobs.
struct ServerConfig {
  /// Loopback TCP port; 0 picks an ephemeral port (see QueryServer::port).
  uint16_t port = 0;
  /// Query worker threads; 0 = QueryThreads() (MDS_QUERY_THREADS).
  unsigned num_workers = 0;
  /// Admission-control cap: maximum requests admitted (queued + executing)
  /// at once. Arrivals beyond the cap are rejected immediately with a
  /// retryable kUnavailable reply — the server sheds load, it never
  /// buffers unboundedly or hangs.
  size_t max_in_flight = 64;
  /// Connections beyond this are accepted and closed immediately.
  size_t max_connections = 256;
  /// Applied to requests that carry no deadline; 0 = none.
  uint32_t default_deadline_ms = 0;
  /// Per-frame read deadline on every connection: a client that stalls
  /// mid-frame (slow-loris) or goes silent longer than this is closed.
  /// 0 = no timeout.
  uint32_t idle_timeout_ms = 30000;
  /// Response-cache capacity in bytes; 0 disables caching (the library
  /// default, so embedded tests see every request execute). The mdsd
  /// binary enables it by default (--cache-bytes / --no-cache).
  size_t cache_bytes = 0;
  /// Reactor I/O threads (event loops); connections are spread round-robin
  /// across them. 0 = 1. One loop comfortably serves thousands of
  /// connections; more loops only help when frame parsing itself saturates
  /// a core.
  unsigned io_threads = 1;
  /// Upper bound on contiguous pipelined cache-miss query requests from
  /// one connection ganged into a single QueryEngine::ExecuteBatch call.
  /// 1 disables ganging (every request executes alone).
  size_t pipeline_batch_max = 64;
  /// Test hook: treat the first N accepted connections as if accept()
  /// had failed with EMFILE (close them, count accept_errors, back off).
  /// Exercises the fd-exhaustion path deterministically.
  size_t debug_fail_first_accepts = 0;
};

/// The mdsd query server: the shared wire front end (server/front_end.h —
/// reactor I/O, admission control, drain, worker pool, stats) over a local
/// engine backend.
///
/// Backend (DESIGN.md "Serving layer"):
///  - the loop-thread probe pins the served dataset generation on each
///    query request and answers response-cache hits inline (a hit re-heads
///    the memoized reply under the requester's id; zero payload copies);
///  - `num_workers` workers execute admitted batches through
///    QueryPlanner/AccessPath over the shared BufferPool — contiguous
///    pipelined cache misses (up to pipeline_batch_max) run through one
///    QueryEngine::ExecuteBatch call — and run kReload hot swaps;
///  - Health reports the served generation's rows, dimension and bounds;
///    stats add buffer-pool, response-cache and dataset-epoch fields.
///
/// Thread safety: Start/RequestDrain/Shutdown may be called from any
/// thread; Start exactly once per started epoch. Stats() is safe at any
/// time. SIGTERM handling is the binary's job (see mdsd_main.cc): it calls
/// Shutdown().
class QueryServer final : private WireFrontEnd::Backend {
 public:
  /// Serves `dataset` as the initial generation. The server holds the
  /// dataset as an RCU-style snapshot: every request captures the current
  /// shared_ptr at parse time and executes against it even if a Reload
  /// swaps the served generation mid-flight.
  QueryServer(std::shared_ptr<const ServedDataset> dataset,
              const ServerConfig& config);
  /// Legacy non-owning form: `dataset` must outlive the server and every
  /// in-flight request. Reload works only if a handler is set.
  QueryServer(const ServedDataset* dataset, const ServerConfig& config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds the port and starts the I/O and worker threads.
  Status Start();

  /// Bound port (valid after Start; the ephemeral port when config.port=0).
  uint16_t port() const { return front_.port(); }

  bool draining() const { return front_.draining(); }

  /// Stops admitting new work; in-flight requests keep executing. Safe to
  /// call more than once.
  void RequestDrain() { front_.RequestDrain(); }

  /// Full graceful stop: drain, complete in-flight requests, flush their
  /// replies, join all threads, close all connections. Idempotent.
  void Shutdown() { front_.Shutdown(); }

  /// Point-in-time server counters (the same snapshot a kStats request
  /// returns).
  protocol::ServerStatsSnapshot Stats() const { return front_.Stats(); }

  /// Produces the next dataset generation for a hot swap. `path` names a
  /// dataset file on this machine; empty means "reload the current
  /// source" (same file, or a rebuild of the same synthetic config — a
  /// no-op reload whose replies are byte-identical). The handler runs on
  /// a worker thread and may take seconds; it must not touch the server.
  using ReloadHandler =
      std::function<Result<std::shared_ptr<ServedDataset>>(
          const std::string& path)>;
  void SetReloadHandler(ReloadHandler handler);

  /// Hot-swaps the served dataset (kReload requests and SIGHUP both land
  /// here): runs the reload handler, validates the new generation against
  /// the live one (dimension and shard slice must match — the same
  /// refusal taxonomy as the mdsc startup probe), then publishes it:
  /// swap the snapshot pointer first, bump the (adopted) epoch second.
  /// That order means a request racing the swap can at worst populate the
  /// response cache with a still-correct old-generation reply under the
  /// old epoch key, where the bump strands it; the reverse order could
  /// cache an old reply under the new epoch, a persistent lie. In-flight
  /// requests finish on their captured snapshot; the old generation is
  /// freed when its last request completes. Reloads are serialized;
  /// queries are never blocked by the (slow) load, only by the brief
  /// pointer swap. Fails with FailedPrecondition when no handler is set
  /// or the new dataset is incompatible — the live dataset is untouched
  /// on every failure path.
  Result<protocol::ReloadReply> Reload(const std::string& path);

 private:
  using Request = WireFrontEnd::Request;
  using Batch = WireFrontEnd::Batch;

  // --- WireFrontEnd::Backend -----------------------------------------------
  /// Pins the served generation on `req` and, on a response-cache hit,
  /// builds the re-headed reply. A miss tags the request to populate the
  /// cache once its reply is final.
  bool Probe(Request* req, WireFrontEnd::ReplyFrame* reply) override;
  void Execute(Batch* batch) override;
  void FillHealth(protocol::HealthReply* reply) override;
  void AddStats(protocol::ServerStatsSnapshot* stats) const override;

  /// The generation Probe pinned on `req`.
  static const ServedDataset& Dataset(const Request& req) {
    return *static_cast<const ServedDataset*>(req.pinned.get());
  }

  /// The box-like branch of Execute (planner execution + reply).
  void ExecuteAndReplyBoxLike(Request* req);
  /// Executes a gang through one QueryEngine::ExecuteBatch call. Any slot
  /// that cannot take the batch fast path (or fails on it) is re-run
  /// through the exact single-request path, so replies are byte-identical
  /// to sequential execution.
  void HandleBatch(Batch* batch);
  /// Executes one admitted kReload request (worker thread; the load may
  /// take seconds and must never run on an I/O thread).
  void HandleReload(Request* req);
  Status ExecuteBoxLike(const Request& req, protocol::QueryReply* out);
  Status ExecuteKnn(const Request& req, protocol::KnnReply* out);

  /// Records the request's outcome, encodes its reply (status + optional
  /// body encoded by `encode_body` when status is OK) and sends it. When
  /// `cacheable_reply` and the request was tagged for population, the
  /// encoded reply enters the response cache before it is sent.
  template <typename EncodeBody>
  void FinishAndReply(const Request& req, const Status& status,
                      uint32_t extra_flags, bool cacheable_reply,
                      EncodeBody&& encode_body);
  void FinishWithError(const Request& req, const Status& status);

  /// Consistent (dataset, epoch) pair under dataset_mu_.
  void SnapshotDataset(std::shared_ptr<const ServedDataset>* dataset,
                       uint64_t* epoch) const;

  /// The served generation. Guarded by dataset_mu_ together with
  /// pool_at_start_ (the I/O-delta baseline is per-generation); reads are
  /// a brief lock per request, the only writer is Reload's swap.
  mutable std::mutex dataset_mu_;
  std::shared_ptr<const ServedDataset> dataset_;
  ReloadHandler reload_handler_;  // guarded by dataset_mu_
  CounterSnapshot pool_at_start_;  // guarded by dataset_mu_ after Start
  /// Serializes whole reloads (load + validate + swap) without ever
  /// holding dataset_mu_ across the slow load.
  std::mutex reload_mu_;
  // Response cache (null when config.cache_bytes == 0). Probed on I/O
  // threads, populated on workers; thread-safe by construction.
  std::unique_ptr<ResponseCache> cache_;
  WireFrontEnd front_;
};

}  // namespace mds

#endif  // MDS_SERVER_SERVER_H_
