#ifndef MDS_SERVER_COORDINATOR_H_
#define MDS_SERVER_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/rng.h"
#include "geom/box.h"
#include "server/client.h"
#include "server/front_end.h"
#include "server/protocol.h"

namespace mds {

/// One backend mdsd endpoint (numeric IPv4 host).
struct BackendAddress {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Shard map: shards[i] is the ordered replica list of shard i. Replica 0
/// is preferred; later replicas are failover (and hedge) targets, so list
/// the nearest replica first. Shard i must serve the i-th of shard_count
/// kd-subtree slices of the same catalog — every replica of shard i runs
/// `mdsd --shard-index=i --shard-count=N` with identical --n and --seed.
struct ShardMap {
  std::vector<std::vector<BackendAddress>> shards;
};

/// Parses a shard-map string: shards are separated by ';' or newlines,
/// replicas of one shard by ','. Example ("2 shards x 2 replicas"):
///
///   127.0.0.1:7001,127.0.0.1:7101;127.0.0.1:7002,127.0.0.1:7102
///
/// The same grammar reads a shard-map file (one shard per line; blank
/// lines and '#' comment lines are skipped).
Result<ShardMap> ParseShardMap(const std::string& text);

/// mdsc tuning knobs.
struct CoordinatorConfig {
  /// Loopback TCP port; 0 picks an ephemeral port (Coordinator::port()).
  uint16_t port = 0;
  /// Connections beyond this are accepted and closed immediately.
  size_t max_connections = 256;
  /// Admission cap on concurrently coordinated client requests; beyond it
  /// requests are shed with a retryable kUnavailable, like mdsd.
  size_t max_in_flight = 256;
  /// Per-frame read deadline on client connections (slow-loris / idle
  /// close); 0 = none.
  uint32_t idle_timeout_ms = 30000;
  /// TCP connect bound for backend connections.
  uint64_t connect_timeout_ms = 2000;
  /// Deadline applied to backend sub-requests when the client request
  /// carries none: a wedged backend must not stall a fan-out forever —
  /// the bound is what lets failover and hedging act.
  uint32_t sub_deadline_ms = 10000;
  /// Fixed hedge delay in milliseconds; 0 = adaptive (a shard's observed
  /// p99 sub-request latency, once hedge_min_samples successes have been
  /// recorded — before that, no hedging). Hedging also requires the shard
  /// to have >= 2 replicas.
  uint32_t hedge_delay_ms = 0;
  uint64_t hedge_min_samples = 64;
  /// Base/cap of the per-replica breaker open interval: after the breaker
  /// opens (breaker_failure_threshold consecutive failures) the replica
  /// is skipped for an equal-jittered exponential interval derived from
  /// min(replica_backoff_ms * 2^(k-1), replica_backoff_max_ms). All
  /// replicas of a shard open => they are tried anyway (better a
  /// likely-failing attempt than certain failure).
  uint32_t replica_backoff_ms = 500;
  uint32_t replica_backoff_max_ms = 8000;
  /// Consecutive failures that open a replica's circuit breaker. While
  /// open the replica costs zero request-path attempts; when the jittered
  /// backoff expires, a single half-open probe attempt is admitted and
  /// its outcome closes or re-opens the breaker.
  uint32_t breaker_failure_threshold = 5;
  /// Token-bucket retry budget per shard: every primary attempt accrues
  /// retry_budget_ratio tokens (capped at retry_budget_cap) and every
  /// failover or hedge leg spends one. An unhealthy shard can therefore
  /// amplify traffic by at most ~ratio in steady state instead of
  /// replica-count-fold. The bucket starts full so cold-start failovers
  /// are never denied.
  double retry_budget_ratio = 0.1;
  uint32_t retry_budget_cap = 32;
  /// Client-side exchange slack for backend legs (QueryOptions::
  /// exchange_slack_ms): the leg's read deadline fires this soon after
  /// the leg's deadline share, so a blackholed backend costs ~budget+
  /// leg_slack_ms, not budget+2s.
  uint32_t leg_slack_ms = 25;
  /// Seed for backoff jitter; 0 = seeded from entropy. Fixed seeds make
  /// chaos-campaign runs reproducible.
  uint64_t jitter_seed = 0;
  /// Cap of the backend-leg thread pool shared by all in-flight fan-outs
  /// (threads start on demand); 0 = min(32, max(4, 2 * total replicas)).
  unsigned fanout_threads = 0;
  /// Idle pooled connections kept per replica.
  size_t pool_connections_per_replica = 8;
};

// --- merge helpers ---------------------------------------------------------
//
// Pure functions, unit-tested directly (coordinator_test).

/// k-way merge of per-shard kNN replies: each input list is sorted
/// ascending by (squared_distance, id) — the order a single mdsd returns —
/// and the output is the first min(k, total) of the merged union in that
/// same order. Ties across shards break by id, exactly like the engine's
/// Neighbor::operator<, so the merge of shard replies equals a single
/// server's reply bit for bit. Empty inputs are fine.
std::vector<protocol::WireNeighbor> MergeKnnNeighbors(
    const std::vector<std::vector<protocol::WireNeighbor>>& per_shard,
    uint32_t k);

/// Folds shard box-like replies in shard order: row_count and the I/O
/// counters sum, objids concatenate (shard order == global clustered
/// order, so concatenation is the single-server order), degraded ORs,
/// chosen_path collapses to the common value or "mixed". `limit` != 0
/// truncates the concatenated objids, matching the single server's TOP.
protocol::QueryReply MergeQueryReplies(
    std::vector<protocol::QueryReply> per_shard, uint64_t limit);

// ---------------------------------------------------------------------------

/// mdsc — the shard coordinator: a server-shaped front end that speaks the
/// exact mdsd wire protocol to its clients and fans every query out to N
/// backend shards (each possibly replicated) over pooled QueryClient
/// connections, merging the replies.
///
/// Routing and merge semantics (DESIGN.md "Scale-out"):
///  - kPointCount / kBoxQuery: scatter to every shard whose bounds meet the
///    box, unchanged (the limit included — each shard's contribution to a
///    TOP(limit) is at most limit rows); counts sum, objids concatenate in
///    shard order.
///  - kKnn: per-shard k_i = min(k, shard rows); replies k-way merge by
///    (squared_distance, id). k > total served rows is InvalidArgument,
///    exactly like a single server. Shards are visited nearest box first
///    (two phases, below).
///  - kTableSample: scatter like kPointCount, concatenate, truncate to n. Page
///    sampling is physical-layout-dependent, so the sampled rows match a
///    single server's distribution and determinism (same seed => same
///    reply through the same topology) but not its exact row set.
///  - kHealth / kStats: answered by the coordinator itself (Health's
///    bounds are the union of the shard bounds); stats carry per-shard
///    routing counters (ShardStatsEntry).
///  - kReload: broadcast to EVERY replica of EVERY shard (a fleet where
///    only some replicas swapped would answer the same query differently
///    depending on routing); all must succeed or the reload fails with
///    the first refusal. The merged reply carries the min old/new epochs
///    over the fleet and the summed per-shard served_rows.
///
/// Shard pruning: every shard is one kd subtree, and its mdsd reports the
/// subtree's tight bounding box on the Health (Start probe) and Reload
/// replies. A box-like request skips each shard whose box misses the query
/// box — the paper's §3.2 inside/outside/partial test, applied to shard
/// roots. A kNN request first queries the shard(s) at the least box
/// distance from the probe, then each remaining shard whose box distance
/// is <= the merged k-th squared distance (all remaining shards when the
/// first phase returned fewer than k neighbors or failed). A shard without
/// reported bounds is never pruned, nor is any shard for a request with a
/// planner hint (hinted replies are diagnostics of a real execution). A
/// pruned shard counts as answered in the reply's shard coverage and in
/// its ShardStatsEntry::pruned counter, not in requests.
///
/// Failover: replicas are tried in preference order; an attempt that
/// fails with a retryable transport-or-shed status (kUnavailable, kIOError,
/// kNotFound) or a leg deadline expiry moves to the next admitted replica
/// and counts one failover. Non-retryable backend errors (e.g.
/// InvalidArgument) return immediately. Every extra leg (failover or
/// hedge) spends a token from the shard's retry budget and must fit in
/// the request's remaining deadline budget; breaker_failure_threshold
/// consecutive failures open a replica's circuit breaker, after which it
/// costs one half-open probe per jittered backoff interval instead of
/// per-request timeouts. Requests carrying kFlagAllowPartial degrade to a
/// merged reply from the surviving shards (kFlagPartial + kFlagDegraded,
/// shard coverage on the wire) when a shard is exhausted.
///
/// Hedging: while a shard's primary attempt is outstanding, the fan-out
/// waits the hedge delay (fixed, or the shard's observed p99); on expiry
/// a second attempt starts on the next replica, and the first success
/// wins. Hedges fired/won are counted per shard.
///
/// Threading model: the coordinator is the shared wire front end
/// (server/front_end.h) over a scatter/merge backend. One reactor thread
/// owns every client connection — idle connections cost table entries,
/// not threads — and parses, admits and answers Health/Stats inline. Each
/// admitted request runs on a worker from a pool capped at max_in_flight
/// (threads start on demand), so an admitted fan-out never waits behind a
/// blocked one; the worker blocks in the scatter while the legs run on a
/// shared fan-out pool (so one request's shards proceed in parallel) and
/// posts the merged reply back to the connection's loop. Pipelined
/// requests on one connection execute concurrently and their replies may
/// arrive out of request order; clients correlate by request id. Graceful
/// drain mirrors mdsd because it is mdsd's: RequestDrain() sheds new query
/// requests with kUnavailable + kFlagDraining while admitted fan-outs
/// complete; Shutdown() drains, flushes their replies and joins.
class Coordinator final : private WireFrontEnd::Backend {
 public:
  Coordinator(const ShardMap& map, const CoordinatorConfig& config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Probes every shard (first reachable replica wins), validates that
  /// dimensions agree across shards, records each shard's bounds for
  /// pruning, binds the port and starts the front end. Fails if any shard
  /// has no reachable replica.
  Status Start();

  /// Bound port (valid after Start).
  uint16_t port() const { return front_.port(); }

  bool draining() const { return front_.draining(); }

  /// Stops accepting connections and sheds new query requests; admitted
  /// fan-outs complete. Safe to call more than once.
  void RequestDrain() { front_.RequestDrain(); }

  /// Full graceful stop. Idempotent.
  void Shutdown();

  /// The same snapshot a kStats request returns (front-end counters plus
  /// per-shard routing counters).
  protocol::ServerStatsSnapshot Stats() const { return front_.Stats(); }

  /// Total rows served across shards / their common dimension (valid
  /// after Start; served_rows can move when a kReload lands a new
  /// generation).
  uint64_t served_rows() const { return served_rows_.load(); }
  uint32_t dim() const { return dim_; }

 private:
  using Request = WireFrontEnd::Request;

  /// One backend replica: its address, a small pool of idle connections,
  /// and circuit-breaker state. The breaker is derived state:
  /// consecutive_failures < breaker_failure_threshold = closed;
  /// otherwise open until retry_at_ms, then half-open (one probe admitted
  /// via the `probing` flag until its outcome lands).
  struct Replica {
    BackendAddress addr;
    std::mutex mu;
    std::vector<QueryClient> idle;  // pooled connections, guarded by mu
    std::atomic<uint32_t> consecutive_failures{0};
    /// Steady-clock milliseconds before which an open breaker skips the
    /// replica (0 = never failed).
    std::atomic<int64_t> retry_at_ms{0};
    /// True while a half-open probe attempt is in flight.
    std::atomic<bool> probing{false};
  };

  /// One shard: its replicas plus routing counters and the retry token
  /// bucket (milli-tokens so a fractional accrual ratio stays integral).
  struct Shard {
    std::vector<std::unique_ptr<Replica>> replicas;
    /// From the Start() probe; re-stamped by a successful kReload
    /// broadcast (workers read it while queries validate k).
    std::atomic<uint64_t> served_rows{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> backend_errors{0};
    std::atomic<uint64_t> failovers{0};
    std::atomic<uint64_t> hedges_fired{0};
    std::atomic<uint64_t> hedges_won{0};
    std::atomic<uint64_t> retries_denied{0};
    std::atomic<uint64_t> breaker_short_circuits{0};
    std::atomic<uint64_t> pruned{0};
    std::atomic<int64_t> retry_budget_milli{0};  // filled by the ctor
    Histogram latency_us;  // successful sub-request round trips
  };

  /// One decoded client query request, in the shape sub-requests are
  /// re-issued in (per-shard kNN k varies, so shards cannot share one
  /// encoded body).
  struct SubRequest {
    protocol::MessageType type = protocol::MessageType::kPointCount;
    QueryOptions options;
    /// When the client frame was decoded — the zero point the deadline
    /// budget is decremented from before every leg.
    std::chrono::steady_clock::time_point arrival;
    /// The client's own deadline_ms (0 = none): the end-to-end budget.
    /// options.deadline_ms is recomputed per leg from what remains.
    uint32_t budget_ms = 0;
    /// Client sent kFlagAllowPartial: exhausted shards degrade the reply
    /// instead of failing it.
    bool allow_partial = false;
    std::vector<double> lo, hi;  // box-like
    uint64_t limit = 0;
    std::vector<double> point;  // kNN
    uint32_t k = 0;
    double percent = 1.0;  // sample
    uint64_t n = 1;
    uint64_t sample_seed = 0;
  };

  /// What one backend attempt returns.
  struct SubReply {
    protocol::QueryReply query;                     // box-like types
    std::vector<protocol::WireNeighbor> neighbors;  // kKnn
  };

  /// Per-shard slot of one fan-out: attempt jobs complete it under mu.
  struct ShardCall {
    Status status = Status::OK();
    SubReply reply;
    bool done = false;     ///< a success landed, or every attempt failed
    bool hedged = false;   ///< a hedge attempt has been launched
    int outstanding = 0;   ///< attempts still running
    std::chrono::steady_clock::time_point hedge_at;
    bool hedge_possible = false;
    /// Clients with an exchange in flight for this call, registered under
    /// Scatter::mu. Whichever attempt completes the call Abort()s the
    /// rest, so a losing hedge leg fails its read promptly instead of
    /// sitting on a connection with a stale correlated reply due.
    std::vector<QueryClient*> inflight;
  };

  /// One client request's scatter state, shared by the worker and
  /// the attempt jobs.
  struct Scatter {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<ShardCall> calls;
    size_t done_count = 0;
  };

  // --- WireFrontEnd::Backend -----------------------------------------------
  void Execute(WireFrontEnd::Batch* batch) override;
  void FillHealth(protocol::HealthReply* reply) override;
  void AddStats(protocol::ServerStatsSnapshot* stats) const override;

  /// Broadcasts a kReload to every replica of every shard; on success
  /// re-stamps the per-shard and total served_rows and the shard bounds
  /// (widened while the broadcast runs).
  void HandleReload(const Request& req);
  /// Decode, validate, scatter, merge, reply for one query request.
  void HandleQuery(const Request& req);

  /// Decodes and validates the request body into a SubRequest template
  /// (per-shard k is filled in at scatter time).
  Status DecodeSubRequest(const protocol::MessageHeader& header,
                          const uint8_t* body, size_t body_len,
                          uint32_t deadline_ms, SubRequest* out);

  /// Shard-coverage summary of one scatter, reported on the reply wire.
  struct ScatterOutcome {
    uint32_t answered = 0;
    uint32_t total = 0;
    uint64_t mask = 0;       ///< bit s set = shard s answered
    bool partial = false;    ///< answered < total and the reply is usable
  };

  /// Runs the scatter-gather for one validated request. On success the
  /// merged reply is in *merged / *neighbors (by type) and *outcome says
  /// which shards contributed (outcome->partial marks a degraded merge of
  /// the survivors, possible only when req.allow_partial).
  Status ScatterGather(const SubRequest& req, protocol::QueryReply* merged,
                       std::vector<protocol::WireNeighbor>* neighbors,
                       ScatterOutcome* outcome);

  /// Submits the primary attempt of every shard in `shards` (caller holds
  /// scatter->mu).
  void LaunchLegs(const std::vector<size_t>& shards,
                  const std::shared_ptr<const SubRequest>& req,
                  const std::vector<uint32_t>& shard_k,
                  const std::shared_ptr<Scatter>& scatter);
  /// Waits under `lock` until `expected` calls are done, firing hedges as
  /// their delays expire.
  void AwaitLegs(size_t expected, const std::shared_ptr<const SubRequest>& req,
                 const std::vector<uint32_t>& shard_k,
                 const std::shared_ptr<Scatter>& scatter,
                 std::unique_lock<std::mutex>* lock);

  /// Per-shard bounding boxes (dim 0 = not reported, never pruned),
  /// replaced as a whole so a worker reads one consistent set.
  using ShardBounds = std::vector<Box>;
  std::shared_ptr<const ShardBounds> LoadBounds() const {
    return bounds_.load(std::memory_order_acquire);
  }
  void PublishBounds(ShardBounds bounds) {
    bounds_.store(std::make_shared<const ShardBounds>(std::move(bounds)),
                  std::memory_order_release);
  }
  /// A backend's reported bounds, or unknown (dim 0) when they are not in
  /// the served dimension: queries are tested against them axis by axis.
  Box ServedBounds(Box reported) const {
    return reported.dim() == dim_ ? std::move(reported) : Box();
  }

  /// One attempt: walk the shard's replicas starting at replica_offset,
  /// failing over on retryable errors while the deadline and retry
  /// budgets allow, and complete the ShardCall. The request is shared
  /// because a losing hedge can outlive the client request's stack frame.
  void RunAttempt(size_t shard_index, size_t replica_offset,
                  std::shared_ptr<const SubRequest> req, uint32_t k_for_shard,
                  std::shared_ptr<Scatter> scatter, size_t call_index,
                  bool is_hedge);
  /// One replica exchange under `leg_options` (the per-leg deadline
  /// share). Returns the backend's status; *aborted reports that another
  /// attempt completed the call while this exchange ran — an aborted
  /// exchange's connection is never pooled and its outcome must not
  /// count against the replica.
  Status AttemptReplica(Shard* shard, Replica* replica, const SubRequest& req,
                        const QueryOptions& leg_options, uint32_t k_for_shard,
                        SubReply* out, Scatter* scatter, size_t call_index,
                        bool* aborted);

  /// Remaining end-to-end deadline budget for one more leg. False = the
  /// budget is spent (only possible when the request carried a deadline).
  bool LegDeadline(const SubRequest& req, uint32_t* leg_deadline_ms) const;

  /// Circuit-breaker admission for one replica.
  enum class Admit {
    kClosed,  ///< healthy: admit
    kProbe,   ///< half-open: admit one probe (caller must EndProbe)
    kSkip,    ///< open (or a probe is already in flight): skip
  };
  Admit AdmitReplica(Replica* replica);
  void EndProbe(Replica* replica) {
    replica->probing.store(false, std::memory_order_release);
  }

  /// Token-bucket retry budget: accrued per primary attempt, spent (one
  /// token) per failover or hedge leg.
  void AccrueRetryBudget(Shard* shard);
  bool SpendRetryToken(Shard* shard);

  Result<QueryClient> AcquireClient(Replica* replica);
  void ReleaseClient(Replica* replica, QueryClient client);
  void MarkReplicaFailure(Replica* replica);
  void MarkReplicaSuccess(Replica* replica);

  /// Hedge delay for a shard; returns false when hedging should not fire
  /// (single replica, or adaptive mode without enough samples).
  bool HedgeDelay(const Shard& shard, std::chrono::microseconds* delay) const;

  CoordinatorConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> served_rows_{0};
  uint32_t dim_ = 0;
  /// Written by Start() and by reload broadcasts (under reload_mu_).
  std::atomic<std::shared_ptr<const ShardBounds>> bounds_;
  /// Serializes whole-fleet reload broadcasts (mirrors QueryServer's
  /// per-server reload_mu_).
  std::mutex reload_mu_;
  bool started_ = false;

  /// Backend legs whose read deadline fired (slow-but-alive replicas);
  /// reported in deadline_timeouts next to the front end's queue expiries.
  std::atomic<uint64_t> leg_timeouts_{0};
  /// Replies answered from a strict subset of shards (kFlagPartial).
  std::atomic<uint64_t> partial_replies_{0};

  /// Backoff jitter source (common/rng.h is not thread-safe; attempts on
  /// many fan-out threads mark failures concurrently).
  mutable std::mutex rng_mu_;
  mutable Rng rng_;

  // The threads (legs, then the front end that submits them), declared
  // after everything they touch.
  std::unique_ptr<ThreadPool> fanout_;
  WireFrontEnd front_;
};

}  // namespace mds

#endif  // MDS_SERVER_COORDINATOR_H_
