#ifndef MDS_SERVER_COORDINATOR_H_
#define MDS_SERVER_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
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
  /// TCP handshake bound for new backend connections; 0 = none. The
  /// reply wait after the handshake is the leg deadline.
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
  /// Slack on a backend leg's reply wait: the leg expires this long after
  /// its deadline share, so a blackholed backend costs ~budget +
  /// leg_slack_ms.
  uint32_t leg_slack_ms = 25;
  /// Seed for backoff jitter; 0 = seeded from entropy. Fixed seeds make
  /// chaos-campaign runs reproducible.
  uint64_t jitter_seed = 0;
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
/// Hedging: while a shard's primary attempt is outstanding, the scatter
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
/// blocked one. That worker runs all of the request's legs itself: it
/// writes each leg's frame on a pooled (or freshly, non-blockingly
/// connected) backend connection and waits on every outstanding attempt
/// in one poll(2) whose timeout is the nearest hedge time or leg
/// deadline, so one request's shards proceed in parallel and no attempt
/// (a hung handshake, a reply that arrives in part) delays another. Hedges,
/// failovers and expiries are handled in that same loop, and a winning
/// attempt closes the loser's connection on the spot. The worker then
/// posts the merged reply back to the connection's loop. mdsc therefore
/// runs one I/O thread plus one worker per in-flight request. Pipelined
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

  /// One decoded client query request, re-issued to the shards.
  struct SubRequest {
    protocol::MessageType type = protocol::MessageType::kPointCount;
    /// The client's request body, forwarded as is on box-like legs (a kNN
    /// leg re-encodes it: per-shard k varies).
    std::vector<uint8_t> body;
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

  /// One walk over a shard's replicas in preference order — the primary
  /// from replica 0, a hedge from replica 1 — with at most one attempt in
  /// flight; a retryable failure moves it to the next admitted replica
  /// while the deadline and retry budgets allow.
  struct Walk {
    int pass = 0;       ///< 0 honors the breakers, 1 tries every replica
    size_t tried = 0;   ///< replicas visited in this pass
    bool attempted = false;
    bool admitted_any = false;
    Status last = Status::Unavailable("no replica attempted");
    /// The attempt in flight; empty once the walk has ended.
    std::optional<QueryClient> conn;
    Replica* replica = nullptr;
    bool probe = false;
    QueryOptions options;  ///< the leg's deadline share
    std::chrono::steady_clock::time_point start;     ///< request written
    std::chrono::steady_clock::time_point deadline;  ///< leg expires
    /// A new connection's handshake expires (max = no connect bound);
    /// only while the connection is still connecting.
    std::chrono::steady_clock::time_point connect_deadline;
  };

  /// Per-shard slot of one request's scatter.
  struct ShardCall {
    Status status = Status::OK();
    SubReply reply;
    bool done = false;    ///< a success landed, or every walk failed
    bool hedged = false;  ///< the hedge walk has been started
    bool hedge_possible = false;
    std::chrono::steady_clock::time_point hedge_at;
    Walk walks[2];  ///< [0] primary, [1] hedge
  };

  /// One client request's legs, owned by the worker that runs them.
  struct Scatter {
    const SubRequest& req;
    std::vector<uint32_t> shard_k;  ///< per-shard kNN k
    std::vector<ShardCall> calls;
  };

  // --- WireFrontEnd::Backend -----------------------------------------------
  void Execute(Request* req) override;
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

  /// Starts the primary walk of every shard in `shards` and runs the
  /// poll loop until each of their calls is done, firing hedges as their
  /// delays expire.
  void RunLegs(const std::vector<size_t>& shards, Scatter* scatter);

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

  /// Start()'s probe of every shard: served rows, dimension and bounds
  /// from the first replica of each shard that answers Health.
  Status ProbeShards(ShardBounds* bounds);

  /// Walk steps. StartWalk begins a primary (counted as a shard request)
  /// or hedge walk; AdvanceWalk starts the next admitted replica's attempt
  /// or ends the walk; AttemptDone takes an attempt's outcome; EndWalk
  /// completes the call once no walk of it has an attempt in flight.
  void StartWalk(Scatter* scatter, size_t shard_index, bool hedge);
  void AdvanceWalk(Scatter* scatter, size_t shard_index, Walk* walk);
  void AttemptDone(Scatter* scatter, size_t shard_index, Walk* walk,
                   Status status, SubReply* reply);
  void EndWalk(Scatter* scatter, size_t shard_index, Walk* walk);
  /// Counts a failed attempt against its replica; false = a semantic
  /// error every replica would repeat, so the walk stops.
  bool RecordFailure(Shard* shard, Replica* replica, const Status& status);
  /// Acquires a connection to `replica` and sends the leg's frame on it.
  Status StartAttempt(const Scatter& scatter, size_t shard_index, Walk* walk);

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

  /// A pooled connection, else a non-blocking connect in progress.
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

  /// Backoff jitter source (common/rng.h is not thread-safe; workers
  /// mark failures concurrently).
  mutable std::mutex rng_mu_;
  mutable Rng rng_;

  // The front end's threads, declared after everything they touch.
  WireFrontEnd front_;
};

}  // namespace mds

#endif  // MDS_SERVER_COORDINATOR_H_
