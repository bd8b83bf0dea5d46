#ifndef MDS_SERVER_PROTOCOL_H_
#define MDS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/frame.h"
#include "common/result.h"
#include "common/socket.h"
#include "geom/box.h"
#include "server/wire.h"

namespace mds {

/// The mdsd wire protocol: length-prefixed CRC-framed little-endian binary
/// messages over TCP, one request/reply pair per frame exchange.
///
/// Frame layout (12-byte prefix + payload):
///
///   +--------+-------------+-------------+====================+
///   | magic  | payload_len | payload_crc |  payload bytes ... |
///   |  u32   |     u32     |  u32 CRC32C |   (payload_len)    |
///   +--------+-------------+-------------+====================+
///
/// The CRC (the storage layer's CRC32C, common/crc32c.h) covers exactly the
/// payload bytes, so a torn or bit-flipped frame is rejected before any
/// field of it is interpreted. The payload begins with a MessageHeader:
///
///   +---------+------+-------+------------+
///   | version | type | flags | request_id |
///   |   u16   | u16  |  u32  |    u64     |
///   +---------+------+-------+------------+
///
/// followed by the type-specific body (requests carry a deadline_ms field
/// first). Replies echo the request's type and request_id and set
/// kFlagReply; their body starts with a wire-encoded Status. Protocol
/// violations (bad magic, bad CRC, oversized length, unknown version,
/// truncated body) are not answerable — the server closes the connection.
namespace protocol {

// The frame prefix constants are common/frame.h's (shared with the chaos
// proxy); they are named here as part of the protocol.
using ::mds::kFrameMagic;
using ::mds::kFramePrefixBytes;
using ::mds::kMaxPayloadBytes;
inline constexpr uint16_t kProtocolVersion = 1;
/// Query dimensionality cap (matches RangeScanner::kMaxDim).
inline constexpr uint32_t kMaxDim = 16;

enum class MessageType : uint16_t {
  kHealth = 1,
  kStats = 2,
  kPointCount = 3,
  kBoxQuery = 4,
  kKnn = 5,
  kTableSample = 6,
  /// Admin: hot-swap the served dataset (additive, PR 9). Not counted in
  /// per-type stats arrays (kNumRequestTypes stays 6: the stats body
  /// encodes per_type as a fixed-length array, so growing it would break
  /// the wire for older decoders).
  kReload = 7,
};
inline constexpr size_t kNumRequestTypes = 6;
/// Index of a request type in per-type stats arrays, or kNumRequestTypes
/// for out-of-range values.
size_t TypeIndex(MessageType type);
const char* MessageTypeName(MessageType type);

// MessageHeader.flags bits.
inline constexpr uint32_t kFlagReply = 1u << 0;
/// Request: permit a degraded (partial) answer — checksum-failed pages are
/// skipped instead of failing the query (PR 3's skip-corrupt scan mode).
inline constexpr uint32_t kFlagSkipCorrupt = 1u << 1;
/// Request: planner hint — force the clustered full scan.
inline constexpr uint32_t kFlagHintFullScan = 1u << 2;
/// Request: planner hint — force the index path (error if infeasible).
inline constexpr uint32_t kFlagHintIndex = 1u << 3;
/// Reply: the result is degraded (see StorageQueryResult::degraded).
inline constexpr uint32_t kFlagDegraded = 1u << 4;
/// Reply: the server is draining; retry against another replica.
inline constexpr uint32_t kFlagDraining = 1u << 5;
/// Request: the caller accepts a partial answer from the mdsc coordinator
/// when a shard is exhausted (retry budget spent, breaker open, or the
/// deadline cannot cover another attempt) — merged results from the
/// surviving shards instead of a blanket failure. A plain mdsd ignores it.
inline constexpr uint32_t kFlagAllowPartial = 1u << 6;
/// Reply: one or more shards did not contribute (set together with
/// kFlagDegraded; see the shard-coverage tail on QueryReply/KnnReply).
inline constexpr uint32_t kFlagPartial = 1u << 7;

struct MessageHeader {
  uint16_t version = kProtocolVersion;
  MessageType type = MessageType::kHealth;
  uint32_t flags = 0;
  uint64_t request_id = 0;
};
/// Encoded MessageHeader size. The response cache stores reply payloads
/// from this offset on, so a hit can be re-headed with the requester's own
/// request id.
inline constexpr size_t kMessageHeaderBytes = 16;

// --- Request bodies --------------------------------------------------------
//
// Every request body begins with a u32 deadline_ms (0 = none) written and
// consumed at the exchange layer (QueryClient::RoundTrip on the way out,
// the server's I/O thread on the way in); the Encode/Decode functions
// below cover only the fields after it.

/// kPointCount / kBoxQuery: an axis-aligned box over the served dimensions.
/// kPointCount returns only the row count; kBoxQuery returns the objids.
struct BoxQueryRequest {
  std::vector<double> lo, hi;
  uint64_t limit = 0;  ///< TOP(n); 0 = unlimited (kBoxQuery only)
};

/// kKnn: the k nearest stored points to `point`.
struct KnnRequest {
  std::vector<double> point;
  uint32_t k = 1;
};

/// kTableSample: TABLESAMPLE SYSTEM(percent) + TOP(n) inside a box (E3).
struct TableSampleRequest {
  std::vector<double> lo, hi;
  double percent = 1.0;
  uint64_t n = 1;
  uint64_t seed = 0;  ///< page-sampling RNG seed (reproducible samples)
};

/// kReload: hot-swap the served dataset to the file at `path` (a path on
/// the SERVER's filesystem); an empty path reloads the current source
/// (same file, or a rebuild of the same synthetic config). The mdsc
/// coordinator broadcasts a reload to every replica of every shard. The
/// load runs on a worker thread — in-flight queries finish against the old
/// snapshot and the response cache is invalidated wholesale by the epoch
/// bump.
struct ReloadRequest {
  std::string path;
};

// --- Reply bodies ----------------------------------------------------------

/// kPointCount / kBoxQuery / kTableSample reply: result rows plus the
/// per-query I/O accounting (QueryStats essentials), so a remote client
/// sees the same E2-style instrumentation an embedded caller would.
struct QueryReply {
  uint64_t row_count = 0;
  std::vector<int64_t> objids;  ///< empty for kPointCount
  uint64_t rows_scanned = 0;
  uint64_t pages_fetched = 0;
  uint64_t pages_read = 0;
  uint64_t pages_skipped = 0;
  bool degraded = false;
  std::string chosen_path;  ///< planner's pick ("kd-tree", "full-scan", ...)
  /// Shard-coverage tail, written only by the mdsc coordinator (encoded
  /// iff shards_total != 0; a plain mdsd reply ends at chosen_path and
  /// old decoders simply stop there). shards_mask bit i is set when shard
  /// i contributed (shards beyond 63 saturate the mask). A partial reply
  /// (shards_answered < shards_total) also sets kFlagPartial +
  /// kFlagDegraded and keeps every count honest over the answering
  /// shards only.
  uint32_t shards_answered = 0;
  uint32_t shards_total = 0;  ///< 0 = not a coordinator reply
  uint64_t shards_mask = 0;
};

/// One kNN answer row (trivially copyable for bulk encoding).
struct WireNeighbor {
  int64_t id = 0;
  double squared_distance = 0.0;
};

struct KnnReply {
  std::vector<WireNeighbor> neighbors;
  /// Shard-coverage tail, exactly as on QueryReply. A partial kNN merge
  /// is flagged because its neighbors may not be the global nearest —
  /// a missing shard could hold closer points.
  uint32_t shards_answered = 0;
  uint32_t shards_total = 0;  ///< 0 = not a coordinator reply
  uint64_t shards_mask = 0;
};

/// Per-request-type latency digest inside a stats reply (microseconds,
/// from the server's log-bucketed histograms).
struct RequestTypeStats {
  uint64_t count = 0;
  uint64_t errors = 0;
  uint64_t p50_us = 0;
  uint64_t p95_us = 0;
  uint64_t p99_us = 0;
  uint64_t max_us = 0;
  double mean_us = 0.0;
};

/// Per-shard routing counters inside a stats reply. Only the mdsc
/// coordinator emits a non-empty list (one entry per shard, in shard
/// order); a plain mdsd emits zero entries. Latencies are microseconds
/// over successful backend sub-requests for that shard.
struct ShardStatsEntry {
  uint32_t replicas = 0;          ///< configured replicas
  uint32_t healthy_replicas = 0;  ///< replicas not in failure backoff
  uint64_t requests = 0;          ///< sub-requests routed to this shard
  uint64_t backend_errors = 0;    ///< failed attempts, summed over replicas
  uint64_t failovers = 0;         ///< retryable failures retried elsewhere
  uint64_t hedges_fired = 0;      ///< speculative second attempts sent
  uint64_t hedges_won = 0;        ///< hedges that beat the primary attempt
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  uint32_t open_breakers = 0;       ///< replicas with an open circuit breaker
  uint32_t half_open_breakers = 0;  ///< breakers admitting a single probe
  uint64_t retries_denied = 0;      ///< failovers/hedges denied by the retry budget
  uint64_t breaker_short_circuits = 0;  ///< attempts skipped on an open breaker
  /// Requests answered for this shard without a leg: its bounding box
  /// proved it holds no qualifying row. Carried on the pruned tail, after
  /// reply_tail_copies.
  uint64_t pruned = 0;
};
/// Decode-side cap on the shard list length (hostile-length guard).
inline constexpr uint32_t kMaxShardStats = 4096;

/// kStats reply: the server's counters since start, including the embedded
/// BufferPool read-counter delta over the same window.
struct ServerStatsSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t accept_errors = 0;  ///< accept() fd-exhaustion backoffs (EMFILE)
  uint64_t protocol_errors = 0;
  uint64_t requests_total = 0;
  uint64_t replies_ok = 0;
  uint64_t replies_error = 0;
  uint64_t rejected_overload = 0;   ///< admission control (queue/in-flight)
  uint64_t rejected_draining = 0;   ///< arrived during graceful drain
  uint64_t deadline_timeouts = 0;   ///< expired before execution finished
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t in_flight_peak = 0;
  uint64_t pool_logical_reads = 0;   ///< BufferPool delta since server start
  uint64_t pool_physical_reads = 0;
  /// Response cache (server/response_cache.h); all zero when disabled.
  uint64_t cache_hits = 0;        ///< replies served inline on the I/O thread
  uint64_t cache_misses = 0;      ///< cacheable requests that executed
  uint64_t cache_insertions = 0;
  uint64_t cache_evictions = 0;   ///< LRU evictions under the byte bound
  uint64_t cache_bytes = 0;       ///< currently charged bytes
  uint64_t cache_entries = 0;
  uint64_t dataset_epoch = 0;     ///< generation the served data is at
  RequestTypeStats per_type[kNumRequestTypes];
  /// Coordinator-only per-shard counters (empty from a plain mdsd); an
  /// additive tail extension of the stats body — see docs/PROTOCOL.md.
  std::vector<ShardStatsEntry> shards;
  /// Partial (degraded, some-shards-missing) replies served; a further
  /// additive tail after the shard list. Always zero from a plain mdsd.
  uint64_t partial_replies = 0;
  /// Reply-path memory counters — a further additive tail (each field
  /// decoded only when present, so older encoders interoperate).
  /// Slab-pool slices handed out / served from a free list / capacity
  /// bytes currently pinned, and post-encode payload memcpys on the
  /// reply path (zero on a pure cache-hit workload).
  uint64_t slab_allocations = 0;
  uint64_t slab_recycles = 0;
  uint64_t slab_bytes_in_use = 0;
  uint64_t reply_tail_copies = 0;
};

/// kHealth reply body.
struct HealthReply {
  uint8_t draining = 0;
  uint64_t served_rows = 0;
  uint32_t dim = 0;
  /// Tight bounding box of every served row (the kd-tree root's bounds),
  /// an additive tail; dim 0 = not reported. The mdsc coordinator prunes
  /// shards with it.
  Box bounds;
};

/// kReload reply body: the epoch transition and the new row count. From a
/// coordinator, old/new epochs are the min over shards (every shard must
/// succeed or the whole reload fails) and served_rows sums the shards.
struct ReloadReply {
  uint64_t old_epoch = 0;
  uint64_t new_epoch = 0;
  uint64_t served_rows = 0;
  /// The new generation's bounds, as on HealthReply (dim 0 = not reported).
  Box bounds;
};

// --- Codec -----------------------------------------------------------------

/// Wraps `payload` in a frame (magic, length, CRC32C) appended to `wire`.
void AppendFrame(const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* wire);

void EncodeMessageHeader(const MessageHeader& header, WireWriter* w);
Status DecodeMessageHeader(WireReader* r, MessageHeader* header);

/// Shared coordinate-vector codec (u32 dim + dim f64), bounds-checked to
/// kMaxDim on decode.
void EncodeCoords(const std::vector<double>& v, WireWriter* w);
Status DecodeCoords(WireReader* r, std::vector<double>* v);

void EncodeBoxQueryRequest(const BoxQueryRequest& req, WireWriter* w);
Status DecodeBoxQueryRequest(WireReader* r, BoxQueryRequest* req);
void EncodeKnnRequest(const KnnRequest& req, WireWriter* w);
Status DecodeKnnRequest(WireReader* r, KnnRequest* req);
void EncodeTableSampleRequest(const TableSampleRequest& req, WireWriter* w);
Status DecodeTableSampleRequest(WireReader* r, TableSampleRequest* req);

/// InvalidArgument unless a request's coordinates (`got` of them) match
/// the served dimension — the one wording both daemons reply with.
Status CheckQueryDimension(size_t got, size_t served);

/// Replies carry a Status first; the body follows only when it is OK.
void EncodeStatus(const Status& status, WireWriter* w);
Status DecodeStatus(WireReader* r, Status* status);

void EncodeQueryReply(const QueryReply& reply, WireWriter* w);
Status DecodeQueryReply(WireReader* r, QueryReply* reply);
void EncodeKnnReply(const KnnReply& reply, WireWriter* w);
Status DecodeKnnReply(WireReader* r, KnnReply* reply);
void EncodeServerStats(const ServerStatsSnapshot& stats, WireWriter* w);
Status DecodeServerStats(WireReader* r, ServerStatsSnapshot* stats);
void EncodeHealthReply(const HealthReply& reply, WireWriter* w);
Status DecodeHealthReply(WireReader* r, HealthReply* reply);
void EncodeReloadRequest(const ReloadRequest& req, WireWriter* w);
Status DecodeReloadRequest(WireReader* r, ReloadRequest* req);
void EncodeReloadReply(const ReloadReply& reply, WireWriter* w);
Status DecodeReloadReply(WireReader* r, ReloadReply* reply);

// --- Framed socket I/O -----------------------------------------------------

/// The frame check every receiver applies (ReadFrame, both daemons' front
/// end, QueryClient's receive) to `size` bytes received from a frame
/// boundary. Sets *frame_bytes to the bytes the frame needs: the prefix
/// until it has arrived, then prefix + payload_len. The frame is complete
/// once size >= *frame_bytes, and only then is the CRC verified.
/// Violations (bad magic or oversized length: kInvalidArgument; CRC
/// mismatch: kCorruption) mean the caller must close the connection.
Status CheckFrame(const uint8_t* data, size_t size, size_t* frame_bytes);

/// Reads one frame into `payload`, verifying magic, length bound and CRC.
/// Failure taxonomy: NotFound = clean close on a frame boundary;
/// kUnavailable = deadline or mid-frame close; kInvalidArgument /
/// kCorruption = protocol violation (caller must close the connection).
Status ReadFrame(Socket* sock, const IoDeadline& deadline,
                 std::vector<uint8_t>* payload);

}  // namespace protocol
}  // namespace mds

#endif  // MDS_SERVER_PROTOCOL_H_
