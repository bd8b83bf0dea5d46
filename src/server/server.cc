#include "server/server.h"

#include <cstring>
#include <utility>

#include "common/crc32c.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/knn.h"
#include "core/query_planner.h"

namespace mds {

namespace {

using protocol::MessageHeader;
using protocol::MessageType;

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

WireFrontEnd::Options FrontEndOptions(const ServerConfig& config) {
  WireFrontEnd::Options options;
  options.port = config.port;
  // All workers start with the server, so an mdsd's thread count does
  // not move with its traffic.
  options.workers =
      config.num_workers != 0 ? config.num_workers : QueryThreads();
  options.workers_at_start = options.workers;
  options.max_in_flight = config.max_in_flight;
  options.max_connections = config.max_connections;
  options.default_deadline_ms = config.default_deadline_ms;
  options.idle_timeout_ms = config.idle_timeout_ms;
  options.io_threads = config.io_threads;
  options.debug_fail_first_accepts = config.debug_fail_first_accepts;
  return options;
}

}  // namespace

QueryServer::QueryServer(std::shared_ptr<const ServedDataset> dataset,
                         const ServerConfig& config)
    : dataset_(std::move(dataset)),
      cache_(config.cache_bytes != 0
                 ? std::make_unique<ResponseCache>(config.cache_bytes)
                 : nullptr),
      front_(this, FrontEndOptions(config)) {}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    pool_at_start_ = dataset_->pool()->Snapshot();
  }
  return AnnotateStatus(front_.Start(), "QueryServer::Start");
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

// --- backend: loop-thread probe, worker execution ---------------------------

bool QueryServer::Probe(Request* req, WireFrontEnd::ReplyFrame* reply) {
  // Snapshot the serving generation and its cache epoch as one consistent
  // pair: Reload swaps the pointer and bumps the (shared) epoch under the
  // same mutex, so a request never pairs old data with the new epoch.
  std::shared_ptr<const ServedDataset> dataset;
  SnapshotDataset(&dataset, &req->cache_epoch);
  req->pinned = std::move(dataset);
  if (cache_ == nullptr || !CacheableRequest(req->header)) return false;
  // A reply computed for this request populates the cache under the same
  // generation it was looked up against, never a newer one.
  ResponseCache::CachedReply hit;
  if (!cache_->Lookup(static_cast<uint16_t>(req->header.type),
                      req->cache_epoch, req->body(), req->body_size(),
                      &hit)) {
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

  reply->head.reserve(protocol::kFramePrefixBytes +
                      protocol::kMessageHeaderBytes);
  WireWriter w(&reply->head);
  w.PutU32(protocol::kFrameMagic);
  w.PutU32(static_cast<uint32_t>(protocol::kMessageHeaderBytes +
                                 hit.tail.size()));
  w.PutU32(0);  // CRC placeholder, patched below
  EncodeMessageHeader(header, &w);
  const uint32_t crc =
      Crc32c(Crc32c(reply->head.data() + protocol::kFramePrefixBytes,
                    protocol::kMessageHeaderBytes),
             hit.tail.data(), hit.tail.size());
  std::memcpy(reply->head.data() + 8, &crc, sizeof(crc));
  reply->tail = std::move(hit.tail);
  return true;
}

void QueryServer::Execute(Request* req) {
  if (req->header.type == MessageType::kReload) {
    HandleReload(req);
  } else if (req->header.type == MessageType::kKnn) {
    protocol::KnnReply reply;
    const Status query_status = ExecuteKnn(*req, &reply);
    FinishAndReply(*req, query_status, 0,
                   ReplyCacheable(query_status, /*degraded=*/false,
                                  /*pages_skipped=*/0),
                   [&](WireWriter* w) { protocol::EncodeKnnReply(reply, w); });
  } else {
    ExecuteAndReplyBoxLike(req);
  }
}

void QueryServer::ExecuteAndReplyBoxLike(Request* req) {
  protocol::QueryReply reply;
  const Status query_status = ExecuteBoxLike(*req, &reply);
  const uint32_t flags = reply.degraded ? protocol::kFlagDegraded : 0;
  FinishAndReply(
      *req, query_status, flags,
      ReplyCacheable(query_status, reply.degraded, reply.pages_skipped),
      [&](WireWriter* w) { protocol::EncodeQueryReply(reply, w); });
}

void QueryServer::HandleReload(Request* req) {
  WireReader r(req->body(), req->body_size());
  protocol::ReloadRequest reload;
  Status decoded = DecodeReloadRequest(&r, &reload);
  if (decoded.ok()) decoded = r.ExpectEnd();
  if (!decoded.ok()) {
    FinishWithError(*req, decoded);
    return;
  }
  auto result = Reload(reload.path);
  if (!result.ok()) {
    FinishWithError(*req, result.status());
    return;
  }
  FinishAndReply(
      *req, Status::OK(), 0, /*cacheable_reply=*/false,
      [&](WireWriter* w) { protocol::EncodeReloadReply(*result, w); });
}

Status QueryServer::ExecuteBoxLike(const Request& req,
                                   protocol::QueryReply* out) {
  WireReader r(req.body(), req.body_size());
  const ServedDataset& dataset = Dataset(req);
  const PointTableBinding& binding = dataset.binding();

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
    MDS_RETURN_NOT_OK(
        protocol::CheckQueryDimension(sample.lo.size(), dataset.dim()));
    Box box(sample.lo, sample.hi);
    Rng rng(sample.seed);
    TableSamplePath path(binding, box, sample.percent, sample.n, &rng);
    result = ExecuteAccessPath(&path, scan, &stats);
    out->chosen_path = path.name();
  } else {
    protocol::BoxQueryRequest query;
    MDS_RETURN_NOT_OK(DecodeBoxQueryRequest(&r, &query));
    MDS_RETURN_NOT_OK(r.ExpectEnd());
    MDS_RETURN_NOT_OK(
        protocol::CheckQueryDimension(query.lo.size(), dataset.dim()));
    limit = query.limit;
    Box box(query.lo, query.hi);
    const Polyhedron poly = Polyhedron::FromBox(box);

    QueryPlanner planner;
    planner.AddPath(std::make_unique<FullScanPath>(binding, box))
        .AddPath(std::make_unique<KdTreePath>(binding, dataset.tree(),
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

Status QueryServer::ExecuteKnn(const Request& req,
                               protocol::KnnReply* out) {
  WireReader r(req.body(), req.body_size());
  protocol::KnnRequest knn;
  MDS_RETURN_NOT_OK(DecodeKnnRequest(&r, &knn));
  MDS_RETURN_NOT_OK(r.ExpectEnd());
  const ServedDataset& dataset = Dataset(req);
  MDS_RETURN_NOT_OK(
      protocol::CheckQueryDimension(knn.point.size(), dataset.dim()));
  if (knn.k > kMaxKnnK) {
    return Status::InvalidArgument("k exceeds cap " +
                                   std::to_string(kMaxKnnK));
  }
  // k beyond the stored row count used to clamp silently; an answer with
  // fewer than k neighbors is indistinguishable from data loss to the
  // caller, so it is now a boundary error.
  if (knn.k > dataset.num_rows()) {
    return Status::InvalidArgument(
        "k " + std::to_string(knn.k) + " exceeds served rows " +
        std::to_string(dataset.num_rows()));
  }
  KdKnnSearcher searcher(&dataset.tree());
  std::vector<Neighbor> neighbors =
      searcher.BoundaryGrow(knn.point.data(), knn.k);
  out->neighbors.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) {
    out->neighbors.push_back(protocol::WireNeighbor{
        static_cast<int64_t>(n.id), n.squared_distance});
  }
  return Status::OK();
}

void QueryServer::FillHealth(protocol::HealthReply* reply) {
  std::shared_ptr<const ServedDataset> dataset;
  SnapshotDataset(&dataset, nullptr);
  reply->served_rows = dataset->num_rows();
  reply->dim = static_cast<uint32_t>(dataset->dim());
  reply->bounds = dataset->tree().root().bounds;
}

template <typename EncodeBody>
void QueryServer::FinishAndReply(const Request& req, const Status& status,
                                 uint32_t extra_flags, bool cacheable_reply,
                                 EncodeBody&& encode_body) {
  front_.Finish(req, status);
  WireFrontEnd::ReplyFrame frame =
      front_.EncodeReply(req, status, extra_flags, encode_body);
  // Populate after the reply is finalized and before it is sent: a
  // subsequent hit on any connection replays exactly these bytes (minus
  // the request id). Only requests the I/O-thread probe tagged get here
  // with cache_populate set, so uncacheable flags never leak entries in.
  if (cache_ != nullptr && req.cache_populate && cacheable_reply) {
    cache_->Insert(static_cast<uint16_t>(req.header.type), req.cache_epoch,
                   req.body(), req.body_size(), extra_flags, frame.tail);
  }
  front_.Send(req, std::move(frame));
}

void QueryServer::FinishWithError(const Request& req, const Status& status) {
  front_.Finish(req, status);
  front_.ReplyError(req, status, 0);
}

void QueryServer::AddStats(protocol::ServerStatsSnapshot* s) const {
  // One consistent (generation, baseline) pair: Reload re-baselines
  // pool_at_start_ when it swaps the dataset, under the same mutex.
  std::shared_ptr<const ServedDataset> dataset;
  CounterSnapshot pool_at_start;
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    dataset = dataset_;
    pool_at_start = pool_at_start_;
  }
  const CounterSnapshot::Delta delta = dataset->pool()->Delta(pool_at_start);
  s->pool_logical_reads = delta.logical_reads;
  s->pool_physical_reads = delta.physical_reads;

  if (cache_ != nullptr) {
    const ResponseCache::StatsSnapshot c = cache_->Stats();
    s->cache_hits = c.hits;
    s->cache_misses = c.misses;
    s->cache_insertions = c.insertions;
    s->cache_evictions = c.evictions;
    s->cache_bytes = c.bytes;
    s->cache_entries = c.entries;
  }
  s->dataset_epoch = dataset->epoch();
}

}  // namespace mds
