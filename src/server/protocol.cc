#include "server/protocol.h"

#include <cmath>

#include "common/crc32c.h"

namespace mds {
namespace protocol {

namespace {

/// Degenerate-box rejection at the wire boundary: a NaN bound poisons
/// every containment test (the engine would return an empty result with a
/// success status — a silent lie) and an inverted axis describes no volume
/// the caller could have meant. Both are InvalidArgument here, before any
/// engine code runs.
Status ValidateBoxBounds(const std::vector<double>& lo,
                         const std::vector<double>& hi) {
  if (lo.size() != hi.size()) {
    return Status::InvalidArgument("protocol: box lo/hi dimension mismatch");
  }
  for (size_t j = 0; j < lo.size(); ++j) {
    if (std::isnan(lo[j]) || std::isnan(hi[j])) {
      return Status::InvalidArgument("protocol: box bound is NaN on axis " +
                                     std::to_string(j));
    }
    if (lo[j] > hi[j]) {
      return Status::InvalidArgument(
          "protocol: box is inverted (lo > hi) on axis " + std::to_string(j));
    }
  }
  return Status::OK();
}

}  // namespace

void EncodeCoords(const std::vector<double>& v, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  for (double x : v) w->PutF64(x);
}

Status DecodeCoords(WireReader* r, std::vector<double>* v) {
  const uint32_t dim = r->GetU32();
  if (!r->ok()) return r->status();
  if (dim == 0 || dim > kMaxDim) {
    return Status::InvalidArgument("protocol: dimension out of range");
  }
  v->resize(dim);
  for (uint32_t j = 0; j < dim; ++j) (*v)[j] = r->GetF64();
  return r->status();
}

size_t TypeIndex(MessageType type) {
  const uint16_t v = static_cast<uint16_t>(type);
  if (v >= 1 && v <= kNumRequestTypes) return v - 1;
  return kNumRequestTypes;
}

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHealth: return "health";
    case MessageType::kStats: return "stats";
    case MessageType::kPointCount: return "point-count";
    case MessageType::kBoxQuery: return "box-query";
    case MessageType::kKnn: return "knn";
    case MessageType::kTableSample: return "tablesample";
    case MessageType::kReload: return "reload";
  }
  return "unknown";
}

void AppendFrame(const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* wire) {
  WireWriter w(wire);
  w.PutU32(kFrameMagic);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32c(payload.data(), payload.size()));
  w.PutRaw(payload.data(), payload.size());
}

void EncodeMessageHeader(const MessageHeader& header, WireWriter* w) {
  w->PutU16(header.version);
  w->PutU16(static_cast<uint16_t>(header.type));
  w->PutU32(header.flags);
  w->PutU64(header.request_id);
}

Status DecodeMessageHeader(WireReader* r, MessageHeader* header) {
  header->version = r->GetU16();
  header->type = static_cast<MessageType>(r->GetU16());
  header->flags = r->GetU32();
  header->request_id = r->GetU64();
  if (!r->ok()) return r->status();
  if (header->version != kProtocolVersion) {
    return Status::InvalidArgument("protocol: unsupported version " +
                                   std::to_string(header->version));
  }
  return Status::OK();
}

void EncodeBoxQueryRequest(const BoxQueryRequest& req, WireWriter* w) {
  EncodeCoords(req.lo, w);
  EncodeCoords(req.hi, w);
  w->PutU64(req.limit);
}

Status DecodeBoxQueryRequest(WireReader* r, BoxQueryRequest* req) {
  MDS_RETURN_NOT_OK(DecodeCoords(r, &req->lo));
  MDS_RETURN_NOT_OK(DecodeCoords(r, &req->hi));
  req->limit = r->GetU64();
  if (!r->ok()) return r->status();
  return ValidateBoxBounds(req->lo, req->hi);
}

void EncodeKnnRequest(const KnnRequest& req, WireWriter* w) {
  EncodeCoords(req.point, w);
  w->PutU32(req.k);
}

Status DecodeKnnRequest(WireReader* r, KnnRequest* req) {
  MDS_RETURN_NOT_OK(DecodeCoords(r, &req->point));
  req->k = r->GetU32();
  if (!r->ok()) return r->status();
  if (req->k == 0) {
    return Status::InvalidArgument("protocol: knn k must be positive");
  }
  for (size_t j = 0; j < req->point.size(); ++j) {
    if (std::isnan(req->point[j])) {
      return Status::InvalidArgument(
          "protocol: knn probe coordinate is NaN on axis " +
          std::to_string(j));
    }
  }
  return Status::OK();
}

void EncodeTableSampleRequest(const TableSampleRequest& req, WireWriter* w) {
  EncodeCoords(req.lo, w);
  EncodeCoords(req.hi, w);
  w->PutF64(req.percent);
  w->PutU64(req.n);
  w->PutU64(req.seed);
}

Status DecodeTableSampleRequest(WireReader* r, TableSampleRequest* req) {
  MDS_RETURN_NOT_OK(DecodeCoords(r, &req->lo));
  MDS_RETURN_NOT_OK(DecodeCoords(r, &req->hi));
  req->percent = r->GetF64();
  req->n = r->GetU64();
  req->seed = r->GetU64();
  if (!r->ok()) return r->status();
  MDS_RETURN_NOT_OK(ValidateBoxBounds(req->lo, req->hi));
  // The sampling fraction lives in (0, 1], carried as a percent in
  // (0, 100]. `!(> 0.0)` also rejects NaN.
  if (!(req->percent > 0.0) || req->percent > 100.0) {
    return Status::InvalidArgument("protocol: percent out of (0, 100]");
  }
  return Status::OK();
}

Status CheckQueryDimension(size_t got, size_t served) {
  if (got == served) return Status::OK();
  return Status::InvalidArgument("query dimension " + std::to_string(got) +
                                 " != served dimension " +
                                 std::to_string(served));
}

void EncodeStatus(const Status& status, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(status.code()));
  w->PutString(status.message());
}

Status DecodeStatus(WireReader* r, Status* status) {
  const uint32_t code = r->GetU32();
  const std::string message = r->GetString();
  if (!r->ok()) return r->status();
  if (code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("protocol: unknown status code");
  }
  *status = Status(static_cast<StatusCode>(code), message);
  return Status::OK();
}

namespace {

/// The 16-byte shard-coverage tail shared by QueryReply and KnnReply.
/// Encoded only by the mdsc coordinator (shards_total != 0); on decode its
/// presence is detected by the remaining payload length, so a plain mdsd
/// reply (no tail) and an old-encoder reply both decode as shards_total 0.
constexpr size_t kShardCoverageTailBytes = 16;

void EncodeShardCoverage(uint32_t answered, uint32_t total, uint64_t mask,
                         WireWriter* w) {
  if (total == 0) return;
  w->PutU32(answered);
  w->PutU32(total);
  w->PutU64(mask);
}

void DecodeShardCoverage(WireReader* r, uint32_t* answered, uint32_t* total,
                         uint64_t* mask) {
  if (!r->ok() || r->remaining() < kShardCoverageTailBytes) return;
  *answered = r->GetU32();
  *total = r->GetU32();
  *mask = r->GetU64();
}

/// The optional bounds tail on HealthReply and ReloadReply: lo then hi as
/// coordinate vectors, written only when bounds are known. Decoders detect
/// it by remaining bytes, so a reply from an older encoder decodes as "no
/// bounds".
void EncodeBoundsTail(const Box& bounds, WireWriter* w) {
  if (bounds.dim() == 0) return;
  EncodeCoords(bounds.lo(), w);
  EncodeCoords(bounds.hi(), w);
}

Status DecodeBoundsTail(WireReader* r, Box* bounds) {
  *bounds = Box();
  if (!r->ok() || r->remaining() == 0) return r->status();
  std::vector<double> lo, hi;
  MDS_RETURN_NOT_OK(DecodeCoords(r, &lo));
  MDS_RETURN_NOT_OK(DecodeCoords(r, &hi));
  MDS_RETURN_NOT_OK(ValidateBoxBounds(lo, hi));
  *bounds = Box(std::move(lo), std::move(hi));
  return Status::OK();
}

}  // namespace

void EncodeQueryReply(const QueryReply& reply, WireWriter* w) {
  w->PutU64(reply.row_count);
  w->PutPodVector(reply.objids);
  w->PutU64(reply.rows_scanned);
  w->PutU64(reply.pages_fetched);
  w->PutU64(reply.pages_read);
  w->PutU64(reply.pages_skipped);
  w->PutU8(reply.degraded ? 1 : 0);
  w->PutString(reply.chosen_path);
  EncodeShardCoverage(reply.shards_answered, reply.shards_total,
                      reply.shards_mask, w);
}

Status DecodeQueryReply(WireReader* r, QueryReply* reply) {
  reply->row_count = r->GetU64();
  reply->objids = r->GetPodVector<int64_t>();
  reply->rows_scanned = r->GetU64();
  reply->pages_fetched = r->GetU64();
  reply->pages_read = r->GetU64();
  reply->pages_skipped = r->GetU64();
  reply->degraded = r->GetU8() != 0;
  reply->chosen_path = r->GetString();
  DecodeShardCoverage(r, &reply->shards_answered, &reply->shards_total,
                      &reply->shards_mask);
  return r->status();
}

void EncodeKnnReply(const KnnReply& reply, WireWriter* w) {
  w->PutPodVector(reply.neighbors);
  EncodeShardCoverage(reply.shards_answered, reply.shards_total,
                      reply.shards_mask, w);
}

Status DecodeKnnReply(WireReader* r, KnnReply* reply) {
  reply->neighbors = r->GetPodVector<WireNeighbor>();
  DecodeShardCoverage(r, &reply->shards_answered, &reply->shards_total,
                      &reply->shards_mask);
  return r->status();
}

void EncodeServerStats(const ServerStatsSnapshot& stats, WireWriter* w) {
  w->PutU64(stats.connections_accepted);
  w->PutU64(stats.connections_closed);
  w->PutU64(stats.accept_errors);
  w->PutU64(stats.protocol_errors);
  w->PutU64(stats.requests_total);
  w->PutU64(stats.replies_ok);
  w->PutU64(stats.replies_error);
  w->PutU64(stats.rejected_overload);
  w->PutU64(stats.rejected_draining);
  w->PutU64(stats.deadline_timeouts);
  w->PutU64(stats.bytes_in);
  w->PutU64(stats.bytes_out);
  w->PutU64(stats.in_flight_peak);
  w->PutU64(stats.pool_logical_reads);
  w->PutU64(stats.pool_physical_reads);
  w->PutU64(stats.cache_hits);
  w->PutU64(stats.cache_misses);
  w->PutU64(stats.cache_insertions);
  w->PutU64(stats.cache_evictions);
  w->PutU64(stats.cache_bytes);
  w->PutU64(stats.cache_entries);
  w->PutU64(stats.dataset_epoch);
  for (const RequestTypeStats& t : stats.per_type) {
    w->PutU64(t.count);
    w->PutU64(t.errors);
    w->PutU64(t.p50_us);
    w->PutU64(t.p95_us);
    w->PutU64(t.p99_us);
    w->PutU64(t.max_us);
    w->PutF64(t.mean_us);
  }
  w->PutU32(static_cast<uint32_t>(stats.shards.size()));
  for (const ShardStatsEntry& s : stats.shards) {
    w->PutU32(s.replicas);
    w->PutU32(s.healthy_replicas);
    w->PutU64(s.requests);
    w->PutU64(s.backend_errors);
    w->PutU64(s.failovers);
    w->PutU64(s.hedges_fired);
    w->PutU64(s.hedges_won);
    w->PutU64(s.p50_us);
    w->PutU64(s.p99_us);
    w->PutU32(s.open_breakers);
    w->PutU32(s.half_open_breakers);
    w->PutU64(s.retries_denied);
    w->PutU64(s.breaker_short_circuits);
  }
  w->PutU64(stats.partial_replies);
  w->PutU64(stats.slab_allocations);
  w->PutU64(stats.slab_recycles);
  w->PutU64(stats.slab_bytes_in_use);
  w->PutU64(stats.reply_tail_copies);
  for (const ShardStatsEntry& s : stats.shards) w->PutU64(s.pruned);
}

Status DecodeServerStats(WireReader* r, ServerStatsSnapshot* stats) {
  stats->connections_accepted = r->GetU64();
  stats->connections_closed = r->GetU64();
  stats->accept_errors = r->GetU64();
  stats->protocol_errors = r->GetU64();
  stats->requests_total = r->GetU64();
  stats->replies_ok = r->GetU64();
  stats->replies_error = r->GetU64();
  stats->rejected_overload = r->GetU64();
  stats->rejected_draining = r->GetU64();
  stats->deadline_timeouts = r->GetU64();
  stats->bytes_in = r->GetU64();
  stats->bytes_out = r->GetU64();
  stats->in_flight_peak = r->GetU64();
  stats->pool_logical_reads = r->GetU64();
  stats->pool_physical_reads = r->GetU64();
  stats->cache_hits = r->GetU64();
  stats->cache_misses = r->GetU64();
  stats->cache_insertions = r->GetU64();
  stats->cache_evictions = r->GetU64();
  stats->cache_bytes = r->GetU64();
  stats->cache_entries = r->GetU64();
  stats->dataset_epoch = r->GetU64();
  for (RequestTypeStats& t : stats->per_type) {
    t.count = r->GetU64();
    t.errors = r->GetU64();
    t.p50_us = r->GetU64();
    t.p95_us = r->GetU64();
    t.p99_us = r->GetU64();
    t.max_us = r->GetU64();
    t.mean_us = r->GetF64();
  }
  const uint32_t num_shards = r->GetU32();
  if (!r->ok()) return r->status();
  if (num_shards > kMaxShardStats) {
    return Status::InvalidArgument("protocol: shard stats count " +
                                   std::to_string(num_shards) +
                                   " exceeds cap");
  }
  stats->shards.resize(num_shards);
  for (ShardStatsEntry& s : stats->shards) {
    s.replicas = r->GetU32();
    s.healthy_replicas = r->GetU32();
    s.requests = r->GetU64();
    s.backend_errors = r->GetU64();
    s.failovers = r->GetU64();
    s.hedges_fired = r->GetU64();
    s.hedges_won = r->GetU64();
    s.p50_us = r->GetU64();
    s.p99_us = r->GetU64();
    s.open_breakers = r->GetU32();
    s.half_open_breakers = r->GetU32();
    s.retries_denied = r->GetU64();
    s.breaker_short_circuits = r->GetU64();
  }
  // Additive tail after the shard list: absent from an older encoder.
  if (r->ok() && r->remaining() >= 8) {
    stats->partial_replies = r->GetU64();
  }
  if (r->ok() && r->remaining() >= 8) {
    stats->slab_allocations = r->GetU64();
  }
  if (r->ok() && r->remaining() >= 8) {
    stats->slab_recycles = r->GetU64();
  }
  if (r->ok() && r->remaining() >= 8) {
    stats->slab_bytes_in_use = r->GetU64();
  }
  if (r->ok() && r->remaining() >= 8) {
    stats->reply_tail_copies = r->GetU64();
  }
  if (r->ok() && r->remaining() >= 8 * stats->shards.size()) {
    for (ShardStatsEntry& s : stats->shards) s.pruned = r->GetU64();
  }
  return r->status();
}

void EncodeHealthReply(const HealthReply& reply, WireWriter* w) {
  w->PutU8(reply.draining);
  w->PutU64(reply.served_rows);
  w->PutU32(reply.dim);
  EncodeBoundsTail(reply.bounds, w);
}

Status DecodeHealthReply(WireReader* r, HealthReply* reply) {
  reply->draining = r->GetU8();
  reply->served_rows = r->GetU64();
  reply->dim = r->GetU32();
  return DecodeBoundsTail(r, &reply->bounds);
}

void EncodeReloadRequest(const ReloadRequest& req, WireWriter* w) {
  w->PutString(req.path);
}

Status DecodeReloadRequest(WireReader* r, ReloadRequest* req) {
  req->path = r->GetString();
  if (!r->ok()) return r->status();
  if (req->path.size() > 4096) {  // PATH_MAX; hostile-length guard
    return Status::InvalidArgument("protocol: reload path too long");
  }
  return Status::OK();
}

void EncodeReloadReply(const ReloadReply& reply, WireWriter* w) {
  w->PutU64(reply.old_epoch);
  w->PutU64(reply.new_epoch);
  w->PutU64(reply.served_rows);
  EncodeBoundsTail(reply.bounds, w);
}

Status DecodeReloadReply(WireReader* r, ReloadReply* reply) {
  reply->old_epoch = r->GetU64();
  reply->new_epoch = r->GetU64();
  reply->served_rows = r->GetU64();
  return DecodeBoundsTail(r, &reply->bounds);
}

Status CheckFrame(const uint8_t* data, size_t size, size_t* frame_bytes) {
  *frame_bytes = kFramePrefixBytes;
  if (size < kFramePrefixBytes) return Status::OK();
  uint32_t len = 0;
  uint32_t crc = 0;
  MDS_RETURN_NOT_OK(CheckFramePrefix(data, &len, &crc));
  *frame_bytes += len;
  if (size < *frame_bytes) return Status::OK();
  if (Crc32c(data + kFramePrefixBytes, len) != crc) {
    return Status::Corruption("protocol: frame CRC mismatch");
  }
  return Status::OK();
}

Status ReadFrame(Socket* sock, const IoDeadline& deadline,
                 std::vector<uint8_t>* payload) {
  std::vector<uint8_t> frame(kFramePrefixBytes);
  MDS_RETURN_NOT_OK(sock->ReadFull(frame.data(), frame.size(), deadline));
  size_t frame_bytes = 0;
  MDS_RETURN_NOT_OK(CheckFrame(frame.data(), frame.size(), &frame_bytes));
  frame.resize(frame_bytes);
  Status body = sock->ReadFull(frame.data() + kFramePrefixBytes,
                               frame_bytes - kFramePrefixBytes, deadline);
  if (body.code() == StatusCode::kNotFound) {
    // A close between prefix and body is a truncated frame, not the clean
    // frame-boundary close NotFound signals.
    return Status::Unavailable("protocol: connection closed mid-frame");
  }
  MDS_RETURN_NOT_OK(body);
  MDS_RETURN_NOT_OK(CheckFrame(frame.data(), frame.size(), &frame_bytes));
  payload->assign(frame.begin() + kFramePrefixBytes, frame.end());
  return Status::OK();
}

}  // namespace protocol
}  // namespace mds
