#include "server/client.h"

#include <errno.h>
#include <poll.h>

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace mds {

namespace {

using protocol::MessageHeader;
using protocol::MessageType;

/// Client-side slack on top of the server-side deadline: the exchange is
/// bounded even when the request deadline is tight, and an unbounded
/// request still cannot hang the client forever.
constexpr uint32_t kIoSlackMs = 2000;
constexpr uint32_t kNoDeadlineIoMs = 120000;

IoDeadline ExchangeDeadline(const QueryOptions& options) {
  return IoDeadline::After(options.deadline_ms == 0
                               ? kNoDeadlineIoMs
                               : options.deadline_ms + kIoSlackMs);
}

/// Lifts a decoded QueryReply (plus its header flags) into the client's
/// result struct — one place for the degraded/partial/coverage mapping.
QueryClient::QueryResult ToQueryResult(protocol::QueryReply decoded,
                                       const MessageHeader& header) {
  QueryClient::QueryResult out;
  out.row_count = decoded.row_count;
  out.objids = std::move(decoded.objids);
  out.rows_scanned = decoded.rows_scanned;
  out.pages_fetched = decoded.pages_fetched;
  out.pages_read = decoded.pages_read;
  out.pages_skipped = decoded.pages_skipped;
  out.degraded =
      decoded.degraded || (header.flags & protocol::kFlagDegraded) != 0;
  out.partial = (header.flags & protocol::kFlagPartial) != 0;
  out.shards_answered = decoded.shards_answered;
  out.shards_total = decoded.shards_total;
  out.shards_mask = decoded.shards_mask;
  out.chosen_path = std::move(decoded.chosen_path);
  return out;
}

}  // namespace

Result<QueryClient> QueryClient::Connect(const std::string& host,
                                         uint16_t port,
                                         uint64_t connect_timeout_ms) {
  auto sock = TcpConnect(host, port, connect_timeout_ms);
  if (!sock.ok()) {
    return AnnotateStatus(sock.status(), "QueryClient::Connect");
  }
  return QueryClient(std::move(*sock));
}

Result<QueryClient> QueryClient::Open(const std::string& host, uint16_t port) {
  auto sock = TcpConnectStart(host, port);
  if (!sock.ok()) return AnnotateStatus(sock.status(), "QueryClient::Open");
  QueryClient client(std::move(*sock));
  client.connecting_ = true;
  return client;
}

uint32_t QueryClient::RequestFlags(const Options& options) {
  uint32_t flags = 0;
  if (options.skip_corrupt) flags |= protocol::kFlagSkipCorrupt;
  if (options.force_full_scan) {
    flags |= protocol::kFlagHintFullScan;
  } else if (options.force_index) {
    flags |= protocol::kFlagHintIndex;
  }
  if (options.allow_partial) flags |= protocol::kFlagAllowPartial;
  return flags;
}

Result<uint64_t> QueryClient::Send(MessageType type, const Options& options,
                                   const std::vector<uint8_t>& body) {
  if (!connected()) {
    return Status::FailedPrecondition("client connection is closed");
  }
  const uint64_t request_id = next_request_id_++;
  std::vector<uint8_t> payload;
  WireWriter w(&payload);
  MessageHeader header;
  header.type = type;
  header.flags = RequestFlags(options);
  header.request_id = request_id;
  EncodeMessageHeader(header, &w);
  w.PutU32(options.deadline_ms);  // RequestPrefix
  w.PutRaw(body.data(), body.size());
  std::vector<uint8_t> frame;
  frame.reserve(protocol::kFramePrefixBytes + payload.size());
  protocol::AppendFrame(payload, &frame);
  bsock_.QueueWrite(std::move(frame));
  outstanding_.emplace_back(request_id, type);
  return request_id;
}

short QueryClient::PollEvents() const {
  return connecting_ || bsock_.has_pending_write() ? POLLOUT : POLLIN;
}

Status QueryClient::Progress(short revents, Reply* reply) {
  reply->ready = false;
  if (!connected()) {
    return Status::FailedPrecondition("client connection is closed");
  }
  if (connecting_) {
    if ((revents & (POLLOUT | POLLERR | POLLHUP)) == 0) return Status::OK();
    Status connected = TcpConnectFinish(&bsock_.socket());
    if (!connected.ok()) return Fail(std::move(connected));
    connecting_ = false;
  }
  if (bsock_.has_pending_write()) {
    switch (bsock_.Flush()) {
      case BufferedSocket::IoResult::kClosed:
        return Fail(Status::Unavailable("connection closed mid-write"));
      case BufferedSocket::IoResult::kError:
        return Fail(Status::IOError("send failed"));
      default:
        break;
    }
  }
  if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0 && !eof_) {
    switch (bsock_.Fill()) {
      case BufferedSocket::IoResult::kClosed:
        eof_ = true;
        break;
      case BufferedSocket::IoResult::kError:
        return Fail(Status::IOError("recv failed"));
      default:
        break;
    }
  }

  size_t frame_bytes = 0;
  Status framed =
      protocol::CheckFrame(bsock_.data(), bsock_.size(), &frame_bytes);
  if (!framed.ok()) return Fail(std::move(framed));
  if (bsock_.size() < frame_bytes) {
    if (!eof_) return Status::OK();
    // A close on a frame boundary is the normal end of a connection (a
    // backend reaping an idle pooled connection); a close inside a frame
    // truncated the reply.
    return Fail(bsock_.size() == 0
                    ? Status::NotFound("connection closed")
                    : Status::Unavailable(
                          "protocol: connection closed mid-frame"));
  }
  reply->payload.assign(bsock_.data() + protocol::kFramePrefixBytes,
                        bsock_.data() + frame_bytes);
  bsock_.Consume(frame_bytes);

  WireReader r(reply->payload);
  Status decoded = DecodeMessageHeader(&r, &reply->header);
  if (!decoded.ok()) return Fail(std::move(decoded));
  const auto due = std::find_if(
      outstanding_.begin(), outstanding_.end(), [&](const auto& request) {
        return request.first == reply->header.request_id;
      });
  if ((reply->header.flags & protocol::kFlagReply) == 0 ||
      due == outstanding_.end() || due->second != reply->header.type) {
    return Fail(Status::Internal("protocol: reply does not match request"));
  }
  outstanding_.erase(due);
  decoded = protocol::DecodeStatus(&r, &reply->status);
  if (!decoded.ok()) return Fail(std::move(decoded));
  reply->body_offset = reply->payload.size() - r.remaining();
  reply->ready = true;
  return Status::OK();
}

Status QueryClient::Expire(const Options& options) {
  // A request that carried a deadline and whose exchange ran out the
  // clock is a deadline miss, not generic unavailability: the caller set
  // the bound, so tell them it elapsed. (Without a caller deadline the
  // long safety bound expiring stays kUnavailable — nobody asked for it.)
  if (options.deadline_ms != 0) {
    return Fail(Status::DeadlineExceeded("deadline of " +
                                         std::to_string(options.deadline_ms) +
                                         "ms elapsed awaiting reply"));
  }
  return Fail(Status::Unavailable("socket deadline expired"));
}

Status QueryClient::Fail(Status st) {
  // The stream is desynchronized (partial frame, timeout, close): this
  // connection cannot be trusted for another exchange.
  bsock_ = BufferedSocket();
  connecting_ = false;
  outstanding_.clear();
  // A reply frame that failed CRC or framing checks means the bytes were
  // damaged in transit, not that the backend answered kCorruption: the
  // connection is closed either way, so surface it as a retryable
  // transport fault rather than a semantic data-corruption verdict.
  if (st.code() == StatusCode::kCorruption ||
      st.code() == StatusCode::kInvalidArgument) {
    st = Status::IOError("reply frame damaged in transit: " + st.message());
  }
  return AnnotateStatus(st, "QueryClient");
}

Status QueryClient::Await(const Options& options, const IoDeadline& deadline,
                          Reply* reply) {
  short revents = 0;
  for (;;) {
    MDS_RETURN_NOT_OK(Progress(revents, reply));
    if (reply->ready) return Status::OK();
    struct pollfd pfd;
    pfd.fd = fd();
    pfd.events = PollEvents();
    pfd.revents = 0;
    const int rc = poll(&pfd, 1, deadline.PollTimeoutMillis());
    if (rc == 0) return Expire(options);
    if (rc < 0 && errno != EINTR) return Fail(Status::IOError("poll failed"));
    revents = rc > 0 ? pfd.revents : 0;
  }
}

Status QueryClient::RoundTrip(MessageType type, const Options& options,
                              const std::vector<uint8_t>& body,
                              Reply* reply) {
  const IoDeadline deadline = ExchangeDeadline(options);
  auto sent = Send(type, options, body);
  if (!sent.ok()) return sent.status();
  MDS_RETURN_NOT_OK(Await(options, deadline, reply));
  return reply->status;
}

Result<uint64_t> QueryClient::PointCount(const Box& box,
                                         const Options& options) {
  auto result = BoxQueryInternal(box, 0, options, MessageType::kPointCount);
  if (!result.ok()) return result.status();
  return result->row_count;
}

Result<QueryClient::QueryResult> QueryClient::PointCountDetailed(
    const Box& box, const Options& options) {
  return BoxQueryInternal(box, 0, options, MessageType::kPointCount);
}

Result<QueryClient::QueryResult> QueryClient::BoxQuery(const Box& box,
                                                       uint64_t limit,
                                                       const Options& options) {
  return BoxQueryInternal(box, limit, options, MessageType::kBoxQuery);
}

Result<QueryClient::QueryResult> QueryClient::BoxQueryInternal(
    const Box& box, uint64_t limit, const Options& options,
    protocol::MessageType type) {
  protocol::BoxQueryRequest req;
  req.lo = box.lo();
  req.hi = box.hi();
  req.limit = limit;
  std::vector<uint8_t> body;
  WireWriter w(&body);
  protocol::EncodeBoxQueryRequest(req, &w);

  Reply reply;
  MDS_RETURN_NOT_OK(RoundTrip(type, options, body, &reply));
  WireReader r = reply.body();
  protocol::QueryReply decoded;
  MDS_RETURN_NOT_OK(DecodeQueryReply(&r, &decoded));
  return ToQueryResult(std::move(decoded), reply.header);
}

Result<QueryClient::KnnResult> QueryClient::Knn(
    const std::vector<double>& point, uint32_t k, const Options& options) {
  protocol::KnnRequest req;
  req.point = point;
  req.k = k;
  std::vector<uint8_t> body;
  WireWriter w(&body);
  protocol::EncodeKnnRequest(req, &w);

  Reply reply;
  MDS_RETURN_NOT_OK(RoundTrip(MessageType::kKnn, options, body, &reply));
  WireReader r = reply.body();
  protocol::KnnReply decoded;
  MDS_RETURN_NOT_OK(DecodeKnnReply(&r, &decoded));
  KnnResult out;
  out.neighbors = std::move(decoded.neighbors);
  out.degraded = (reply.header.flags & protocol::kFlagDegraded) != 0;
  out.partial = (reply.header.flags & protocol::kFlagPartial) != 0;
  out.shards_answered = decoded.shards_answered;
  out.shards_total = decoded.shards_total;
  out.shards_mask = decoded.shards_mask;
  return out;
}

Result<QueryClient::QueryResult> QueryClient::TableSample(
    const Box& box, double percent, uint64_t n, uint64_t seed,
    const Options& options) {
  protocol::TableSampleRequest req;
  req.lo = box.lo();
  req.hi = box.hi();
  req.percent = percent;
  req.n = n;
  req.seed = seed;
  std::vector<uint8_t> body;
  WireWriter w(&body);
  protocol::EncodeTableSampleRequest(req, &w);

  Reply reply;
  MDS_RETURN_NOT_OK(
      RoundTrip(MessageType::kTableSample, options, body, &reply));
  WireReader r = reply.body();
  protocol::QueryReply decoded;
  MDS_RETURN_NOT_OK(DecodeQueryReply(&r, &decoded));
  return ToQueryResult(std::move(decoded), reply.header);
}

std::vector<Result<uint64_t>> QueryClient::PointCountPipeline(
    const std::vector<Box>& boxes, const Options& options) {
  std::vector<Result<QueryResult>> replies =
      PipelineInternal(boxes, 0, options, MessageType::kPointCount);
  std::vector<Result<uint64_t>> out;
  out.reserve(replies.size());
  for (auto& r : replies) {
    if (r.ok()) {
      out.push_back(r->row_count);
    } else {
      out.push_back(r.status());
    }
  }
  return out;
}

std::vector<Result<QueryClient::QueryResult>> QueryClient::BoxQueryPipeline(
    const std::vector<Box>& boxes, uint64_t limit, const Options& options) {
  return PipelineInternal(boxes, limit, options, MessageType::kBoxQuery);
}

std::vector<Result<QueryClient::QueryResult>> QueryClient::PipelineInternal(
    const std::vector<Box>& boxes, uint64_t limit, const Options& options,
    MessageType type) {
  std::vector<Result<QueryResult>> out(
      boxes.size(), Result<QueryResult>(Status::Internal("no reply")));
  std::vector<bool> answered(boxes.size(), false);
  std::unordered_map<uint64_t, size_t> slot_of_id;
  slot_of_id.reserve(boxes.size());

  // Queue every request before any is written: the whole batch leaves in
  // the first Progress (one round trip of request latency for k requests),
  // and one deadline bounds the whole exchange, as for a single request.
  const IoDeadline deadline = ExchangeDeadline(options);
  Status st = Status::OK();
  for (size_t i = 0; i < boxes.size() && st.ok(); ++i) {
    protocol::BoxQueryRequest req;
    req.lo = boxes[i].lo();
    req.hi = boxes[i].hi();
    req.limit = limit;
    std::vector<uint8_t> body;
    WireWriter w(&body);
    protocol::EncodeBoxQueryRequest(req, &w);
    auto sent = Send(type, options, body);
    if (sent.ok()) {
      slot_of_id.emplace(*sent, i);
    } else {
      st = sent.status();
    }
  }

  // Replies are matched by request id: the contract is per-connection
  // completeness, not order (the server interleaves).
  while (st.ok() && !slot_of_id.empty()) {
    Reply reply;
    st = Await(options, deadline, &reply);
    if (!st.ok()) break;
    auto it = slot_of_id.find(reply.header.request_id);
    const size_t slot = it->second;
    slot_of_id.erase(it);
    answered[slot] = true;
    // Per-slot failures (bad request, overload shed, deadline expiry on
    // the server) consume the reply and fail only this slot.
    if (!reply.status.ok()) {
      out[slot] = AnnotateStatus(std::move(reply.status), "QueryClient");
      continue;
    }
    WireReader r = reply.body();
    protocol::QueryReply decoded;
    Status decode = DecodeQueryReply(&r, &decoded);
    if (!decode.ok()) {
      st = Fail(std::move(decode));
      break;
    }
    out[slot] = ToQueryResult(std::move(decoded), reply.header);
  }

  if (!st.ok()) {
    // Transport failure mid-batch (the connection is closed now): fail
    // every slot still awaiting its reply.
    for (size_t i = 0; i < boxes.size(); ++i) {
      if (!answered[i]) out[i] = st;
    }
  }
  return out;
}

Result<QueryClient::HealthResult> QueryClient::Health(const Options& options) {
  Reply reply;
  MDS_RETURN_NOT_OK(RoundTrip(MessageType::kHealth, options, {}, &reply));
  WireReader r = reply.body();
  protocol::HealthReply decoded;
  MDS_RETURN_NOT_OK(DecodeHealthReply(&r, &decoded));
  HealthResult out;
  out.draining = decoded.draining != 0 ||
                 (reply.header.flags & protocol::kFlagDraining) != 0;
  out.served_rows = decoded.served_rows;
  out.dim = decoded.dim;
  out.bounds = std::move(decoded.bounds);
  return out;
}

Result<protocol::ReloadReply> QueryClient::Reload(const std::string& path,
                                                  const Options& options) {
  protocol::ReloadRequest req;
  req.path = path;
  std::vector<uint8_t> body;
  WireWriter w(&body);
  protocol::EncodeReloadRequest(req, &w);

  Reply reply;
  MDS_RETURN_NOT_OK(RoundTrip(MessageType::kReload, options, body, &reply));
  WireReader r = reply.body();
  protocol::ReloadReply decoded;
  MDS_RETURN_NOT_OK(DecodeReloadReply(&r, &decoded));
  return decoded;
}

Result<protocol::ServerStatsSnapshot> QueryClient::ServerStats(
    const Options& options) {
  Reply reply;
  MDS_RETURN_NOT_OK(RoundTrip(MessageType::kStats, options, {}, &reply));
  WireReader r = reply.body();
  protocol::ServerStatsSnapshot decoded;
  MDS_RETURN_NOT_OK(DecodeServerStats(&r, &decoded));
  return decoded;
}

}  // namespace mds
