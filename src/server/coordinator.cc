#include "server/coordinator.h"

#include <algorithm>
#include <limits>
#include <random>
#include <utility>

#include "geom/box.h"

namespace mds {

namespace {

using protocol::MessageHeader;
using protocol::MessageType;

/// chosen_path of a box-like reply no shard executed: every shard was
/// pruned (docs/PROTOCOL.md).
constexpr char kPrunedPath[] = "pruned";

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Failover-retryable statuses: kUnavailable covers overload sheds,
/// draining backends, refused connects and mid-frame closes; kIOError
/// covers transport faults (e.g. a write onto a connection whose peer
/// died); kNotFound is the transport's clean-EOF code (protocol.h) — a
/// replica that crashed or reaped an idle pooled connection closes it at
/// a frame boundary, and mdsd never sends kNotFound as a reply status, so
/// during an exchange it always means "peer went away", not a semantic
/// answer. Anything else is an answer every replica would repeat (or, for
/// kDeadlineExceeded, a bound the client chose).
bool RetryableBackendFailure(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kNotFound;
}

/// Exhaustion failures: RetryableBackendFailure plus a leg read-deadline
/// expiry. The leg bound is the coordinator's own subdivision of the
/// client's budget, so a timed-out leg may still be answered by another
/// replica within what remains — and a shard that fails this way under
/// allow_partial degrades the reply instead of failing it. A semantic
/// error (InvalidArgument, Corruption-as-answer, ...) is neither.
bool ExhaustionFailure(const Status& status) {
  return RetryableBackendFailure(status) ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// Smallest box covering both; an unknown extent (dim 0) absorbs the
/// other, since it may cover anything.
Box BoundsUnion(const Box& a, const Box& b) {
  if (a.dim() == 0 || b.dim() != a.dim()) return Box();
  Box out = a;
  out.Extend(b.lo().data());
  out.Extend(b.hi().data());
  return out;
}

/// What a coordinator reports as its own bounds: the union over shards.
Box FleetBounds(const std::vector<Box>& shard_bounds) {
  Box out = shard_bounds.empty() ? Box() : shard_bounds[0];
  for (const Box& b : shard_bounds) out = BoundsUnion(out, b);
  return out;
}

protocol::QueryReply FromClientResult(QueryClient::QueryResult result) {
  protocol::QueryReply out;
  out.row_count = result.row_count;
  out.objids = std::move(result.objids);
  out.rows_scanned = result.rows_scanned;
  out.pages_fetched = result.pages_fetched;
  out.pages_read = result.pages_read;
  out.pages_skipped = result.pages_skipped;
  out.degraded = result.degraded;
  out.chosen_path = std::move(result.chosen_path);
  return out;
}

/// mdsc's front end: the coordinator's own knobs, plus constants for what
/// it never configured — one I/O loop, no default deadline (a request
/// without one gets sub_deadline_ms per leg instead). Workers are capped
/// at max_in_flight, so every admitted fan-out has a thread.
WireFrontEnd::Options FrontEndOptions(const CoordinatorConfig& config) {
  WireFrontEnd::Options options;
  options.port = config.port;
  options.workers = static_cast<unsigned>(std::min<size_t>(
      config.max_in_flight, std::numeric_limits<unsigned>::max()));
  options.max_in_flight = config.max_in_flight;
  options.max_connections = config.max_connections;
  options.idle_timeout_ms = config.idle_timeout_ms;
  options.io_threads = 1;
  options.default_deadline_ms = 0;
  return options;
}

}  // namespace

// --- shard map -------------------------------------------------------------

Result<ShardMap> ParseShardMap(const std::string& text) {
  ShardMap map;
  std::vector<std::string> shard_specs;
  std::string current;
  for (char c : text) {
    if (c == ';' || c == '\n') {
      shard_specs.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  shard_specs.push_back(current);

  for (const std::string& raw : shard_specs) {
    // Trim whitespace; skip blank and comment lines.
    const size_t b = raw.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const size_t e = raw.find_last_not_of(" \t\r");
    const std::string spec = raw.substr(b, e - b + 1);
    if (spec[0] == '#') continue;

    std::vector<BackendAddress> replicas;
    size_t pos = 0;
    while (pos <= spec.size()) {
      const size_t comma = spec.find(',', pos);
      std::string endpoint = spec.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;

      const size_t eb = endpoint.find_first_not_of(" \t");
      if (eb == std::string::npos) {
        return Status::InvalidArgument("ParseShardMap: empty endpoint in '" +
                                       spec + "'");
      }
      const size_t ee = endpoint.find_last_not_of(" \t");
      endpoint = endpoint.substr(eb, ee - eb + 1);

      const size_t colon = endpoint.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= endpoint.size()) {
        return Status::InvalidArgument("ParseShardMap: endpoint '" + endpoint +
                                       "' is not host:port");
      }
      BackendAddress addr;
      addr.host = endpoint.substr(0, colon);
      unsigned long port = 0;
      try {
        size_t used = 0;
        port = std::stoul(endpoint.substr(colon + 1), &used);
        if (used != endpoint.size() - colon - 1) port = 0;
      } catch (...) {
        port = 0;
      }
      if (port == 0 || port > 65535) {
        return Status::InvalidArgument("ParseShardMap: bad port in '" +
                                       endpoint + "'");
      }
      addr.port = static_cast<uint16_t>(port);
      replicas.push_back(std::move(addr));
    }
    map.shards.push_back(std::move(replicas));
  }
  if (map.shards.empty()) {
    return Status::InvalidArgument("ParseShardMap: no shards");
  }
  return map;
}

// --- merge helpers ---------------------------------------------------------

std::vector<protocol::WireNeighbor> MergeKnnNeighbors(
    const std::vector<std::vector<protocol::WireNeighbor>>& per_shard,
    uint32_t k) {
  std::vector<protocol::WireNeighbor> out;
  std::vector<size_t> cursor(per_shard.size(), 0);
  auto less = [](const protocol::WireNeighbor& a,
                 const protocol::WireNeighbor& b) {
    return a.squared_distance < b.squared_distance ||
           (a.squared_distance == b.squared_distance && a.id < b.id);
  };
  while (out.size() < k) {
    size_t best = per_shard.size();
    for (size_t s = 0; s < per_shard.size(); ++s) {
      if (cursor[s] >= per_shard[s].size()) continue;
      if (best == per_shard.size() ||
          less(per_shard[s][cursor[s]], per_shard[best][cursor[best]])) {
        best = s;
      }
    }
    if (best == per_shard.size()) break;  // every list exhausted
    out.push_back(per_shard[best][cursor[best]++]);
  }
  return out;
}

protocol::QueryReply MergeQueryReplies(
    std::vector<protocol::QueryReply> per_shard, uint64_t limit) {
  protocol::QueryReply out;
  bool first = true;
  bool mixed_path = false;
  for (protocol::QueryReply& shard : per_shard) {
    out.row_count += shard.row_count;
    out.rows_scanned += shard.rows_scanned;
    out.pages_fetched += shard.pages_fetched;
    out.pages_read += shard.pages_read;
    out.pages_skipped += shard.pages_skipped;
    out.degraded = out.degraded || shard.degraded;
    if (first) {
      out.chosen_path = shard.chosen_path;
      first = false;
    } else if (shard.chosen_path != out.chosen_path) {
      mixed_path = true;
    }
    if (out.objids.empty()) {
      out.objids = std::move(shard.objids);
    } else {
      out.objids.insert(out.objids.end(), shard.objids.begin(),
                        shard.objids.end());
    }
  }
  if (mixed_path) out.chosen_path = "mixed";
  if (limit != 0 && out.objids.size() > limit) out.objids.resize(limit);
  return out;
}

// --- lifecycle -------------------------------------------------------------

Coordinator::Coordinator(const ShardMap& map, const CoordinatorConfig& config)
    : config_(config),
      rng_(config.jitter_seed != 0 ? config.jitter_seed
                                   : std::random_device{}()),
      front_(this, FrontEndOptions(config)) {
  shards_.reserve(map.shards.size());
  for (const auto& replicas : map.shards) {
    auto shard = std::make_unique<Shard>();
    // The retry bucket starts full so cold-start failovers (a replica
    // down before any traffic has accrued tokens) are never denied.
    shard->retry_budget_milli.store(
        static_cast<int64_t>(config_.retry_budget_cap) * 1000,
        std::memory_order_relaxed);
    for (const BackendAddress& addr : replicas) {
      auto replica = std::make_unique<Replica>();
      replica->addr = addr;
      shard->replicas.push_back(std::move(replica));
    }
    shards_.push_back(std::move(shard));
  }
}

Coordinator::~Coordinator() { Shutdown(); }

Status Coordinator::Start() {
  if (started_) return Status::FailedPrecondition("Coordinator started twice");
  if (shards_.empty()) {
    return Status::InvalidArgument("Coordinator: empty shard map");
  }
  for (const auto& shard : shards_) {
    if (shard->replicas.empty()) {
      return Status::InvalidArgument("Coordinator: shard with no replicas");
    }
  }

  // Probe each shard: the first reachable replica (in preference order)
  // reports the shard's row count and dimension. Probes do not touch the
  // failure/backoff state — health is driven by request traffic.
  QueryOptions probe;
  probe.deadline_ms = config_.sub_deadline_ms;
  served_rows_ = 0;
  dim_ = 0;
  ShardBounds bounds(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard* shard = shards_[s].get();
    Status last = Status::Unavailable("no replica probed");
    bool probed = false;
    for (const auto& replica : shard->replicas) {
      auto client = QueryClient::Connect(
          replica->addr.host, replica->addr.port, config_.connect_timeout_ms);
      if (!client.ok()) {
        last = client.status();
        continue;
      }
      auto health = client->Health(probe);
      if (!health.ok()) {
        last = health.status();
        continue;
      }
      shard->served_rows = health->served_rows;
      if (dim_ == 0) {
        dim_ = health->dim;
      } else if (health->dim != dim_) {
        return Status::InvalidArgument(
            "Coordinator: shard " + std::to_string(s) + " serves dimension " +
            std::to_string(health->dim) + ", expected " + std::to_string(dim_));
      }
      bounds[s] = ServedBounds(std::move(health->bounds));
      ReleaseClient(replica.get(), std::move(*client));
      probed = true;
      break;
    }
    if (!probed) {
      return AnnotateStatus(last, "Coordinator: shard " + std::to_string(s) +
                                      " has no reachable replica");
    }
    served_rows_ += shard->served_rows;
  }
  PublishBounds(std::move(bounds));

  unsigned fanout = config_.fanout_threads;
  if (fanout == 0) {
    size_t total_replicas = 0;
    for (const auto& shard : shards_) total_replicas += shard->replicas.size();
    fanout = static_cast<unsigned>(
        std::min<size_t>(32, std::max<size_t>(4, 2 * total_replicas)));
  }
  fanout_ = std::make_unique<ThreadPool>(fanout);
  Status started = front_.Start();
  if (!started.ok()) {
    fanout_.reset();
    return started;
  }
  started_ = true;
  return Status::OK();
}

void Coordinator::Shutdown() {
  if (!started_) return;
  front_.Shutdown();  // drains admitted fan-outs, joins workers and loop
  fanout_.reset();    // runs queued attempts, joins pool threads
  for (auto& shard : shards_) {
    for (auto& replica : shard->replicas) {
      std::lock_guard<std::mutex> lock(replica->mu);
      replica->idle.clear();
    }
  }
  started_ = false;
}

void Coordinator::Execute(Request* req) {
  if (req->header.type == MessageType::kReload) {
    HandleReload(*req);
  } else {
    HandleQuery(*req);
  }
}

void Coordinator::FillHealth(protocol::HealthReply* reply) {
  reply->served_rows = served_rows_;
  reply->dim = dim_;
  reply->bounds = FleetBounds(*LoadBounds());
}

void Coordinator::HandleReload(const Request& req) {
  WireReader r(req.body(), req.body_size());
  protocol::ReloadRequest request;
  Status decoded = protocol::DecodeReloadRequest(&r, &request);
  if (decoded.ok()) decoded = r.ExpectEnd();
  if (!decoded.ok()) {
    front_.Finish(req, decoded);
    front_.ReplyError(req, decoded, 0);
    return;
  }
  // One fleet reload at a time: concurrent broadcasts would interleave
  // their swaps across replicas.
  std::lock_guard<std::mutex> lock(reload_mu_);

  QueryOptions options;
  options.deadline_ms = req.deadline_ms;  // 0 = the client's long default

  // Broadcast to every replica of every shard over fresh connections
  // (reloads are rare, and a dataset build would hold a pooled connection
  // for its whole duration). All replicas must succeed: the same refusal
  // taxonomy as the Start() probe, so a half-swapped fleet never serves.
  //
  // Pruning must never skip a shard that holds a qualifying row, and a
  // replica starts serving its new generation before its reply arrives.
  // So as each replica answers, the published bounds of its shard widen to
  // cover old and new; only once every replica has answered do they narrow
  // to the union over the new generation's replicas. A failed broadcast
  // leaves the widened bounds in place.
  protocol::ReloadReply merged;
  merged.old_epoch = UINT64_MAX;
  merged.new_epoch = UINT64_MAX;
  ShardBounds next_bounds(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard* shard = shards_[s].get();
    uint64_t shard_rows = 0;
    for (size_t i = 0; i < shard->replicas.size(); ++i) {
      Replica* replica = shard->replicas[i].get();
      Status failed = Status::OK();
      auto client = QueryClient::Connect(
          replica->addr.host, replica->addr.port, config_.connect_timeout_ms);
      if (!client.ok()) {
        failed = client.status();
      } else {
        auto reply = client->Reload(request.path, options);
        if (!reply.ok()) {
          failed = reply.status();
        } else {
          merged.old_epoch = std::min(merged.old_epoch, reply->old_epoch);
          merged.new_epoch = std::min(merged.new_epoch, reply->new_epoch);
          shard_rows = reply->served_rows;
          const Box reported = ServedBounds(std::move(reply->bounds));
          next_bounds[s] =
              i == 0 ? reported : BoundsUnion(next_bounds[s], reported);
          ShardBounds widened = *LoadBounds();
          widened[s] = BoundsUnion(widened[s], reported);
          PublishBounds(std::move(widened));
        }
      }
      if (!failed.ok()) {
        const Status st = AnnotateStatus(
            failed, "Coordinator: reload of shard " + std::to_string(s) +
                        " replica " + std::to_string(i) + " failed");
        front_.Finish(req, st);
        front_.ReplyError(req, st, 0);
        return;
      }
    }
    shard->served_rows.store(shard_rows);
    merged.served_rows += shard_rows;
  }
  served_rows_.store(merged.served_rows);
  merged.bounds = FleetBounds(next_bounds);
  PublishBounds(std::move(next_bounds));

  front_.Finish(req, Status::OK());
  front_.Reply(req, Status::OK(), 0, [&](WireWriter* w) {
    protocol::EncodeReloadReply(merged, w);
  });
}

void Coordinator::HandleQuery(const Request& req) {
  SubRequest sub;
  sub.arrival = req.arrival;
  Status st = DecodeSubRequest(req.header, req.body(), req.body_size(),
                               req.deadline_ms, &sub);
  protocol::QueryReply merged;
  std::vector<protocol::WireNeighbor> neighbors;
  ScatterOutcome outcome;
  if (st.ok()) {
    st = ScatterGather(sub, &merged, &neighbors, &outcome);
  }
  front_.Finish(req, st);
  if (!st.ok()) {
    front_.ReplyError(req, st, 0);
    return;
  }
  // A partial merge is a degraded answer: both flags, so old clients that
  // only know kFlagDegraded still see "incomplete", and new clients can
  // tell "shards missing" from "pages skipped".
  const uint32_t partial_flags =
      outcome.partial ? (protocol::kFlagPartial | protocol::kFlagDegraded) : 0;
  if (req.header.type == MessageType::kKnn) {
    protocol::KnnReply reply;
    reply.neighbors = std::move(neighbors);
    reply.shards_answered = outcome.answered;
    reply.shards_total = outcome.total;
    reply.shards_mask = outcome.mask;
    front_.Reply(req, st, partial_flags, [&](WireWriter* w) {
      protocol::EncodeKnnReply(reply, w);
    });
  } else {
    merged.shards_answered = outcome.answered;
    merged.shards_total = outcome.total;
    merged.shards_mask = outcome.mask;
    merged.degraded = merged.degraded || outcome.partial;
    const uint32_t flags =
        (merged.degraded ? protocol::kFlagDegraded : 0) | partial_flags;
    front_.Reply(req, st, flags, [&](WireWriter* w) {
      protocol::EncodeQueryReply(merged, w);
    });
  }
}

Status Coordinator::DecodeSubRequest(const MessageHeader& header,
                                     const uint8_t* body, size_t body_len,
                                     uint32_t deadline_ms, SubRequest* out) {
  out->type = header.type;
  out->budget_ms = deadline_ms;
  out->allow_partial = (header.flags & protocol::kFlagAllowPartial) != 0;
  // The per-leg deadline is recomputed from the remaining budget before
  // every backend exchange (LegDeadline); this is only the first leg's
  // upper bound.
  out->options.deadline_ms =
      deadline_ms != 0 ? deadline_ms : config_.sub_deadline_ms;
  out->options.skip_corrupt = (header.flags & protocol::kFlagSkipCorrupt) != 0;
  out->options.force_full_scan =
      (header.flags & protocol::kFlagHintFullScan) != 0;
  out->options.force_index = (header.flags & protocol::kFlagHintIndex) != 0;

  WireReader r(body, body_len);
  switch (header.type) {
    case MessageType::kPointCount:
    case MessageType::kBoxQuery: {
      protocol::BoxQueryRequest query;
      MDS_RETURN_NOT_OK(protocol::DecodeBoxQueryRequest(&r, &query));
      MDS_RETURN_NOT_OK(r.ExpectEnd());
      MDS_RETURN_NOT_OK(protocol::CheckQueryDimension(query.lo.size(), dim_));
      out->lo = std::move(query.lo);
      out->hi = std::move(query.hi);
      out->limit = query.limit;
      return Status::OK();
    }
    case MessageType::kKnn: {
      protocol::KnnRequest knn;
      MDS_RETURN_NOT_OK(protocol::DecodeKnnRequest(&r, &knn));
      MDS_RETURN_NOT_OK(r.ExpectEnd());
      MDS_RETURN_NOT_OK(protocol::CheckQueryDimension(knn.point.size(), dim_));
      // The global bound check lives here: each shard only knows its own
      // rows, so a k between one shard's rows and the total is valid
      // globally while invalid locally (the scatter clamps per-shard k).
      if (knn.k > served_rows_.load()) {
        return Status::InvalidArgument("k " + std::to_string(knn.k) +
                                       " exceeds served rows " +
                                       std::to_string(served_rows_.load()));
      }
      out->point = std::move(knn.point);
      out->k = knn.k;
      return Status::OK();
    }
    case MessageType::kTableSample: {
      protocol::TableSampleRequest sample;
      MDS_RETURN_NOT_OK(protocol::DecodeTableSampleRequest(&r, &sample));
      MDS_RETURN_NOT_OK(r.ExpectEnd());
      MDS_RETURN_NOT_OK(protocol::CheckQueryDimension(sample.lo.size(), dim_));
      out->lo = std::move(sample.lo);
      out->hi = std::move(sample.hi);
      out->percent = sample.percent;
      out->n = sample.n;
      out->sample_seed = sample.seed;
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("not a query type");
  }
}

Status Coordinator::ScatterGather(
    const SubRequest& req, protocol::QueryReply* merged,
    std::vector<protocol::WireNeighbor>* neighbors, ScatterOutcome* outcome) {
  // Attempt jobs (and hedges) can outlive this frame when a late attempt
  // loses the race, so the request template they read is shared, not
  // stack-owned.
  auto shared_req = std::make_shared<const SubRequest>(req);
  auto scatter = std::make_shared<Scatter>();
  const size_t num_shards = shards_.size();
  scatter->calls.resize(num_shards);

  // Per-shard kNN clamp: a shard cannot answer a k beyond its own rows.
  std::vector<uint32_t> shard_k(num_shards, req.k);
  if (req.type == MessageType::kKnn) {
    for (size_t s = 0; s < num_shards; ++s) {
      shard_k[s] = static_cast<uint32_t>(
          std::min<uint64_t>(req.k, shards_[s]->served_rows));
    }
  }

  // Which shards get a leg. A shard that reported no bounds has distance 0
  // and meets every box, so it is never pruned. For kNN this is phase 1:
  // the shard(s) whose box is nearest the probe.
  const bool prune =
      !req.options.force_full_scan && !req.options.force_index;
  std::vector<bool> leg(num_shards, true);
  std::vector<double> box_d2(num_shards, 0.0);
  if (prune) {
    const std::shared_ptr<const ShardBounds> bounds = LoadBounds();
    if (req.type == MessageType::kKnn) {
      double nearest = std::numeric_limits<double>::infinity();
      for (size_t s = 0; s < num_shards; ++s) {
        const Box& b = (*bounds)[s];
        box_d2[s] = b.dim() == 0 ? 0.0 : b.MinSquaredDistance(req.point.data());
        nearest = std::min(nearest, box_d2[s]);
      }
      for (size_t s = 0; s < num_shards; ++s) leg[s] = box_d2[s] == nearest;
    } else {
      const Box query(req.lo, req.hi);
      for (size_t s = 0; s < num_shards; ++s) {
        const Box& b = (*bounds)[s];
        leg[s] = b.dim() == 0 || b.Intersects(query);
      }
    }
  }
  std::vector<size_t> first;
  for (size_t s = 0; s < num_shards; ++s) {
    if (leg[s]) first.push_back(s);
  }

  std::vector<protocol::QueryReply> query_replies;
  std::vector<std::vector<protocol::WireNeighbor>> knn_replies;
  Status failure = Status::OK();
  bool all_failures_exhaustion = true;
  {
    std::unique_lock<std::mutex> lock(scatter->mu);
    LaunchLegs(first, shared_req, shard_k, scatter);
    AwaitLegs(first.size(), shared_req, shard_k, scatter, &lock);

    if (prune && req.type == MessageType::kKnn && first.size() < num_shards) {
      // Phase 2: a shard can hold one of the k nearest only if its box
      // distance is <= the k-th distance found so far. Box and row
      // distances round the same way (DESIGN.md), so no row of a shard
      // past the bound computes closer than its box; ties are visited so
      // the (d2, id) order still decides between shards.
      std::vector<std::vector<protocol::WireNeighbor>> found;
      bool visit_all = false;
      for (size_t s : first) {
        if (!scatter->calls[s].status.ok()) visit_all = true;
        found.push_back(scatter->calls[s].reply.neighbors);
      }
      const auto merged_first = MergeKnnNeighbors(found, req.k);
      if (merged_first.size() < req.k) visit_all = true;
      std::vector<size_t> second;
      for (size_t s = 0; s < num_shards; ++s) {
        if (leg[s]) continue;
        if (visit_all || !(box_d2[s] > merged_first.back().squared_distance)) {
          leg[s] = true;
          second.push_back(s);
        }
      }
      LaunchLegs(second, shared_req, shard_k, scatter);
      AwaitLegs(first.size() + second.size(), shared_req, shard_k, scatter,
                &lock);
    }

    // Extract under the lock: a losing late attempt may still touch its
    // call's bookkeeping fields.
    outcome->total = static_cast<uint32_t>(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      ShardCall& call = scatter->calls[s];
      if (!leg[s]) {
        // Pruned: the shard's bounds prove it holds no qualifying row, so
        // it is answered (with nothing), not missing.
        shards_[s]->pruned.fetch_add(1, std::memory_order_relaxed);
      } else if (!call.status.ok()) {
        // A failed shard fails the request unless the client opted into a
        // partial answer (below) — half a scatter is not a correct answer
        // to any query type. Prefer a retryable failure so clients treat
        // it like a single server's shed.
        if (failure.ok() || RetryableBackendFailure(call.status)) {
          failure = AnnotateStatus(call.status,
                                   "shard " + std::to_string(s) + " failed");
        }
        if (!ExhaustionFailure(call.status)) all_failures_exhaustion = false;
        continue;
      } else if (req.type == MessageType::kKnn) {
        knn_replies.push_back(std::move(call.reply.neighbors));
      } else {
        query_replies.push_back(std::move(call.reply.query));
      }
      ++outcome->answered;
      if (s < 64) outcome->mask |= 1ull << s;
    }
  }
  if (!failure.ok()) {
    // Degraded mode: every missing shard failed by exhaustion (budget
    // spent, breaker open, deadline out — never a semantic error, which
    // all replicas would repeat) and at least one shard answered. Merge
    // the survivors and flag the reply; the counts stay honest over
    // shards_mask.
    if (!req.allow_partial || !all_failures_exhaustion ||
        outcome->answered == 0) {
      return failure;
    }
    outcome->partial = true;
    partial_replies_.fetch_add(1, std::memory_order_relaxed);
  }

  if (req.type == MessageType::kKnn) {
    *neighbors = MergeKnnNeighbors(knn_replies, req.k);
    return Status::OK();
  }
  const bool executed = !query_replies.empty();
  const uint64_t limit =
      req.type == MessageType::kTableSample ? req.n : req.limit;
  *merged = MergeQueryReplies(std::move(query_replies), limit);
  if (!executed) merged->chosen_path = kPrunedPath;
  if (req.type == MessageType::kTableSample) {
    // A single server's sample reply has row_count == returned rows (the
    // TOP(n) cuts sampling short); keep that invariant for the merge.
    merged->row_count = merged->objids.size();
  }
  return Status::OK();
}

void Coordinator::LaunchLegs(const std::vector<size_t>& shards,
                             const std::shared_ptr<const SubRequest>& req,
                             const std::vector<uint32_t>& shard_k,
                             const std::shared_ptr<Scatter>& scatter) {
  const auto now = std::chrono::steady_clock::now();
  for (size_t s : shards) {
    ShardCall& call = scatter->calls[s];
    call.outstanding = 1;
    std::chrono::microseconds delay{0};
    call.hedge_possible = HedgeDelay(*shards_[s], &delay);
    if (call.hedge_possible) call.hedge_at = now + delay;
    fanout_->Submit([this, s, req, k = shard_k[s], scatter] {
      RunAttempt(s, /*replica_offset=*/0, req, k, scatter, s,
                 /*is_hedge=*/false);
    });
  }
}

void Coordinator::AwaitLegs(size_t expected,
                            const std::shared_ptr<const SubRequest>& req,
                            const std::vector<uint32_t>& shard_k,
                            const std::shared_ptr<Scatter>& scatter,
                            std::unique_lock<std::mutex>* lock) {
  // Attempts are bounded by the sub-request deadline (plus the client's
  // exchange slack), so every launched call completes in bounded time.
  // Calls never launched have hedge_possible == false and are skipped.
  while (scatter->done_count < expected) {
    // Earliest pending hedge deadline among live calls, if any.
    bool have_hedge = false;
    std::chrono::steady_clock::time_point next{};
    for (const ShardCall& call : scatter->calls) {
      if (call.done || call.hedged || !call.hedge_possible) continue;
      if (!have_hedge || call.hedge_at < next) {
        next = call.hedge_at;
        have_hedge = true;
      }
    }
    if (!have_hedge) {
      scatter->cv.wait(*lock);
      continue;
    }
    if (scatter->cv.wait_until(*lock, next) != std::cv_status::timeout) {
      continue;
    }
    const auto fire_now = std::chrono::steady_clock::now();
    for (size_t s = 0; s < scatter->calls.size(); ++s) {
      ShardCall& call = scatter->calls[s];
      if (call.done || call.hedged || !call.hedge_possible) continue;
      if (call.hedge_at > fire_now) continue;
      // A hedge is an extra leg like any failover: it needs deadline
      // budget left to be useful and a retry token to be affordable.
      uint32_t leg_deadline = 0;
      if (!LegDeadline(*req, &leg_deadline)) {
        call.hedge_possible = false;
        continue;
      }
      if (!SpendRetryToken(shards_[s].get())) {
        shards_[s]->retries_denied.fetch_add(1, std::memory_order_relaxed);
        call.hedge_possible = false;
        continue;
      }
      call.hedged = true;
      ++call.outstanding;
      shards_[s]->hedges_fired.fetch_add(1, std::memory_order_relaxed);
      fanout_->Submit([this, s, req, k = shard_k[s], scatter] {
        RunAttempt(s, /*replica_offset=*/1, req, k, scatter, s,
                   /*is_hedge=*/true);
      });
    }
  }
}

void Coordinator::RunAttempt(size_t shard_index, size_t replica_offset,
                             std::shared_ptr<const SubRequest> req,
                             uint32_t k_for_shard,
                             std::shared_ptr<Scatter> scatter,
                             size_t call_index, bool is_hedge) {
  Shard* shard = shards_[shard_index].get();
  if (!is_hedge) {
    shard->requests.fetch_add(1, std::memory_order_relaxed);
    AccrueRetryBudget(shard);
  }

  // Walk the replicas in preference order from replica_offset, admitting
  // each through its circuit breaker. Pass 0 honors the breakers; if it
  // admits nothing (every breaker open, probes taken), pass 1 tries them
  // all anyway — a likely-failing attempt beats a certain failure, and
  // one success closes the breaker.
  const size_t n = shard->replicas.size();
  Status last = Status::Unavailable("no replica attempted");
  SubReply reply;
  bool success = false;
  bool attempted = false;
  bool admitted_any = false;
  bool stop = false;
  for (int pass = 0; pass < 2 && !stop; ++pass) {
    if (pass == 1 && admitted_any) break;
    for (size_t i = 0; i < n && !stop; ++i) {
      Replica* replica = shard->replicas[(replica_offset + i) % n].get();
      bool is_probe = false;
      if (pass == 0) {
        const Admit admit = AdmitReplica(replica);
        if (admit == Admit::kSkip) {
          shard->breaker_short_circuits.fetch_add(1,
                                                  std::memory_order_relaxed);
          continue;
        }
        is_probe = admit == Admit::kProbe;
        admitted_any = true;
      }
      {
        // The other attempt may have completed the call while we were
        // failing over; stop burning backends on an answered question.
        std::lock_guard<std::mutex> lock(scatter->mu);
        if (scatter->calls[call_index].done) {
          if (is_probe) EndProbe(replica);
          stop = true;
          break;
        }
      }
      // The leg gets min(remaining budget, sub_deadline_ms): a request
      // that arrived with 100 ms can never spend 500 ms in retries here.
      QueryOptions leg_options = req->options;
      leg_options.exchange_slack_ms = config_.leg_slack_ms;
      if (!LegDeadline(*req, &leg_options.deadline_ms)) {
        last = Status::DeadlineExceeded(
            "deadline budget exhausted before another backend leg");
        if (is_probe) EndProbe(replica);
        stop = true;
        break;
      }
      // A failover leg (any attempt after the first) costs one retry
      // token; a hedge leg paid its token when the hedge fired.
      if (attempted) {
        if (!SpendRetryToken(shard)) {
          shard->retries_denied.fetch_add(1, std::memory_order_relaxed);
          last = Status::Unavailable("shard retry budget exhausted");
          if (is_probe) EndProbe(replica);
          stop = true;
          break;
        }
        shard->failovers.fetch_add(1, std::memory_order_relaxed);
      }
      attempted = true;

      bool aborted = false;
      last = AttemptReplica(shard, replica, *req, leg_options, k_for_shard,
                            &reply, scatter.get(), call_index, &aborted);
      if (is_probe) EndProbe(replica);
      if (aborted) {
        // The other attempt won mid-exchange: the abort is what failed
        // this leg, so its outcome says nothing about the replica.
        stop = true;
        break;
      }
      if (last.ok()) {
        MarkReplicaSuccess(replica);
        success = true;
        stop = true;
        break;
      }
      shard->backend_errors.fetch_add(1, std::memory_order_relaxed);
      if (last.code() == StatusCode::kDeadlineExceeded) {
        leg_timeouts_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!ExhaustionFailure(last)) {
        stop = true;  // semantic error: every replica would repeat it
        break;
      }
      MarkReplicaFailure(replica);
    }
  }

  std::lock_guard<std::mutex> lock(scatter->mu);
  ShardCall& call = scatter->calls[call_index];
  --call.outstanding;
  if (call.done) return;  // the other attempt won; nothing to record
  if (success) {
    call.done = true;
    call.status = Status::OK();
    call.reply = std::move(reply);
    if (is_hedge) {
      shard->hedges_won.fetch_add(1, std::memory_order_relaxed);
    }
    // Reap the losing attempt's in-flight exchange: shut its socket down
    // so its read fails now instead of running out the leg deadline on a
    // connection that must not be pooled anyway. The loser deregisters
    // under this same mutex before destroying its client, so every
    // pointer here is live.
    for (QueryClient* inflight : call.inflight) inflight->Abort();
    ++scatter->done_count;
    scatter->cv.notify_all();
    return;
  }
  call.status = last;
  if (call.outstanding > 0) return;  // a hedge is still in flight
  // Don't wait out a pending hedge timer: this attempt already walked the
  // replicas, so a hedge could only repeat what just failed.
  call.done = true;
  ++scatter->done_count;
  scatter->cv.notify_all();
}

Status Coordinator::AttemptReplica(Shard* shard, Replica* replica,
                                   const SubRequest& req,
                                   const QueryOptions& leg_options,
                                   uint32_t k_for_shard, SubReply* out,
                                   Scatter* scatter, size_t call_index,
                                   bool* aborted) {
  *aborted = false;
  auto client = AcquireClient(replica);
  if (!client.ok()) return client.status();
  QueryClient conn = std::move(*client);

  {
    // Register for the reap protocol: if the other attempt completes the
    // call while this exchange runs, it Abort()s this connection.
    std::lock_guard<std::mutex> lock(scatter->mu);
    ShardCall& call = scatter->calls[call_index];
    if (call.done) {
      *aborted = true;
    } else {
      call.inflight.push_back(&conn);
    }
  }
  if (*aborted) {
    // Never registered, never used: the connection is still poolable.
    ReleaseClient(replica, std::move(conn));
    return Status::Unavailable("attempt aborted: call already answered");
  }

  const auto start = std::chrono::steady_clock::now();
  Status st;
  switch (req.type) {
    case MessageType::kPointCount: {
      auto result = conn.PointCountDetailed(Box(req.lo, req.hi), leg_options);
      if (result.ok()) out->query = FromClientResult(std::move(*result));
      st = result.status();
      break;
    }
    case MessageType::kBoxQuery: {
      auto result = conn.BoxQuery(Box(req.lo, req.hi), req.limit, leg_options);
      if (result.ok()) out->query = FromClientResult(std::move(*result));
      st = result.status();
      break;
    }
    case MessageType::kKnn: {
      auto result = conn.Knn(req.point, k_for_shard, leg_options);
      if (result.ok()) out->neighbors = std::move(result->neighbors);
      st = result.status();
      break;
    }
    case MessageType::kTableSample: {
      auto result = conn.TableSample(Box(req.lo, req.hi), req.percent, req.n,
                                     req.sample_seed, leg_options);
      if (result.ok()) out->query = FromClientResult(std::move(*result));
      st = result.status();
      break;
    }
    default:
      st = Status::Internal("ScatterGather on a non-query type");
      break;
  }

  {
    // Deregister before the winner (or this frame) can invalidate `conn`.
    std::lock_guard<std::mutex> lock(scatter->mu);
    ShardCall& call = scatter->calls[call_index];
    call.inflight.erase(
        std::remove(call.inflight.begin(), call.inflight.end(), &conn),
        call.inflight.end());
    *aborted = call.done;
  }
  if (*aborted) {
    // The winner may have shut this socket down mid-exchange — or right
    // after the exchange finished, which still poisons the connection.
    // Either way it is closed here, never pooled.
    return st.ok() ? Status::Unavailable("attempt aborted by winner")
                   : std::move(st);
  }

  if (st.ok()) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    shard->latency_us.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }
  // A failed exchange poisoned the client (connected() == false) and
  // ReleaseClient only pools connections that are still good; a semantic
  // error from the backend (e.g. InvalidArgument) leaves the connection
  // healthy. The poisoned fd closes when `conn` goes out of scope — after
  // the deregistration above, so no Abort() can race it.
  ReleaseClient(replica, std::move(conn));
  return st;
}

bool Coordinator::LegDeadline(const SubRequest& req,
                              uint32_t* leg_deadline_ms) const {
  if (req.budget_ms == 0) {
    // No client deadline: each leg is bounded by sub_deadline_ms alone
    // (retries are bounded by the retry budget and breakers instead).
    *leg_deadline_ms = config_.sub_deadline_ms;
    return true;
  }
  const auto elapsed = std::chrono::steady_clock::now() - req.arrival;
  const int64_t elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  const int64_t remaining = static_cast<int64_t>(req.budget_ms) - elapsed_ms;
  if (remaining < 1) return false;
  int64_t leg = remaining;
  if (config_.sub_deadline_ms != 0) {
    leg = std::min<int64_t>(leg, config_.sub_deadline_ms);
  }
  *leg_deadline_ms = static_cast<uint32_t>(leg);
  return true;
}

Coordinator::Admit Coordinator::AdmitReplica(Replica* replica) {
  const uint32_t failures =
      replica->consecutive_failures.load(std::memory_order_acquire);
  if (failures < config_.breaker_failure_threshold) return Admit::kClosed;
  const int64_t retry_at = replica->retry_at_ms.load(std::memory_order_acquire);
  if (SteadyNowMs() < retry_at) return Admit::kSkip;  // open
  // Half-open: admit exactly one probe until its outcome lands. The CAS
  // loser skips — a second concurrent attempt must not pile onto a
  // replica that is still proving itself.
  bool expected = false;
  if (replica->probing.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
    return Admit::kProbe;
  }
  return Admit::kSkip;
}

void Coordinator::AccrueRetryBudget(Shard* shard) {
  const int64_t cap = static_cast<int64_t>(config_.retry_budget_cap) * 1000;
  const int64_t add =
      static_cast<int64_t>(config_.retry_budget_ratio * 1000.0);
  if (add <= 0) return;
  int64_t cur = shard->retry_budget_milli.load(std::memory_order_relaxed);
  while (cur < cap && !shard->retry_budget_milli.compare_exchange_weak(
                          cur, std::min<int64_t>(cap, cur + add),
                          std::memory_order_relaxed)) {
  }
}

bool Coordinator::SpendRetryToken(Shard* shard) {
  int64_t cur = shard->retry_budget_milli.load(std::memory_order_relaxed);
  while (cur >= 1000) {
    if (shard->retry_budget_milli.compare_exchange_weak(
            cur, cur - 1000, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

Result<QueryClient> Coordinator::AcquireClient(Replica* replica) {
  {
    std::lock_guard<std::mutex> lock(replica->mu);
    if (!replica->idle.empty()) {
      QueryClient client = std::move(replica->idle.back());
      replica->idle.pop_back();
      return client;
    }
  }
  return QueryClient::Connect(replica->addr.host, replica->addr.port,
                              config_.connect_timeout_ms);
}

void Coordinator::ReleaseClient(Replica* replica, QueryClient client) {
  if (!client.connected()) return;
  std::lock_guard<std::mutex> lock(replica->mu);
  if (replica->idle.size() < config_.pool_connections_per_replica) {
    replica->idle.push_back(std::move(client));
  }
}

void Coordinator::MarkReplicaFailure(Replica* replica) {
  const uint32_t failures =
      replica->consecutive_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  uint64_t base = config_.replica_backoff_ms;
  for (uint32_t i = 1; i < failures && base < config_.replica_backoff_max_ms;
       ++i) {
    base *= 2;
  }
  base = std::min<uint64_t>(base, config_.replica_backoff_max_ms);
  // Equal jitter (base/2 + uniform(0, base/2]): keeps at least half the
  // exponential spacing while desynchronizing the probe times of clients
  // that all watched the same shard restart — a deterministic backoff
  // turns recovery into a synchronized retry storm.
  uint64_t backoff = base;
  if (base >= 2) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    backoff = base / 2 + rng_.NextBounded(base / 2 + 1);
  }
  replica->retry_at_ms.store(SteadyNowMs() + static_cast<int64_t>(backoff),
                             std::memory_order_release);
}

void Coordinator::MarkReplicaSuccess(Replica* replica) {
  replica->consecutive_failures.store(0, std::memory_order_release);
  replica->retry_at_ms.store(0, std::memory_order_release);
}

bool Coordinator::HedgeDelay(const Shard& shard,
                             std::chrono::microseconds* delay) const {
  if (shard.replicas.size() < 2) return false;
  if (config_.hedge_delay_ms != 0) {
    *delay = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::milliseconds(config_.hedge_delay_ms));
    return true;
  }
  const Histogram::Snapshot snap = shard.latency_us.TakeSnapshot();
  if (snap.count < config_.hedge_min_samples) return false;
  // Never hedge instantly even when the shard is very fast: below ~1ms
  // the hedge would routinely lose the race it was meant to win.
  *delay = std::chrono::microseconds(
      std::max<uint64_t>(1000, snap.ValueAtPercentile(99)));
  return true;
}

void Coordinator::AddStats(protocol::ServerStatsSnapshot* out) const {
  out->deadline_timeouts += leg_timeouts_.load(std::memory_order_relaxed);
  out->partial_replies = partial_replies_.load(std::memory_order_relaxed);
  out->shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    protocol::ShardStatsEntry entry;
    entry.replicas = static_cast<uint32_t>(shard->replicas.size());
    for (const auto& replica : shard->replicas) {
      const uint32_t failures =
          replica->consecutive_failures.load(std::memory_order_acquire);
      if (failures < config_.breaker_failure_threshold) continue;
      if (SteadyNowMs() <
          replica->retry_at_ms.load(std::memory_order_acquire)) {
        ++entry.open_breakers;
      } else {
        ++entry.half_open_breakers;
      }
    }
    // Healthy = breaker not open: closed, or half-open (a probe may run).
    entry.healthy_replicas = entry.replicas - entry.open_breakers;
    entry.requests = shard->requests.load(std::memory_order_relaxed);
    entry.backend_errors = shard->backend_errors.load(std::memory_order_relaxed);
    entry.failovers = shard->failovers.load(std::memory_order_relaxed);
    entry.hedges_fired = shard->hedges_fired.load(std::memory_order_relaxed);
    entry.hedges_won = shard->hedges_won.load(std::memory_order_relaxed);
    entry.retries_denied = shard->retries_denied.load(std::memory_order_relaxed);
    entry.breaker_short_circuits =
        shard->breaker_short_circuits.load(std::memory_order_relaxed);
    entry.pruned = shard->pruned.load(std::memory_order_relaxed);
    const Histogram::Snapshot snap = shard->latency_us.TakeSnapshot();
    entry.p50_us = snap.ValueAtPercentile(50);
    entry.p99_us = snap.ValueAtPercentile(99);
    out->shards.push_back(entry);
  }
}

}  // namespace mds
