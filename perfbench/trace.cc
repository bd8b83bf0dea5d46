#include "trace.h"

#include <algorithm>
#include <memory>

#include "core/access_path.h"
#include "core/knn.h"
#include "core/query_planner.h"
#include "deploy.h"
#include "geom/polyhedron.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/response_cache.h"
#include "server/wire.h"

namespace perfbench {

namespace proto = mds::protocol;

const char* LayerName(Layer layer) {
  switch (layer) {
    case kLayerRequest:
      return "request (replay glue)";
    case kLayerEncode:
      return "server/protocol encode";
    case kLayerDecode:
      return "server/protocol decode";
    case kLayerCacheLookup:
      return "server/response_cache lookup";
    case kLayerCacheInsert:
      return "server/response_cache insert";
    case kLayerPlanner:
      return "core/query_planner";
    case kLayerScan:
      return "core/access_path+storage/range_scanner";
    case kLayerKnn:
      return "core/knn+simd_dist";
    case kNumLayers:
      break;
  }
  return "?";
}

namespace {

/// Spans of one single-threaded replay. Scopes nest; a scope's parent is
/// the innermost scope open when it started.
class SpanRecorder {
 public:
  class Scope {
   public:
    Scope(SpanRecorder* rec, Layer layer) : rec_(rec) {
      start_ = Clock::now();
      if (rec_->recording_) {
        index_ = rec_->spans_.size();
        Span s;
        s.request_id = rec_->request_id_;
        s.layer = layer;
        s.parent = rec_->stack_.empty() ? static_cast<uint32_t>(index_)
                                        : rec_->stack_.back();
        s.start_ns = ElapsedNs(rec_->epoch_, start_);
        rec_->spans_.push_back(s);
        rec_->stack_.push_back(static_cast<uint32_t>(index_));
      }
    }
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Ends the span early; returns its duration in ns.
    int64_t Close() {
      if (closed_) return dur_;
      closed_ = true;
      const auto end = Clock::now();
      dur_ = ElapsedNs(start_, end);
      if (rec_->recording_) {
        rec_->spans_[index_].end_ns = ElapsedNs(rec_->epoch_, end);
        rec_->stack_.pop_back();
      }
      return dur_;
    }

   private:
    SpanRecorder* rec_;
    Clock::time_point start_;
    size_t index_ = 0;
    bool closed_ = false;
    int64_t dur_ = 0;
  };

  void BeginRequest(uint64_t id, bool recording) {
    request_id_ = id;
    recording_ = recording;
  }
  std::vector<Span> Take() { return std::move(spans_); }

 private:
  friend class Scope;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
  uint64_t request_id_ = 0;
  bool recording_ = false;
};

using Scope = SpanRecorder::Scope;

/// What a box execution ran, for the regret ratio.
struct BoxExecution {
  bool ran = false;
  bool kd = false;
  double exec_ns = 0;
};

/// One leg's execution of a cache-missing request: the server's
/// ExecuteBoxLike / ExecuteKnn split at the layer boundaries.

std::vector<uint8_t> ExecuteLeg(const Request& req,
                                const mds::ServedDataset& ds,
                                SpanRecorder* rec, ReplayResult* out,
                                BoxExecution* exec) {
  std::vector<uint8_t> tail;
  mds::WireWriter w(&tail);
  if (req.op == kKnn) {
    mds::KdKnnSearcher searcher(&ds.tree());
    mds::KnnStats ks;
    const std::vector<double> p = req.point();
    std::vector<mds::Neighbor> found;
    {
      Scope s(rec, kLayerKnn);
      found = searcher.BoundaryGrow(p.data(), kKnnK, &ks);
      out->knn_ns += s.Close();
    }
    ++out->knn_executions;
    out->leaves_examined += ks.leaves_examined;
    out->points_examined += ks.points_examined;
    out->top_k_pruned += ks.top_k_pruned;
    out->distance_evals += ks.points_examined + ks.boundary_points_checked;
    proto::KnnReply reply;
    for (const mds::Neighbor& n : found) {
      reply.neighbors.push_back(
          {static_cast<int64_t>(n.id), n.squared_distance});
    }
    Scope s(rec, kLayerEncode);
    proto::EncodeStatus(mds::Status::OK(), &w);
    proto::EncodeKnnReply(reply, &w);
    return tail;
  }

  // Path construction is planning too (KdTreePath walks the tree in its
  // constructor), so it sits inside the planner span as it does in the
  // server's ExecuteBoxLike. The predicate keeps a pointer to `poly`.
  const mds::Box box = req.box();
  const mds::Polyhedron poly = mds::Polyhedron::FromBox(box);
  mds::QueryPlanner planner;
  mds::AccessPath* paths[2] = {nullptr, nullptr};
  size_t chosen = 0;
  {
    Scope s(rec, kLayerPlanner);
    auto full = std::make_unique<mds::FullScanPath>(ds.binding(), box);
    auto kd = std::make_unique<mds::KdTreePath>(ds.binding(), ds.tree(), poly);
    paths[0] = full.get();
    paths[1] = kd.get();
    planner.AddPath(std::move(full)).AddPath(std::move(kd));
    auto best = planner.ChooseBest();
    out->choose_ns += s.Close();
    if (!best.ok()) return {};
    chosen = *best;
  }
  if (chosen == 1) ++out->kd_chosen;
  mds::QueryStats qs;
  mds::Result<mds::StorageQueryResult> result =
      mds::Status::Internal("not executed");
  {
    const mds::CounterSnapshot before = ds.pool()->Snapshot();
    Scope s(rec, kLayerScan);
    result = mds::ExecuteAccessPath(paths[chosen], &qs);
    exec->exec_ns = static_cast<double>(s.Close());
    out->exec_ns += exec->exec_ns;
    const auto delta = ds.pool()->Delta(before);
    out->pool_logical += delta.logical_reads;
    out->pool_physical += delta.physical_reads;
    out->pool_checksums += delta.checksums_verified;
  }
  if (!result.ok()) return {};
  exec->ran = true;
  exec->kd = chosen == 1;
  ++out->box_executions;
  out->rows_scanned += qs.rows_scanned;
  out->rows_emitted += qs.rows_emitted;
  out->pages_fetched += qs.pages_fetched;
  out->ranges_partial += qs.ranges_partial;

  proto::QueryReply reply;
  reply.row_count = result->objids.size();
  if (req.op == kRows) {
    reply.objids = std::move(result->objids);
    if (reply.objids.size() > kRowsLimit) reply.objids.resize(kRowsLimit);
  }
  reply.rows_scanned = qs.rows_scanned;
  reply.pages_fetched = qs.pages_fetched;
  reply.pages_read = qs.pages_read;
  reply.chosen_path = paths[chosen]->name();
  Scope s(rec, kLayerEncode);
  proto::EncodeStatus(mds::Status::OK(), &w);
  proto::EncodeQueryReply(reply, &w);
  return tail;
}

/// Executes the path the planner passed over, untraced, for the regret
/// ratio; like the chosen path's scan span it times execution only.
double OtherPathNs(const Request& req, const mds::ServedDataset& ds,
                   bool kd_chosen) {
  const mds::Box box = req.box();
  const mds::Polyhedron poly = mds::Polyhedron::FromBox(box);
  std::unique_ptr<mds::AccessPath> path;
  if (kd_chosen) {
    path = std::make_unique<mds::FullScanPath>(ds.binding(), box);
  } else {
    path = std::make_unique<mds::KdTreePath>(ds.binding(), ds.tree(), poly);
  }
  const auto t0 = Clock::now();
  auto r = mds::ExecuteAccessPath(path.get());
  return r.ok() ? static_cast<double>(ElapsedNs(t0, Clock::now())) : 0.0;
}

proto::MessageType WireType(Op op) {
  switch (op) {
    case kCount:
      return proto::MessageType::kPointCount;
    case kRows:
      return proto::MessageType::kBoxQuery;
    case kKnn:
      return proto::MessageType::kKnn;
  }
  return proto::MessageType::kPointCount;
}

void ReplayOne(const Request& req, uint64_t id, bool record,
               const std::vector<const mds::ServedDataset*>& legs,
               std::vector<std::unique_ptr<mds::ResponseCache>>* caches,
               SpanRecorder* rec, ReplayResult* out) {
  rec->BeginRequest(id, record);
  const proto::MessageType type = WireType(req.op);
  std::vector<BoxExecution> executions(legs.size());
  std::vector<uint8_t> wire;
  size_t body_offset = 0;
  {
    Scope root(rec, kLayerRequest);
    {
      Scope s(rec, kLayerEncode);
      mds::WireWriter w(&wire);
      proto::MessageHeader h;
      h.type = type;
      h.request_id = id;
      proto::EncodeMessageHeader(h, &w);
      w.PutU32(0);  // deadline_ms
      if (req.op == kKnn) {
        proto::KnnRequest k;
        k.point = req.point();
        k.k = kKnnK;
        proto::EncodeKnnRequest(k, &w);
      } else {
        proto::BoxQueryRequest b;
        b.lo.assign(req.lo.begin(), req.lo.end());
        b.hi.assign(req.hi.begin(), req.hi.end());
        b.limit = req.op == kRows ? kRowsLimit : 0;
        proto::EncodeBoxQueryRequest(b, &w);
      }
    }
    {
      Scope s(rec, kLayerDecode);
      mds::WireReader r(wire);
      proto::MessageHeader h;
      (void)proto::DecodeMessageHeader(&r, &h);
      body_offset = wire.size() - r.remaining();
      (void)r.GetU32();
      if (req.op == kKnn) {
        proto::KnnRequest k;
        (void)proto::DecodeKnnRequest(&r, &k);
      } else {
        proto::BoxQueryRequest b;
        (void)proto::DecodeBoxQueryRequest(&r, &b);
      }
    }
    const uint8_t* body = wire.data() + body_offset;
    const size_t body_len = wire.size() - body_offset;
    for (size_t leg = 0; leg < legs.size(); ++leg) {
      mds::ResponseCache& cache = *(*caches)[leg];
      mds::ResponseCache::CachedReply hit;
      bool cached = false;
      {
        Scope s(rec, kLayerCacheLookup);
        cached = cache.Lookup(static_cast<uint16_t>(type), 1, body, body_len,
                              &hit);
      }
      if (record) {
        ++out->lookups;
        out->hits += cached ? 1 : 0;
      }
      std::vector<uint8_t> tail;
      if (cached) {
        tail.assign(hit.tail.data(), hit.tail.data() + hit.tail.size());
      } else {
        tail = ExecuteLeg(req, *legs[leg], rec, out, &executions[leg]);
        Scope s(rec, kLayerCacheInsert);
        cache.Insert(static_cast<uint16_t>(type), 1, body, body_len, 0,
                     tail.data(), tail.size());
      }
      Scope s(rec, kLayerDecode);
      mds::WireReader r(tail);
      mds::Status status;
      (void)proto::DecodeStatus(&r, &status);
      if (req.op == kKnn) {
        proto::KnnReply reply;
        (void)proto::DecodeKnnReply(&r, &reply);
      } else {
        proto::QueryReply reply;
        (void)proto::DecodeQueryReply(&r, &reply);
      }
    }
  }
  // Regret: the chosen path's execution time against the faster of the
  // two paths, per leg that executed.
  for (size_t leg = 0; leg < legs.size(); ++leg) {
    const BoxExecution& e = executions[leg];
    if (!e.ran) continue;
    const double best = std::min(e.exec_ns, OtherPathNs(req, *legs[leg], e.kd));
    out->regret_sum += best > 0 ? e.exec_ns / best : 1.0;
  }
}

}  // namespace

ReplayResult Replay(const Plan& plan,
                    const std::vector<const mds::ServedDataset*>& legs,
                    bool replay_warmup, size_t max_requests) {
  ReplayResult out;
  SpanRecorder rec;
  std::vector<std::unique_ptr<mds::ResponseCache>> caches;
  for (size_t i = 0; i < legs.size(); ++i) {
    caches.push_back(std::make_unique<mds::ResponseCache>(kCacheBytes));
  }
  // Unrecorded requests still count in the execution-layer figures: for
  // a hot workload the warm pass is where its misses execute.
  if (replay_warmup) {
    for (uint32_t ri : plan.warmup) {
      ReplayOne(plan.pool[ri], 0, false, legs, &caches, &rec, &out);
    }
  }
  size_t done = 0;
  for (size_t pos = 0; done < max_requests; ++pos) {
    for (size_t c = 0; c < plan.clients.size() && done < max_requests; ++c) {
      const ClientPlan& cp = plan.clients[c];
      const uint32_t ri = cp.order[pos % cp.order.size()];
      ReplayOne(plan.pool[ri], (uint64_t{c} << 40) | pos, true, legs, &caches,
                &rec, &out);
      ++done;
    }
  }
  out.requests = done;
  out.spans = rec.Take();
  std::vector<double> child_ns(out.spans.size(), 0.0);
  for (size_t i = 0; i < out.spans.size(); ++i) {
    const Span& s = out.spans[i];
    if (s.parent != i) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < out.spans.size(); ++i) {
    const Span& s = out.spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    out.self_ns[s.layer] += dur - child_ns[i];
    if (s.parent == i) out.root_ns += dur;
  }
  return out;
}

LegTiming TimeCoordinatorLegs(const Plan& plan, uint16_t coordinator_port,
                              const std::vector<uint16_t>& shard_ports,
                              size_t max_requests) {
  LegTiming t;
  auto coord = mds::QueryClient::Connect("127.0.0.1", coordinator_port);
  if (!coord.ok()) return t;
  std::vector<mds::QueryClient> shards;
  for (uint16_t port : shard_ports) {
    auto c = mds::QueryClient::Connect("127.0.0.1", port);
    if (!c.ok()) return t;
    shards.push_back(std::move(*c));
  }
  // Each request is fresh, so the coordinator's legs miss the backends'
  // response caches. The direct legs that follow repeat those same
  // sub-requests; skip_corrupt makes them uncacheable (and changes
  // nothing else on an undamaged dataset), so they execute as well.
  auto call = [](mds::QueryClient* client, const Request& req,
                 const mds::QueryOptions& options) {
    const auto t0 = Clock::now();
    bool ok = false;
    switch (req.op) {
      case kCount:
        ok = client->PointCount(req.box(), options).ok();
        break;
      case kRows:
        ok = client->BoxQuery(req.box(), kRowsLimit, options).ok();
        break;
      case kKnn:
        ok = client->Knn(req.point(), kKnnK, options).ok();
        break;
    }
    return ok ? ElapsedNs(t0, Clock::now()) / 1e3 : -1.0;
  };
  mds::QueryOptions uncached;
  uncached.skip_corrupt = true;
  double leg_sum = 0, merge_sum = 0;
  uint64_t legs = 0;
  const ClientPlan& cp = plan.clients[0];
  // Positions from the end of the stream: never sent by the wire windows.
  for (size_t i = 0; i < max_requests && i < cp.order.size(); ++i) {
    const Request& req = plan.pool[cp.order[cp.order.size() - 1 - i]];
    const double via_coord = call(&*coord, req, mds::QueryOptions{});
    double slowest = 0;
    bool ok = via_coord >= 0;
    for (auto& shard : shards) {
      const double leg = call(&shard, req, uncached);
      ok = ok && leg >= 0;
      slowest = std::max(slowest, leg);
      leg_sum += leg;
      ++legs;
    }
    if (!ok) return LegTiming{};
    merge_sum += via_coord - slowest;
    ++t.requests;
  }
  if (t.requests > 0) {
    t.leg_us = leg_sum / legs;
    t.merge_us = merge_sum / t.requests;
  }
  return t;
}

}  // namespace perfbench
