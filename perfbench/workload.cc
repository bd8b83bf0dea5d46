#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "server/client.h"

namespace perfbench {

namespace {

// Box half-width scales (magnitudes). On the 1M-row catalogue the planner
// keeps the kd-tree up to a half-width of about 3 and prefers the full
// scan from about 4 (the paper's Figure 5 crossover, here at roughly 3/4
// of the rows returned). cold-mix draws most boxes well below it and one
// box in 25 above it, so both paths run; the large boxes all take the full
// scan, whose cost varies little with the box, which keeps p99 (set by
// them) steady. spill-reload leaves them out: while a reload holds one of
// the two workers, a request queued behind a full scan on the other made
// its p99 swing between runs. sharded uses smaller boxes so scatter and
// merge are a visible share of each request.
const WorkloadSpec kSpecs[] = {
    {"cold-mix", 2, false, false, false, 0.02, 0.6, 25, 4.0, 8.0},
    {"hot-zipf", 4, true, false, false, 0.05, 0.6, 0, 0, 0},
    {"spill-reload", 2, false, true, false, 0.02, 0.6, 0, 0, 0},
    {"sharded", 2, false, false, true, 0.02, 0.4, 0, 0, 0},
};

constexpr size_t kHotDistinct = 256;
constexpr size_t kWarmupRequests = 200;
constexpr size_t kSamplesPerClient = 64;

/// Generates one client's ops in shuffled blocks of 60% count, 20% rows
/// and 20% knn, and makes every large_every-th box large, so every stream
/// has the same composition whatever the seed; only which rows are probed
/// and the exact box sizes vary.
class RequestStream {
 public:
  RequestStream(uint64_t rng_seed, const WorkloadSpec& spec,
                const mds::PointSet& points)
      : rng_(rng_seed), spec_(spec), points_(points) {
    if (spec.large_every > 0) large_phase_ = rng_.NextBounded(spec.large_every);
  }

  Request Next() {
    if (next_ == block_.size()) {
      rng_.Shuffle(block_);
      next_ = 0;
    }
    Request r;
    r.op = block_[next_++];
    const float* c = points_.point(rng_.NextBounded(points_.size()));
    if (r.op == kKnn) {
      for (size_t j = 0; j < kDim; ++j) r.lo[j] = r.hi[j] = c[j];
      return r;
    }
    const bool large = spec_.large_every > 0 &&
                       boxes_++ % spec_.large_every == large_phase_;
    const double lo = large ? spec_.large_lo : spec_.width_lo;
    const double hi = large ? spec_.large_hi : spec_.width_hi;
    const double scale =
        std::exp(rng_.NextUniform(std::log(lo), std::log(hi)));
    for (size_t j = 0; j < kDim; ++j) {
      const double half = scale * rng_.NextUniform(0.5, 1.5);
      r.lo[j] = c[j] - half;
      r.hi[j] = c[j] + half;
    }
    return r;
  }

 private:
  mds::Rng rng_;
  const WorkloadSpec& spec_;
  const mds::PointSet& points_;
  std::vector<Op> block_ = {kCount, kCount, kCount, kRows, kKnn};
  size_t next_ = block_.size();  ///< a full block reshuffles first
  uint64_t boxes_ = 0;
  uint64_t large_phase_ = 0;
};

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& s : kSpecs) {
    if (s.name == name) {
      *spec = s;
      return true;
    }
  }
  return false;
}

mds::Box Request::box() const {
  return mds::Box(std::vector<double>(lo.begin(), lo.end()),
                  std::vector<double>(hi.begin(), hi.end()));
}

std::vector<double> Request::point() const {
  return std::vector<double>(lo.begin(), lo.end());
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Plan MakePlan(const WorkloadSpec& spec, uint64_t seed,
              const mds::PointSet& points, double seconds) {
  Plan plan;
  if (spec.hot) {
    RequestStream distinct(Mix64(seed ^ 0x686f74ULL), spec, points);
    for (size_t i = 0; i < kHotDistinct; ++i) {
      plan.pool.push_back(distinct.Next());
      plan.warmup.push_back(static_cast<uint32_t>(i));
    }
    // Zipf(1) popularity over the distinct set.
    std::vector<double> cdf(kHotDistinct);
    double total = 0;
    for (size_t i = 0; i < kHotDistinct; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf[i] = total;
    }
    const size_t per_client = static_cast<size_t>(seconds * 50000) + 1000;
    for (unsigned c = 0; c < spec.clients; ++c) {
      mds::Rng crng(Mix64(seed * 1000003ULL + c + 1));
      ClientPlan cp;
      cp.order.reserve(per_client);
      for (size_t i = 0; i < per_client; ++i) {
        const double u = crng.NextDouble() * total;
        const size_t k = std::lower_bound(cdf.begin(), cdf.end(), u) -
                         cdf.begin();
        cp.order.push_back(static_cast<uint32_t>(
            std::min(k, kHotDistinct - 1)));
      }
      plan.clients.push_back(std::move(cp));
    }
    plan.sample_every = 512;
    return plan;
  }

  // Unique requests: every client gets its own stream, sized well past
  // what a run can consume so no request repeats (a repeat would be a
  // response-cache hit and change what the workload measures).
  for (unsigned c = 0; c < spec.clients; ++c) {
    RequestStream stream(Mix64(seed * 1000003ULL + c + 1), spec, points);
    const size_t n = static_cast<size_t>(seconds * 3000) + 20000;
    ClientPlan cp;
    cp.order.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      cp.order.push_back(static_cast<uint32_t>(plan.pool.size()));
      plan.pool.push_back(stream.Next());
    }
    plan.clients.push_back(std::move(cp));
  }
  RequestStream warm(Mix64(seed ^ 0x7761726dULL), spec, points);
  for (size_t i = 0; i < kWarmupRequests; ++i) {
    plan.warmup.push_back(static_cast<uint32_t>(plan.pool.size()));
    plan.pool.push_back(warm.Next());
  }
  plan.sample_every = 32;
  return plan;
}

namespace {

struct ClientState {
  std::array<std::vector<int64_t>, kNumOps> latency_ns;
  std::vector<uint64_t> ok_per_slice;
  uint64_t attempted = 0, ok = 0, failed = 0, rejected = 0;
  std::vector<SampledReply> samples;
  std::vector<WireSpan> spans;
  std::vector<std::string> errors;
};

void Count(std::vector<uint64_t>* slices, Clock::time_point start,
           Clock::time_point at) {
  const size_t i = static_cast<size_t>(ElapsedS(start, at) / kSliceS);
  if (slices->size() <= i) slices->resize(i + 1);
  ++(*slices)[i];
}

void NoteFailure(const mds::Status& st, ClientState* s) {
  ++s->failed;
  if (st.code() == mds::StatusCode::kUnavailable) ++s->rejected;
  if (s->errors.size() < 4) s->errors.push_back(st.ToString());
}

}  // namespace

LoadResult RunClosedLoop(uint16_t port, const Plan& plan, double seconds,
                         uint64_t seed, bool trace, Cursors* cursors) {
  const size_t n = plan.clients.size();
  if (cursors->size() != n) cursors->assign(n, 0);
  std::vector<ClientState> state(n);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start, deadline;
  std::vector<std::thread> threads;

  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClientState& s = state[c];
      const ClientPlan& cp = plan.clients[c];
      size_t& pos = (*cursors)[c];
      auto client = mds::QueryClient::Connect("127.0.0.1", port);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (!client.ok()) {
        NoteFailure(client.status(), &s);
        return;
      }
      // Reserved up front (only the pages written become resident), so
      // rss_peak_mb grows with the sample count, not in doubling steps.
      for (auto& v : s.latency_ns) v.reserve(cp.order.size());
      auto sampled = [&](size_t p) {
        return s.samples.size() < kSamplesPerClient &&
               Mix64(seed ^ (uint64_t{c} << 48) ^ p) % plan.sample_every == 0;
      };
      const uint64_t id_base = uint64_t{c} << 40;
      while (Clock::now() < deadline) {
        if (!client->connected()) {
          client = mds::QueryClient::Connect("127.0.0.1", port);
          if (!client.ok()) {
            NoteFailure(client.status(), &s);
            return;
          }
        }
        const uint32_t ri = cp.order[pos % cp.order.size()];
        const Request& req = plan.pool[ri];
        ++s.attempted;
        mds::Status st = mds::Status::OK();
        SampledReply reply;
        reply.request = ri;
        const auto t0 = Clock::now();
        switch (req.op) {
          case kCount: {
            auto r = client->PointCount(req.box());
            if (r.ok()) reply.row_count = *r;
            st = r.status();
            break;
          }
          case kRows: {
            auto r = client->BoxQuery(req.box(), kRowsLimit);
            if (r.ok()) {
              reply.row_count = r->row_count;
              reply.objids = std::move(r->objids);
            }
            st = r.status();
            break;
          }
          case kKnn: {
            auto r = client->Knn(req.point(), kKnnK);
            if (r.ok()) reply.neighbors = std::move(r->neighbors);
            st = r.status();
            break;
          }
        }
        const auto t1 = Clock::now();
        if (!st.ok()) {
          NoteFailure(st, &s);
        } else {
          ++s.ok;
          Count(&s.ok_per_slice, start, t1);
          s.latency_ns[req.op].push_back(ElapsedNs(t0, t1));
          if (trace) {
            s.spans.push_back({id_base | pos, ElapsedNs(start, t0),
                               ElapsedNs(start, t1)});
          }
          if (sampled(pos)) s.samples.push_back(std::move(reply));
        }
        ++pos;
      }
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  LoadResult out;
  out.wall_s = ElapsedS(start, Clock::now());
  for (ClientState& s : state) {
    for (size_t op = 0; op < kNumOps; ++op) {
      out.latency_ns[op].insert(out.latency_ns[op].end(),
                                s.latency_ns[op].begin(),
                                s.latency_ns[op].end());
    }
    if (out.ok_per_slice.size() < s.ok_per_slice.size()) {
      out.ok_per_slice.resize(s.ok_per_slice.size());
    }
    for (size_t i = 0; i < s.ok_per_slice.size(); ++i) {
      out.ok_per_slice[i] += s.ok_per_slice[i];
    }
    out.attempted += s.attempted;
    out.ok += s.ok;
    out.failed += s.failed;
    out.rejected += s.rejected;
    for (auto& r : s.samples) out.samples.push_back(std::move(r));
    out.spans.insert(out.spans.end(), s.spans.begin(), s.spans.end());
    for (auto& e : s.errors) {
      if (out.errors.size() < 8) out.errors.push_back(e);
    }
  }
  for (size_t c = 0; c < n; ++c) {
    if ((*cursors)[c] > plan.clients[c].order.size()) {
      std::fprintf(stderr,
                   "warning: client %zu wrapped its request sequence\n", c);
    }
  }
  return out;
}

uint64_t RunWarmup(uint16_t port, const Plan& plan) {
  auto client = mds::QueryClient::Connect("127.0.0.1", port);
  if (!client.ok()) return plan.warmup.size();
  uint64_t failed = 0;
  for (uint32_t ri : plan.warmup) {
    const Request& req = plan.pool[ri];
    bool ok = false;
    switch (req.op) {
      case kCount:
        ok = client->PointCount(req.box()).ok();
        break;
      case kRows:
        ok = client->BoxQuery(req.box(), kRowsLimit).ok();
        break;
      case kKnn:
        ok = client->Knn(req.point(), kKnnK).ok();
        break;
    }
    if (!ok) ++failed;
  }
  return failed;
}

}  // namespace perfbench
