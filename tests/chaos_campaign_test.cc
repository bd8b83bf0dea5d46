// Seeded chaos campaign over mdsc + mdsd: every byte between the
// coordinator and its backends crosses a fault-injecting proxy
// (tests/chaos/harness.h), and every client request must terminate
// within its deadline budget as exactly one of
//   - a full reply, byte-identical to the all-shards oracle,
//   - a correctly flagged partial reply, byte-identical to the
//     surviving-shard oracle (only when the client sent allow_partial),
//   - an honest retryable error,
// never a hang and never a silently wrong merge. Deterministic tests
// then pin the individual mechanisms: the deadline budget strictly
// decreasing across backend legs, a 100 ms deadline honored under a
// blackholed replica, exact deadline_timeouts/failovers accounting for a
// slow-but-alive backend, hedge-loser connection hygiene, and the
// partial-reply oracle check.
//
// Environment knobs (CI runs a seed matrix):
//   MDS_CHAOS_SEED      campaign seed         (default 1)
//   MDS_CHAOS_REQUESTS  requests per fault mix (default 160)

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/harness.h"
#include "geom/box.h"
#include "sdss/catalog.h"
#include "server/client.h"
#include "server/coordinator.h"
#include "server/dataset.h"
#include "server/protocol.h"
#include "server/server.h"

namespace mds {
namespace {

using chaos::ChaosCluster;
using protocol::WireNeighbor;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

int64_t ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// The failure codes the coordinator may honestly hand a client when
/// backends fail under it: retryable transport/shed codes plus a spent
/// deadline. Anything else (kCorruption leaking through the transport,
/// kInternal, a surprise kInvalidArgument) is a bug the campaign flags.
bool HonestFailure(const Status& st) {
  switch (st.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kIOError:
    case StatusCode::kNotFound:
      return true;
    default:
      return false;
  }
}

protocol::QueryReply ToWire(const QueryClient::QueryResult& r) {
  protocol::QueryReply w;
  w.row_count = r.row_count;
  w.objids = r.objids;
  w.rows_scanned = r.rows_scanned;
  w.pages_fetched = r.pages_fetched;
  w.pages_read = r.pages_read;
  w.pages_skipped = r.pages_skipped;
  w.degraded = r.degraded;
  w.chosen_path = r.chosen_path;
  return w;
}

// --- the campaign fixture --------------------------------------------------

class ChaosCampaignTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 20000;
  static constexpr uint64_t kDataSeed = 7;
  static constexpr size_t kShards = 2;
  static constexpr uint32_t kDeadlineMs = 2000;

  /// One request shape plus its per-shard oracle replies, precomputed
  /// over direct (unproxied) backends, so any surviving-shard subset can
  /// be merged with the coordinator's own exported merge helpers and
  /// byte-compared.
  struct Shape {
    enum Kind { kCount, kBox, kKnn, kSample };
    Kind kind;
    Box box;
    uint64_t limit = 0;
    std::vector<double> point;
    uint32_t k = 0;
    double percent = 10.0;
    uint64_t n = 50;
    uint64_t sample_seed = 123;
    std::vector<protocol::QueryReply> shard_replies;
    std::vector<std::vector<WireNeighbor>> shard_neighbors;
    Shape(Kind kind_arg, Box box_arg) : kind(kind_arg), box(std::move(box_arg)) {}
  };

  static void SetUpTestSuite() {
    for (uint32_t s = 0; s < kShards; ++s) {
      DatasetConfig config;
      config.num_rows = kRows;
      config.seed = kDataSeed;
      config.shard_index = s;
      config.shard_count = kShards;
      auto built = ServedDataset::Build(config);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      shard_[s] = std::make_shared<ServedDataset>(std::move(*built));
    }
    BuildShapes();
  }

  static void TearDownTestSuite() {
    delete shapes_;
    shapes_ = nullptr;
    for (auto& d : shard_) d.reset();
  }

  static Box LocusBox(double half_width) {
    double mags[kNumBands];
    StellarLocus(0.5, 0.0, mags);
    std::vector<double> lo(mags, mags + kNumBands);
    std::vector<double> hi = lo;
    for (size_t j = 0; j < kNumBands; ++j) {
      lo[j] -= half_width;
      hi[j] += half_width;
    }
    return Box(lo, hi);
  }

  /// Query options a campaign request of this shape uses. Box queries pin
  /// the access path so each shard's emit order (hence the merge) is
  /// deterministic; the oracle below pins the same path.
  static QueryOptions ShapeOptions(const Shape& shape, bool allow_partial) {
    QueryOptions opt;
    opt.deadline_ms = kDeadlineMs;
    opt.allow_partial = allow_partial;
    if (shape.kind == Shape::kBox) opt.force_index = true;
    return opt;
  }

  /// Precomputes each shape's per-shard replies through short-lived
  /// direct servers — the same sub-requests the coordinator issues
  /// (per-shard kNN k clamped to the shard's rows, limits passed
  /// through).
  static void BuildShapes() {
    shapes_ = new std::vector<Shape>;
    {
      Shape count(Shape::kCount, LocusBox(0.5));
      shapes_->push_back(std::move(count));
      Shape all_rows(Shape::kBox, LocusBox(0.8));
      shapes_->push_back(std::move(all_rows));
      Shape limited(Shape::kBox, LocusBox(0.6));
      limited.limit = 7;
      shapes_->push_back(std::move(limited));
      Shape knn(Shape::kKnn, LocusBox(0.1));
      double target[kNumBands];
      StellarLocus(0.62, 0.3, target);
      knn.point.assign(target, target + kNumBands);
      knn.k = 50;
      shapes_->push_back(std::move(knn));
      Shape sample(Shape::kSample, LocusBox(0.8));
      shapes_->push_back(std::move(sample));
    }

    for (size_t s = 0; s < kShards; ++s) {
      QueryServer server(shard_[s], ServerConfig{});
      ASSERT_TRUE(server.Start().ok());
      auto client = QueryClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      for (Shape& shape : *shapes_) {
        const QueryOptions opt = ShapeOptions(shape, false);
        switch (shape.kind) {
          case Shape::kCount: {
            auto r = client->PointCountDetailed(shape.box, opt);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            shape.shard_replies.push_back(ToWire(*r));
            break;
          }
          case Shape::kBox: {
            auto r = client->BoxQuery(shape.box, shape.limit, opt);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            shape.shard_replies.push_back(ToWire(*r));
            break;
          }
          case Shape::kKnn: {
            const uint32_t k_shard = static_cast<uint32_t>(
                std::min<uint64_t>(shape.k, shard_[s]->num_rows()));
            auto r = client->Knn(shape.point, k_shard, opt);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            shape.shard_neighbors.push_back(std::move(r->neighbors));
            break;
          }
          case Shape::kSample: {
            auto r = client->TableSample(shape.box, shape.percent, shape.n,
                                         shape.sample_seed, opt);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            shape.shard_replies.push_back(ToWire(*r));
            break;
          }
        }
      }
      server.Shutdown();
    }
  }

  /// Oracle merge over the shards in `mask`, via the coordinator's own
  /// exported merge helpers.
  static protocol::QueryReply ExpectedQuery(const Shape& shape, uint64_t mask) {
    std::vector<protocol::QueryReply> parts;
    for (size_t s = 0; s < kShards; ++s) {
      if (mask & (1ull << s)) parts.push_back(shape.shard_replies[s]);
    }
    const uint64_t limit =
        shape.kind == Shape::kSample ? shape.n : shape.limit;
    protocol::QueryReply merged = MergeQueryReplies(std::move(parts), limit);
    if (shape.kind == Shape::kSample) merged.row_count = merged.objids.size();
    return merged;
  }

  static std::vector<WireNeighbor> ExpectedKnn(const Shape& shape,
                                               uint64_t mask) {
    std::vector<std::vector<WireNeighbor>> parts;
    for (size_t s = 0; s < kShards; ++s) {
      if (mask & (1ull << s)) parts.push_back(shape.shard_neighbors[s]);
    }
    return MergeKnnNeighbors(parts, shape.k);
  }

  /// Coverage invariants every OK reply must satisfy.
  static void CheckCoverage(bool allow_partial, bool partial, bool degraded,
                            uint32_t answered, uint32_t total, uint64_t mask) {
    EXPECT_EQ(total, kShards);
    EXPECT_EQ(static_cast<uint32_t>(__builtin_popcountll(mask)), answered);
    if (partial) {
      EXPECT_TRUE(allow_partial) << "partial reply without client opt-in";
      EXPECT_TRUE(degraded) << "partial reply must also carry kFlagDegraded";
      EXPECT_GE(answered, 1u);
      EXPECT_LT(answered, total);
    } else {
      EXPECT_EQ(answered, total);
      EXPECT_EQ(mask, (1ull << kShards) - 1);
    }
  }

  struct Tally {
    std::atomic<uint64_t> ok_full{0};
    std::atomic<uint64_t> ok_partial{0};
    std::atomic<uint64_t> errors{0};
  };

  /// One campaign worker: a closed loop of rotating request shapes,
  /// alternating allow_partial, classifying every outcome against the
  /// oracle. Reconnects after transport failures like a real client.
  static void Worker(ChaosCluster& cluster, int worker, uint64_t requests,
                     Tally* tally) {
    auto connect = [&]() -> Result<QueryClient> {
      return QueryClient::Connect("127.0.0.1", cluster.port());
    };
    auto client = connect();
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    for (uint64_t i = 0; i < requests; ++i) {
      if (!client->connected()) {
        client = connect();
        ASSERT_TRUE(client.ok()) << client.status().ToString();
      }
      const Shape& shape =
          (*shapes_)[(static_cast<uint64_t>(worker) + i) % shapes_->size()];
      const bool allow_partial = (i % 2) == 0;
      const QueryOptions opt = ShapeOptions(shape, allow_partial);
      SCOPED_TRACE("worker " + std::to_string(worker) + " request " +
                   std::to_string(i) + " shape kind " +
                   std::to_string(shape.kind) +
                   (allow_partial ? " allow_partial" : ""));

      const auto start = std::chrono::steady_clock::now();
      Status st = Status::OK();
      switch (shape.kind) {
        case Shape::kCount: {
          auto r = client->PointCountDetailed(shape.box, opt);
          st = r.status();
          if (r.ok()) {
            CheckCoverage(allow_partial, r->partial, r->degraded,
                          r->shards_answered, r->shards_total, r->shards_mask);
            EXPECT_EQ(r->row_count,
                      ExpectedQuery(shape, r->shards_mask).row_count);
            (r->partial ? tally->ok_partial : tally->ok_full)
                .fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
        case Shape::kBox: {
          auto r = client->BoxQuery(shape.box, shape.limit, opt);
          st = r.status();
          if (r.ok()) {
            CheckCoverage(allow_partial, r->partial, r->degraded,
                          r->shards_answered, r->shards_total, r->shards_mask);
            const protocol::QueryReply want =
                ExpectedQuery(shape, r->shards_mask);
            EXPECT_EQ(r->row_count, want.row_count);
            EXPECT_EQ(r->objids, want.objids);
            (r->partial ? tally->ok_partial : tally->ok_full)
                .fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
        case Shape::kKnn: {
          auto r = client->Knn(shape.point, shape.k, opt);
          st = r.status();
          if (r.ok()) {
            CheckCoverage(allow_partial, r->partial, r->degraded,
                          r->shards_answered, r->shards_total, r->shards_mask);
            const std::vector<WireNeighbor> want =
                ExpectedKnn(shape, r->shards_mask);
            ASSERT_EQ(r->neighbors.size(), want.size());
            for (size_t j = 0; j < want.size(); ++j) {
              EXPECT_EQ(r->neighbors[j].id, want[j].id) << j;
              EXPECT_EQ(r->neighbors[j].squared_distance,
                        want[j].squared_distance)
                  << j;
            }
            (r->partial ? tally->ok_partial : tally->ok_full)
                .fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
        case Shape::kSample: {
          auto r = client->TableSample(shape.box, shape.percent, shape.n,
                                       shape.sample_seed, opt);
          st = r.status();
          if (r.ok()) {
            CheckCoverage(allow_partial, r->partial, r->degraded,
                          r->shards_answered, r->shards_total, r->shards_mask);
            const protocol::QueryReply want =
                ExpectedQuery(shape, r->shards_mask);
            EXPECT_EQ(r->row_count, want.row_count);
            EXPECT_EQ(r->objids, want.objids);
            (r->partial ? tally->ok_partial : tally->ok_full)
                .fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
      }
      if (!st.ok()) {
        EXPECT_TRUE(HonestFailure(st)) << st.ToString();
        tally->errors.fetch_add(1, std::memory_order_relaxed);
      }
      // Terminate-within-deadline: the coordinator's legs are budgeted to
      // kDeadlineMs, so well before the client's own exchange bound
      // (deadline + 2 s slack) there must be an answer. A request that
      // rides the client bound means the coordinator wedged.
      EXPECT_LT(ElapsedMs(start), static_cast<int64_t>(kDeadlineMs) + 1500)
          << "request exceeded deadline + slack: coordinator hang";
    }
  }

  /// Runs one fault mix: a fresh cluster (fresh breakers and budgets),
  /// the policy applied to every link, 4 workers classifying every
  /// reply. Returns the totals for mix-specific assertions.
  struct MixReport {
    Tally tally;
    ChaosProxy::Counters faults;
  };

  void RunMix(const char* name, const ChaosPolicy& policy, MixReport* report) {
    const uint64_t seed = EnvU64("MDS_CHAOS_SEED", 1);
    const uint64_t requests = EnvU64("MDS_CHAOS_REQUESTS", 160);
    SCOPED_TRACE(std::string("mix ") + name + " seed " + std::to_string(seed));

    CoordinatorConfig config;
    config.sub_deadline_ms = 250;
    config.jitter_seed = seed;
    // Every leg makes a fresh backend connection, so every leg draws a
    // per-connection fault fate — a fault-free pooled steady state would
    // sidestep reset/blackhole mixes entirely.
    config.pool_connections_per_replica = 0;
    ChaosCluster cluster({{shard_[0], shard_[0]}, {shard_[1], shard_[1]}},
                         seed * 1000, config);
    ASSERT_TRUE(cluster.Start().ok());
    cluster.ApplyPolicyEverywhere(policy);

    constexpr int kWorkers = 4;
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&cluster, w, requests, report] {
        Worker(cluster, w, requests / kWorkers, &report->tally);
      });
    }
    for (auto& t : workers) t.join();
    report->faults = cluster.TotalProxyCounters();

    const uint64_t ok_full = report->tally.ok_full.load();
    const uint64_t ok_partial = report->tally.ok_partial.load();
    const uint64_t errors = report->tally.errors.load();
    std::printf("chaos mix %-10s seed %llu: %llu full, %llu partial, "
                "%llu errors (reset=%llu blackholed=%llu truncated=%llu "
                "bitflipped=%llu)\n",
                name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(ok_full),
                static_cast<unsigned long long>(ok_partial),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(report->faults.connections_reset),
                static_cast<unsigned long long>(
                    report->faults.connections_blackholed),
                static_cast<unsigned long long>(report->faults.frames_truncated),
                static_cast<unsigned long long>(
                    report->faults.frames_bitflipped));
    // Some requests must get through even under fire, and the accounting
    // must cover every request issued.
    EXPECT_GT(ok_full + ok_partial, 0u);
    EXPECT_EQ(ok_full + ok_partial + errors,
              (requests / kWorkers) * kWorkers);
  }

  static std::shared_ptr<ServedDataset> shard_[kShards];
  static std::vector<Shape>* shapes_;
};

std::shared_ptr<ServedDataset> ChaosCampaignTest::shard_[ChaosCampaignTest::kShards];
std::vector<ChaosCampaignTest::Shape>* ChaosCampaignTest::shapes_ = nullptr;

// --- the five-mix seeded campaign ------------------------------------------

TEST_F(ChaosCampaignTest, CampaignConnectionResets) {
  ChaosPolicy policy;
  policy.reset_probability = 0.15;
  MixReport report;
  RunMix("reset", policy, &report);
  EXPECT_GT(report.faults.connections_reset, 0u);
}

TEST_F(ChaosCampaignTest, CampaignBlackholes) {
  ChaosPolicy policy;
  policy.blackhole_probability = 0.1;
  MixReport report;
  RunMix("blackhole", policy, &report);
  EXPECT_GT(report.faults.connections_blackholed, 0u);
}

TEST_F(ChaosCampaignTest, CampaignLatency) {
  ChaosPolicy policy;
  policy.latency_ms = 5;
  policy.jitter_ms = 10;
  policy.throttle_bytes_per_sec = 4 << 20;
  MixReport report;
  RunMix("latency", policy, &report);
  EXPECT_GT(report.faults.frames_in, 0u);
  // A merely slow network loses no requests: every request succeeded in
  // full (15 ms worst-case legs against a 250 ms sub-deadline).
  EXPECT_EQ(report.tally.errors.load(), 0u);
  EXPECT_EQ(report.tally.ok_partial.load(), 0u);
}

TEST_F(ChaosCampaignTest, CampaignTruncation) {
  ChaosPolicy policy;
  policy.truncate_probability = 0.2;
  MixReport report;
  RunMix("truncate", policy, &report);
  EXPECT_GT(report.faults.frames_truncated, 0u);
}

TEST_F(ChaosCampaignTest, CampaignBitFlips) {
  ChaosPolicy policy;
  policy.bitflip_probability = 0.2;
  MixReport report;
  RunMix("bitflip", policy, &report);
  EXPECT_GT(report.faults.frames_bitflipped, 0u);
}

// --- deadline propagation ---------------------------------------------------

TEST_F(ChaosCampaignTest, DeadlineBudgetStrictlyDecreasesAcrossLegs) {
  // Both replicas' links add 10 ms and then kill the connection after
  // forwarding one request frame, so the request walks both replicas and
  // each backend leg's frame records the deadline the backend would see.
  std::mutex mu;
  std::vector<uint32_t> observed;
  const auto observe = [&mu, &observed](const std::vector<uint8_t>& payload) {
    // MessageHeader: u16 version, u16 type, u32 flags, u64 request id;
    // every query body then opens with u32 deadline_ms.
    if (payload.size() < 20) return;
    uint16_t type = 0;
    std::memcpy(&type, payload.data() + 2, sizeof(type));
    if (type != static_cast<uint16_t>(protocol::MessageType::kPointCount)) {
      return;
    }
    uint32_t deadline = 0;
    std::memcpy(&deadline, payload.data() + 16, sizeof(deadline));
    std::lock_guard<std::mutex> lock(mu);
    observed.push_back(deadline);
  };

  CoordinatorConfig config;
  config.pool_connections_per_replica = 0;
  config.jitter_seed = 1;
  ChaosCluster cluster({{shard_[0], shard_[0]}}, /*seed=*/42, config);
  cluster.ObserveClientFrames(0, 0, observe);
  cluster.ObserveClientFrames(0, 1, observe);
  ASSERT_TRUE(cluster.Start().ok());

  ChaosPolicy policy;
  policy.reset_probability = 1.0;
  policy.reset_after_request_frames = 1;
  policy.latency_ms = 10;
  cluster.ApplyPolicyEverywhere(policy);

  auto client = QueryClient::Connect("127.0.0.1", cluster.port());
  ASSERT_TRUE(client.ok());
  QueryOptions opt;
  opt.deadline_ms = 500;
  auto count = client->PointCount(LocusBox(0.5), opt);
  ASSERT_FALSE(count.ok());  // both replicas die mid-conversation
  EXPECT_TRUE(HonestFailure(count.status())) << count.status().ToString();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_GE(observed.size(), 2u) << "expected a failover leg";
  EXPECT_LE(observed[0], 500u) << "leg budget must never exceed the client's";
  for (size_t i = 1; i < observed.size(); ++i) {
    EXPECT_LT(observed[i], observed[i - 1])
        << "backend-observed deadline budget must strictly decrease "
           "across legs (leg "
        << i << ")";
  }
}

TEST_F(ChaosCampaignTest, BlackholedReplicaHonorsHundredMsDeadline) {
  // Replica 0 accepts and never answers; replica 1 is clean. A 100 ms
  // request must come back well under 150 ms — the fixed 20 ms hedge
  // reaches replica 1 long before the blackholed leg's deadline, and the
  // blackholed leg itself is capped at the remaining budget, not at the
  // 10 s sub-deadline.
  CoordinatorConfig config;
  config.hedge_delay_ms = 20;
  config.pool_connections_per_replica = 0;
  config.jitter_seed = 1;
  ChaosCluster cluster({{shard_[0], shard_[0]}}, /*seed=*/43, config);
  ASSERT_TRUE(cluster.Start().ok());

  ChaosPolicy blackhole;
  blackhole.blackhole_probability = 1.0;
  cluster.proxy(0, 0).SetPolicy(blackhole);

  auto oracle = QueryClient::Connect("127.0.0.1", cluster.backend_port(0, 1));
  ASSERT_TRUE(oracle.ok());
  auto expected = oracle->PointCount(LocusBox(0.5));
  ASSERT_TRUE(expected.ok());

  auto client = QueryClient::Connect("127.0.0.1", cluster.port());
  ASSERT_TRUE(client.ok());
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    QueryOptions opt;
    opt.deadline_ms = 100;
    const auto start = std::chrono::steady_clock::now();
    auto count = client->PointCount(LocusBox(0.5), opt);
    const int64_t elapsed = ElapsedMs(start);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, *expected);
    EXPECT_LT(elapsed, 150) << "request " << i;
  }

  const auto stats = cluster.coordinator().Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_GE(stats.shards[0].hedges_fired, static_cast<uint64_t>(kRequests));
  EXPECT_GE(stats.shards[0].hedges_won, static_cast<uint64_t>(kRequests));
}

TEST_F(ChaosCampaignTest, SlowButAliveBackendTimesOutWithExactCounters) {
  // Replica 0's link delays every request frame by 400 ms — the backend
  // is alive, just slower than the 100 ms leg deadline. The leg's read
  // deadline must fire (deadline_timeouts), and failover must happen
  // exactly when budget remains for another leg.
  CoordinatorConfig config;
  config.sub_deadline_ms = 100;
  config.pool_connections_per_replica = 0;
  config.jitter_seed = 1;
  ChaosCluster cluster({{shard_[0], shard_[0]}}, /*seed=*/44, config);
  ASSERT_TRUE(cluster.Start().ok());

  ChaosPolicy slow;
  slow.latency_ms = 400;
  cluster.proxy(0, 0).SetPolicy(slow);

  auto oracle = QueryClient::Connect("127.0.0.1", cluster.backend_port(0, 1));
  ASSERT_TRUE(oracle.ok());
  auto expected = oracle->PointCount(LocusBox(0.5));
  ASSERT_TRUE(expected.ok());

  auto client = QueryClient::Connect("127.0.0.1", cluster.port());
  ASSERT_TRUE(client.ok());

  // Ample budget: the timed-out leg fails over and the request succeeds.
  {
    QueryOptions opt;
    opt.deadline_ms = 1000;
    const auto start = std::chrono::steady_clock::now();
    auto count = client->PointCount(LocusBox(0.5), opt);
    const int64_t elapsed = ElapsedMs(start);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, *expected);
    // The leg deadline (100 ms + 25 ms slack) had to fire, and the reply
    // must not have waited out the replica's 400 ms latency.
    EXPECT_GE(elapsed, 100);
    EXPECT_LT(elapsed, 380);
  }
  auto stats = cluster.coordinator().Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.deadline_timeouts, 1u);
  EXPECT_EQ(stats.shards[0].failovers, 1u);
  EXPECT_EQ(stats.shards[0].backend_errors, 1u);

  // Budget == one leg: the timeout consumes it, so no failover leg may
  // start and the client gets an honest deadline error — promptly.
  {
    QueryOptions opt;
    opt.deadline_ms = 100;
    const auto start = std::chrono::steady_clock::now();
    auto count = client->PointCount(LocusBox(0.5), opt);
    const int64_t elapsed = ElapsedMs(start);
    ASSERT_FALSE(count.ok());
    EXPECT_EQ(count.status().code(), StatusCode::kDeadlineExceeded)
        << count.status().ToString();
    EXPECT_LT(elapsed, 380);
  }
  stats = cluster.coordinator().Stats();
  EXPECT_EQ(stats.deadline_timeouts, 2u);
  EXPECT_EQ(stats.shards[0].failovers, 1u) << "no budget => no failover leg";
  EXPECT_EQ(stats.shards[0].backend_errors, 2u);
}

// --- hedge hygiene ----------------------------------------------------------

TEST_F(ChaosCampaignTest, HedgeLoserIsReapedNotPooled) {
  // Replica 0 is slow-but-alive (400 ms); the 20 ms hedge against
  // replica 1 wins every race. The losing leg's connection has a stale
  // reply due on it, so pooling it would poison a later request — the
  // winner must abort and discard it. Connection pooling stays ON here:
  // the pool is exactly what this regression test is about.
  CoordinatorConfig config;
  config.hedge_delay_ms = 20;
  config.sub_deadline_ms = 2000;
  config.jitter_seed = 1;
  ChaosCluster cluster({{shard_[0], shard_[0]}}, /*seed=*/45, config);
  ASSERT_TRUE(cluster.Start().ok());

  ChaosPolicy slow;
  slow.latency_ms = 400;
  cluster.proxy(0, 0).SetPolicy(slow);

  auto oracle = QueryClient::Connect("127.0.0.1", cluster.backend_port(0, 1));
  ASSERT_TRUE(oracle.ok());
  auto expected = oracle->PointCount(LocusBox(0.5));
  ASSERT_TRUE(expected.ok());

  auto client = QueryClient::Connect("127.0.0.1", cluster.port());
  ASSERT_TRUE(client.ok());
  {
    const auto start = std::chrono::steady_clock::now();
    auto count = client->PointCount(LocusBox(0.5));
    const int64_t elapsed = ElapsedMs(start);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, *expected);
    EXPECT_LT(elapsed, 300) << "the hedge, not the slow primary, must answer";
  }

  // Let the stalled primary's stale reply arrive at (and die against) the
  // aborted socket, then clear the fault and hammer the shard. If the
  // loser had been pooled, a later leg would acquire the poisoned
  // connection and fail: backend_errors must stay zero.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  cluster.proxy(0, 0).SetPolicy(ChaosPolicy{});
  for (int i = 0; i < 10; ++i) {
    auto count = client->PointCount(LocusBox(0.5));
    ASSERT_TRUE(count.ok()) << "request " << i << ": "
                            << count.status().ToString();
    EXPECT_EQ(*count, *expected) << i;
  }

  const auto stats = cluster.coordinator().Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_GE(stats.shards[0].hedges_won, 1u);
  EXPECT_EQ(stats.shards[0].backend_errors, 0u)
      << "an aborted hedge loser must cost nothing — a backend error here "
         "means its connection was pooled or its outcome was recorded";
  EXPECT_EQ(stats.shards[0].failovers, 0u);
}

// --- partial-result degradation ---------------------------------------------

TEST_F(ChaosCampaignTest, PartialReplyMatchesSurvivorOracle) {
  // Shard 0's only replica is blackholed; shard 1 is clean. allow_partial
  // requests must degrade to exactly the survivor's reply; the same
  // request without the flag must fail with the shard-0 exhaustion error.
  CoordinatorConfig config;
  config.sub_deadline_ms = 100;
  config.pool_connections_per_replica = 0;
  config.jitter_seed = 1;
  ChaosCluster cluster({{shard_[0]}, {shard_[1]}}, /*seed=*/46, config);
  ASSERT_TRUE(cluster.Start().ok());

  ChaosPolicy blackhole;
  blackhole.blackhole_probability = 1.0;
  cluster.proxy(0, 0).SetPolicy(blackhole);

  auto client = QueryClient::Connect("127.0.0.1", cluster.port());
  ASSERT_TRUE(client.ok());

  const Shape& box_shape = (*shapes_)[1];  // unlimited box query
  const Shape& knn_shape = (*shapes_)[3];
  const uint64_t survivor_mask = 0b10;

  {
    QueryOptions opt = ShapeOptions(box_shape, /*allow_partial=*/true);
    opt.deadline_ms = 1000;
    auto r = client->BoxQuery(box_shape.box, box_shape.limit, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->partial);
    EXPECT_TRUE(r->degraded);
    EXPECT_EQ(r->shards_total, 2u);
    EXPECT_EQ(r->shards_answered, 1u);
    EXPECT_EQ(r->shards_mask, survivor_mask);
    const protocol::QueryReply want = ExpectedQuery(box_shape, survivor_mask);
    EXPECT_EQ(r->row_count, want.row_count);
    EXPECT_EQ(r->objids, want.objids);
  }
  {
    QueryOptions opt = ShapeOptions(knn_shape, /*allow_partial=*/true);
    opt.deadline_ms = 1000;
    auto r = client->Knn(knn_shape.point, knn_shape.k, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->partial);
    EXPECT_TRUE(r->degraded);
    EXPECT_EQ(r->shards_mask, survivor_mask);
    const std::vector<WireNeighbor> want =
        ExpectedKnn(knn_shape, survivor_mask);
    ASSERT_EQ(r->neighbors.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(r->neighbors[j].id, want[j].id) << j;
      EXPECT_EQ(r->neighbors[j].squared_distance, want[j].squared_distance)
          << j;
    }
  }
  {
    // No opt-in, no degradation: the shard failure fails the request.
    QueryOptions opt = ShapeOptions(box_shape, /*allow_partial=*/false);
    opt.deadline_ms = 1000;
    auto r = client->BoxQuery(box_shape.box, box_shape.limit, opt);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(HonestFailure(r.status())) << r.status().ToString();
  }

  const auto stats = cluster.coordinator().Stats();
  EXPECT_EQ(stats.partial_replies, 2u);
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_GE(stats.shards[0].backend_errors, 3u);
  EXPECT_EQ(stats.shards[1].backend_errors, 0u);
}

}  // namespace
}  // namespace mds
