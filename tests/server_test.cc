// End-to-end tests of the mdsd query server through the client library:
// remote answers must match the embedded engine exactly, admission control
// must shed (never hang), deadlines must expire queued work, and graceful
// drain must complete admitted requests while rejecting new ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/knn.h"
#include "server/client.h"
#include "server/dataset.h"
#include "server/server.h"

namespace mds {
namespace {

/// One shared dataset for the whole suite (the expensive part); each test
/// starts its own server over it with the config it needs.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.num_rows = 50000;
    auto built = ServedDataset::Build(config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    dataset_ = std::make_shared<ServedDataset>(std::move(*built));
  }

  static void TearDownTestSuite() {
    dataset_.reset();
  }

  static QueryClient MustConnect(const QueryServer& server) {
    auto client = QueryClient::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// A box around the stellar locus with a healthy number of matches.
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

  static std::vector<int64_t> BruteForceBox(const Box& box) {
    const PointSet& points = dataset_->points();
    std::vector<int64_t> out;
    for (uint64_t i = 0; i < points.size(); ++i) {
      if (box.Contains(points.point(i))) {
        out.push_back(static_cast<int64_t>(i));
      }
    }
    return out;
  }

  static std::shared_ptr<ServedDataset> dataset_;
};

std::shared_ptr<ServedDataset> ServerTest::dataset_;

TEST_F(ServerTest, HealthAndPointCountAndBoxQueryMatchEngine) {
  QueryServer server(dataset_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_FALSE(health->draining);
  EXPECT_EQ(health->served_rows, dataset_->num_rows());
  EXPECT_EQ(health->dim, kNumBands);

  const Box box = LocusBox(0.8);
  const std::vector<int64_t> expected = BruteForceBox(box);
  ASSERT_FALSE(expected.empty());

  auto count = client.PointCount(box);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, expected.size());

  auto query = client.BoxQuery(box);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->row_count, expected.size());
  std::vector<int64_t> got = query->objids;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(query->degraded);
  EXPECT_FALSE(query->chosen_path.empty());
  EXPECT_GT(query->pages_fetched, 0u);

  // TOP(limit): a prefix of the unlimited reply, in clustered row order.
  auto limited = client.BoxQuery(box, 3);
  ASSERT_TRUE(limited.ok());
  ASSERT_EQ(limited->objids.size(), 3u);
  EXPECT_TRUE(std::equal(limited->objids.begin(), limited->objids.end(),
                         query->objids.begin()));

  server.Shutdown();
}

TEST_F(ServerTest, PlannerHintsForceAccessPaths) {
  QueryServer server(dataset_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  const Box box = LocusBox(0.4);
  const std::vector<int64_t> expected = BruteForceBox(box);

  QueryClient::Options full;
  full.force_full_scan = true;
  auto via_scan = client.BoxQuery(box, 0, full);
  ASSERT_TRUE(via_scan.ok()) << via_scan.status().ToString();
  EXPECT_EQ(via_scan->chosen_path, "full-scan");
  EXPECT_EQ(via_scan->rows_scanned, dataset_->num_rows());

  QueryClient::Options index;
  index.force_index = true;
  auto via_index = client.BoxQuery(box, 0, index);
  ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
  EXPECT_EQ(via_index->chosen_path, "kd-tree");

  std::vector<int64_t> a = via_scan->objids;
  std::vector<int64_t> b = via_index->objids;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);

  // skip_corrupt maps onto the degraded-query scan path; over clean
  // storage it must change nothing.
  QueryClient::Options degraded_ok;
  degraded_ok.skip_corrupt = true;
  auto tolerant = client.BoxQuery(box, 0, degraded_ok);
  ASSERT_TRUE(tolerant.ok());
  EXPECT_FALSE(tolerant->degraded);
  EXPECT_EQ(tolerant->row_count, expected.size());

  server.Shutdown();
}

TEST_F(ServerTest, KnnMatchesDirectSearcher) {
  QueryServer server(dataset_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  double mags[kNumBands];
  StellarLocus(0.3, 0.0, mags);
  std::vector<double> probe(mags, mags + kNumBands);

  KdKnnSearcher searcher(&dataset_->tree());
  const std::vector<Neighbor> expected = searcher.BoundaryGrow(probe.data(), 10);

  auto remote = client.Knn(probe, 10);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_EQ(remote->neighbors.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(remote->neighbors[i].id,
              static_cast<int64_t>(expected[i].id));
    EXPECT_DOUBLE_EQ(remote->neighbors[i].squared_distance,
                     expected[i].squared_distance);
  }

  // k larger than the table is a boundary error, not a silent clamp: an
  // answer with fewer than k neighbors is indistinguishable from data loss.
  auto too_big = client.Knn(probe, 60000);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);

  server.Shutdown();
}

TEST_F(ServerTest, DegenerateInputsRejectedAsInvalidArgument) {
  QueryServer server(dataset_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  const std::vector<double> probe(kNumBands, 0.5);

  // kNN k=0: nothing to answer, never an empty success.
  auto zero_k = client.Knn(probe, 0);
  ASSERT_FALSE(zero_k.ok());
  EXPECT_EQ(zero_k.status().code(), StatusCode::kInvalidArgument);

  // Inverted box (lo > hi on one axis).
  std::vector<double> lo(kNumBands, 0.0), hi(kNumBands, 1.0);
  std::swap(lo[2], hi[2]);
  auto inverted = client.PointCount(Box(lo, hi));
  ASSERT_FALSE(inverted.ok());
  EXPECT_EQ(inverted.status().code(), StatusCode::kInvalidArgument);

  // NaN bound: every comparison against it is false, which silently turns
  // the box empty — reject it instead.
  std::vector<double> nlo(kNumBands, 0.0), nhi(kNumBands, 1.0);
  nhi[0] = std::nan("");
  auto nan_box = client.BoxQuery(Box(nlo, nhi));
  ASSERT_FALSE(nan_box.ok());
  EXPECT_EQ(nan_box.status().code(), StatusCode::kInvalidArgument);

  // NaN kNN probe coordinate.
  std::vector<double> nan_probe(kNumBands, 0.5);
  nan_probe[1] = std::nan("");
  auto nan_knn = client.Knn(nan_probe, 3);
  ASSERT_FALSE(nan_knn.ok());
  EXPECT_EQ(nan_knn.status().code(), StatusCode::kInvalidArgument);

  // TABLESAMPLE fraction outside (0, 100]: zero, negative, above 100, NaN.
  const Box box = LocusBox(1.0);
  for (double pct : {0.0, -5.0, 150.0, std::nan("")}) {
    auto sampled = client.TableSample(box, pct, 10, /*seed=*/1);
    ASSERT_FALSE(sampled.ok()) << "percent=" << pct;
    EXPECT_EQ(sampled.status().code(), StatusCode::kInvalidArgument);
  }

  // These are error replies, not protocol violations: the connection must
  // stay usable afterwards.
  auto ok = client.PointCount(LocusBox(0.5));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();

  server.Shutdown();
}

TEST_F(ServerTest, ResponseCacheServesRepeatsAndCountsStats) {
  ServerConfig config;
  config.cache_bytes = 8u << 20;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  const Box box = LocusBox(0.7);
  auto first = client.BoxQuery(box);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Repeats of the identical request are hits: same answer, same
  // accounting, served without executing.
  for (int i = 0; i < 4; ++i) {
    auto again = client.BoxQuery(box);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->objids, first->objids);
    EXPECT_EQ(again->pages_fetched, first->pages_fetched);
    EXPECT_EQ(again->chosen_path, first->chosen_path);
  }

  // A different request type over the same body bytes is a separate entry.
  auto count = client.PointCount(box);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, first->row_count);

  const auto stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_GE(stats.cache_misses, 2u);  // first BoxQuery + first PointCount
  EXPECT_GE(stats.cache_insertions, 2u);
  EXPECT_GT(stats.cache_bytes, 0u);
  EXPECT_GE(stats.cache_entries, 2u);
  EXPECT_EQ(stats.dataset_epoch, dataset_->epoch());

  // The wire stats reply carries the same counters.
  auto remote = client.ServerStats();
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->cache_hits, stats.cache_hits);
  EXPECT_EQ(remote->dataset_epoch, stats.dataset_epoch);

  server.Shutdown();
}

TEST_F(ServerTest, EpochBumpInvalidatesCachedReplies) {
  ServerConfig config;
  config.cache_bytes = 8u << 20;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  const Box box = LocusBox(0.6);
  ASSERT_TRUE(client.PointCount(box).ok());  // miss, populates
  ASSERT_TRUE(client.PointCount(box).ok());  // hit
  EXPECT_EQ(server.Stats().cache_hits, 1u);

  // One atomic store invalidates everything cached so far.
  dataset_->BumpEpoch();
  ASSERT_TRUE(client.PointCount(box).ok());  // miss under the new epoch
  EXPECT_EQ(server.Stats().cache_hits, 1u);
  ASSERT_TRUE(client.PointCount(box).ok());  // repopulated: hit again
  EXPECT_EQ(server.Stats().cache_hits, 2u);
  EXPECT_GE(server.Stats().cache_misses, 2u);

  server.Shutdown();
}

TEST_F(ServerTest, UncacheableRequestsBypassTheCache) {
  ServerConfig config;
  config.cache_bytes = 8u << 20;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  const Box box = LocusBox(0.5);
  // skip_corrupt and planner hints pin execution behavior; memoizing them
  // would mix their replies with default-planned ones. They never probe
  // and never populate.
  QueryClient::Options tolerant;
  tolerant.skip_corrupt = true;
  QueryClient::Options pinned;
  pinned.force_full_scan = true;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.BoxQuery(box, 0, tolerant).ok());
    ASSERT_TRUE(client.BoxQuery(box, 0, pinned).ok());
  }
  auto stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_entries, 0u);

  // Health and stats requests are control-plane: also uncacheable.
  ASSERT_TRUE(client.Health().ok());
  ASSERT_TRUE(client.ServerStats().ok());
  EXPECT_EQ(server.Stats().cache_entries, 0u);

  server.Shutdown();
}

TEST_F(ServerTest, CacheDisabledByDefaultConfig) {
  QueryServer server(dataset_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);
  const Box box = LocusBox(0.5);
  ASSERT_TRUE(client.PointCount(box).ok());
  ASSERT_TRUE(client.PointCount(box).ok());
  const auto stats = server.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_bytes, 0u);
  EXPECT_EQ(stats.dataset_epoch, dataset_->epoch());
  server.Shutdown();
}

TEST_F(ServerTest, TableSampleIsSeedDeterministic) {
  QueryServer server(dataset_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  const Box box = LocusBox(1.5);
  auto a = client.TableSample(box, 20.0, 50, /*seed=*/7);
  auto b = client.TableSample(box, 20.0, 50, /*seed=*/7);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->objids, b->objids);  // same seed, same page sample

  // Every sampled objid is a true match.
  const std::vector<int64_t> all = BruteForceBox(box);
  for (int64_t id : a->objids) {
    EXPECT_TRUE(std::binary_search(all.begin(), all.end(), id));
  }

  server.Shutdown();
}

TEST_F(ServerTest, AdmissionControlShedsBeyondCap) {
  ServerConfig config;
  config.num_workers = 2;
  config.max_in_flight = 2;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());

  // 4x the in-flight cap in concurrent closed-loop clients: every request
  // must terminate (reply or reject), rejects must be retryable, and under
  // sustained 4x pressure at least one arrival must have been shed.
  const size_t kClients = 8;
  const int kPerClient = 12;
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> other{0};
  std::vector<std::thread> threads;
  const Box box = LocusBox(1.2);
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto client = QueryClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < kPerClient; ++i) {
        auto result = client->BoxQuery(box);
        if (result.ok()) {
          ok_count.fetch_add(1);
        } else if (result.status().IsTransient()) {
          rejected.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(ok_count + rejected + other, kClients * kPerClient);
  EXPECT_EQ(other.load(), 0u);      // only OK or retryable, never a hang/IO error
  EXPECT_GT(ok_count.load(), 0u);   // the server kept serving under pressure
  EXPECT_GT(rejected.load(), 0u);   // and it shed, not buffered

  const auto stats = server.Stats();
  EXPECT_EQ(stats.rejected_overload, rejected.load());
  EXPECT_LE(stats.in_flight_peak, config.max_in_flight);

  server.Shutdown();
}

TEST_F(ServerTest, QueuedDeadlineExpiresWithoutExecuting) {
  ServerConfig config;
  config.num_workers = 1;  // one worker: queued work sits measurably
  config.max_in_flight = 16;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single worker with wide full scans from other connections.
  std::vector<std::thread> busy;
  for (int t = 0; t < 3; ++t) {
    busy.emplace_back([&] {
      auto client = QueryClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok());
      QueryClient::Options slow;
      slow.force_full_scan = true;
      for (int i = 0; i < 4; ++i) {
        auto r = client->BoxQuery(LocusBox(2.0), 0, slow);
        EXPECT_TRUE(r.ok() || r.status().IsTransient());
      }
    });
  }

  QueryClient client = MustConnect(server);
  QueryClient::Options tight;
  tight.deadline_ms = 1;
  int expired = 0;
  for (int i = 0; i < 8; ++i) {
    auto r = client.PointCount(LocusBox(0.5), tight);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsTransient()) << r.status().ToString();
      ++expired;
    }
  }
  for (auto& th : busy) th.join();
  // With a 1 ms deadline behind multi-ms full scans, at least one request
  // must have timed out in the queue; the stats counter agrees.
  EXPECT_GT(expired, 0);
  EXPECT_GE(server.Stats().deadline_timeouts, static_cast<uint64_t>(expired));

  server.Shutdown();
}

TEST_F(ServerTest, GracefulDrainCompletesAdmittedRejectsNew) {
  ServerConfig config;
  config.num_workers = 2;
  config.max_in_flight = 32;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());

  // In-flight work across several connections while the drain lands.
  // Every connection is open and accepted before the first request: a
  // connect racing RequestDrain would be refused, and the drain must land
  // on live connections.
  std::vector<QueryClient> clients;
  for (int t = 0; t < 4; ++t) {
    auto client = QueryClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    clients.push_back(std::move(*client));
  }
  const auto accept_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.Stats().connections_accepted < clients.size() &&
         std::chrono::steady_clock::now() < accept_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::atomic<bool> drain_requested{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> workers;
  for (QueryClient& c : clients) {
    workers.emplace_back([&, client = &c] {
      for (int i = 0; i < 10; ++i) {
        auto r = client->PointCount(LocusBox(1.0));
        if (r.ok()) {
          completed.fetch_add(1);
        } else {
          // Post-drain arrivals are rejected retryably; nothing else may
          // fail. (The reply still arrives — connections stay usable.)
          EXPECT_TRUE(r.status().IsTransient()) << r.status().ToString();
          EXPECT_TRUE(drain_requested.load());
          rejected.fetch_add(1);
        }
      }
    });
  }

  // Let some requests through, then drain mid-stream.
  while (completed.load() == 0) std::this_thread::yield();
  drain_requested.store(true);
  server.RequestDrain();
  EXPECT_TRUE(server.draining());

  for (auto& th : workers) th.join();
  EXPECT_GT(completed.load(), 0u);
  EXPECT_GT(rejected.load(), 0u);  // drain landed mid-stream

  // New connections are no longer accepted while draining.
  auto late = QueryClient::Connect("127.0.0.1", server.port(), 500);
  if (late.ok()) {
    QueryClient::Options bounded;
    bounded.deadline_ms = 2000;
    auto r = late->PointCount(LocusBox(0.5), bounded);
    EXPECT_FALSE(r.ok());
  }

  const auto stats = server.Stats();
  EXPECT_EQ(stats.rejected_draining, rejected.load());
  EXPECT_EQ(stats.replies_ok, completed.load());

  server.Shutdown();  // must not hang: everything admitted has finished
}

TEST_F(ServerTest, StatsReportCountsAndLatencies) {
  QueryServer server(dataset_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  const Box box = LocusBox(0.6);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.PointCount(box).ok());
  }
  ASSERT_TRUE(client.Knn(std::vector<double>(kNumBands, 0.5), 3).ok());
  ASSERT_TRUE(client.BoxQuery(Box(std::vector<double>(2, 0.0),
                                  std::vector<double>(2, 1.0)))
                  .ok()
              == false);  // dim mismatch: a counted error reply

  auto stats = client.ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->requests_total, 8u);
  EXPECT_GE(stats->replies_ok, 6u);
  EXPECT_GE(stats->replies_error, 1u);
  EXPECT_GT(stats->bytes_in, 0u);
  EXPECT_GT(stats->bytes_out, 0u);
  EXPECT_GE(stats->connections_accepted, 1u);
  EXPECT_GT(stats->pool_logical_reads, 0u);

  using protocol::MessageType;
  using protocol::TypeIndex;
  const auto& pc = stats->per_type[TypeIndex(MessageType::kPointCount)];
  EXPECT_EQ(pc.count, 5u);
  EXPECT_GT(pc.p50_us, 0u);
  EXPECT_LE(pc.p50_us, pc.p99_us);
  EXPECT_LE(pc.p99_us, pc.max_us);
  const auto& knn = stats->per_type[TypeIndex(MessageType::kKnn)];
  EXPECT_EQ(knn.count, 1u);
  const auto& bq = stats->per_type[TypeIndex(MessageType::kBoxQuery)];
  EXPECT_EQ(bq.errors, 1u);

  server.Shutdown();
}

TEST_F(ServerTest, ShutdownIsIdempotentAndRestartFreesPort) {
  ServerConfig config;
  QueryServer first(dataset_, config);
  ASSERT_TRUE(first.Start().ok());
  const uint16_t port = first.port();
  first.Shutdown();
  first.Shutdown();  // idempotent

  // The port is free again (SO_REUSEADDR + all sockets closed).
  ServerConfig reuse;
  reuse.port = port;
  QueryServer second(dataset_, reuse);
  ASSERT_TRUE(second.Start().ok()) << "port " << port << " not released";
  QueryClient client = MustConnect(second);
  EXPECT_TRUE(client.Health().ok());
  second.Shutdown();
}

TEST_F(ServerTest, PipelinedBatchMatchesSequentialExactly) {
  // Pipelining parity: k pipelined requests must produce, slot for slot,
  // exactly the replies of k sequential round trips — same objids, same
  // chosen access path, same I/O accounting — however the workers
  // interleave them. Cache off, so every request truly executes. The
  // bursts: 12 boxes, 100 boxes, and the 100 again pinned to the kd-tree;
  // each at 1 worker (strictly one at a time) and 4 (interleaved).
  std::vector<Box> boxes;
  for (int i = 0; i < 12; ++i) {
    boxes.push_back(LocusBox(0.2 + 0.1 * i));  // selective through wide
  }
  std::vector<Box> burst;
  for (int i = 0; i < 100; ++i) burst.push_back(LocusBox(0.05 + 0.012 * i));
  QueryClient::Options hinted;
  hinted.force_index = true;

  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("num_workers " + std::to_string(workers));
    ServerConfig config;
    config.num_workers = workers;
    config.max_in_flight = 256;  // admits a whole 100-request burst
    QueryServer server(dataset_, config);
    ASSERT_TRUE(server.Start().ok());
    QueryClient sequential = MustConnect(server);
    QueryClient pipelined = MustConnect(server);

    auto expect_parity = [&](const std::vector<Box>& in,
                             const QueryClient::Options& options) {
      std::vector<QueryClient::QueryResult> expected;
      for (const Box& box : in) {
        auto r = sequential.BoxQuery(box, 0, options);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        expected.push_back(std::move(*r));
      }
      auto got = pipelined.BoxQueryPipeline(in, 0, options);
      ASSERT_EQ(got.size(), in.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].ok()) << i << ": " << got[i].status().ToString();
        EXPECT_EQ(got[i]->row_count, expected[i].row_count) << i;
        EXPECT_EQ(got[i]->objids, expected[i].objids) << i;
        EXPECT_EQ(got[i]->chosen_path, expected[i].chosen_path) << i;
        EXPECT_EQ(got[i]->rows_scanned, expected[i].rows_scanned) << i;
        EXPECT_EQ(got[i]->pages_fetched, expected[i].pages_fetched) << i;
        EXPECT_EQ(got[i]->pages_read, expected[i].pages_read) << i;
        EXPECT_EQ(got[i]->degraded, expected[i].degraded) << i;
      }
    };
    expect_parity(boxes, {});
    expect_parity(burst, {});
    expect_parity(burst, hinted);

    // PointCount rides the same path; limits apply per slot.
    std::vector<uint64_t> expected_rows;
    std::vector<std::vector<int64_t>> expected_ids;
    for (const Box& box : boxes) {
      auto r = sequential.BoxQuery(box);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      expected_rows.push_back(r->row_count);
      expected_ids.push_back(std::move(r->objids));
    }
    auto counts = pipelined.PointCountPipeline(boxes);
    ASSERT_EQ(counts.size(), boxes.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      ASSERT_TRUE(counts[i].ok()) << i;
      EXPECT_EQ(*counts[i], expected_rows[i]) << i;
    }
    auto limited = pipelined.BoxQueryPipeline(boxes, 2);
    ASSERT_EQ(limited.size(), boxes.size());
    for (size_t i = 0; i < limited.size(); ++i) {
      ASSERT_TRUE(limited[i].ok()) << i;
      const size_t want =
          std::min<size_t>(2, static_cast<size_t>(expected_rows[i]));
      ASSERT_EQ(limited[i]->objids.size(), want) << i;
      EXPECT_TRUE(std::equal(limited[i]->objids.begin(),
                             limited[i]->objids.end(),
                             expected_ids[i].begin()))
          << i;
    }

    server.Shutdown();
  }
}

TEST_F(ServerTest, PipelinedErrorsFailOnlyTheirSlot) {
  // A malformed request inside a pipelined burst must not poison its
  // neighbors: the bad slot gets its own error status, every other slot
  // its normal answer, on the same connection.
  QueryServer server(dataset_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  std::vector<Box> boxes;
  boxes.push_back(LocusBox(0.6));
  boxes.push_back(Box(std::vector<double>(2, 0.0),
                      std::vector<double>(2, 1.0)));  // dim mismatch
  boxes.push_back(LocusBox(0.3));

  auto got = client.BoxQueryPipeline(boxes);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].ok()) << got[0].status().ToString();
  ASSERT_FALSE(got[1].ok());
  EXPECT_EQ(got[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(got[2].ok()) << got[2].status().ToString();

  // The connection survived the per-slot error.
  EXPECT_TRUE(client.Health().ok());
  server.Shutdown();
}

TEST_F(ServerTest, PipelinedBurstMixingCacheHitsAndMisses) {
  // With the response cache on, a pipelined burst can contain slots the
  // I/O thread answers inline (hits) interleaved with slots that go to
  // the workers (misses). Every slot must still get its answer and the
  // connection must survive — the mdsd default configuration runs with
  // the cache enabled, so this is the production shape of a burst.
  ServerConfig config;
  config.cache_bytes = 8u << 20;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  std::vector<Box> boxes;
  for (int i = 0; i < 4; ++i) boxes.push_back(LocusBox(0.2 + 0.2 * i));

  // Warm exactly one slot's entry (the last), as a prior singleton query.
  auto warm = client.PointCount(boxes.back());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  auto counts = client.PointCountPipeline(boxes);
  ASSERT_EQ(counts.size(), boxes.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    ASSERT_TRUE(counts[i].ok())
        << "slot " << i << ": " << counts[i].status().ToString();
    EXPECT_EQ(*counts[i], BruteForceBox(boxes[i]).size()) << "slot " << i;
  }
  const auto stats = server.Stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_TRUE(client.Health().ok());  // connection survived the mix
  server.Shutdown();
}

TEST_F(ServerTest, ThousandIdleConnectionsOnOneIoThread) {
  // The reactor's raison d'être: connection count decoupled from thread
  // count. Park >=1000 idle connections on the default single I/O thread
  // and verify the process spawned no additional threads for them, while
  // the server still answers queries promptly.
  auto count_threads = [] {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) {
        return std::stoi(line.substr(8));
      }
    }
    return -1;
  };

  ServerConfig config;
  config.io_threads = 1;
  config.max_connections = 1200;
  config.idle_timeout_ms = 0;  // idle on purpose; don't reap them
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());

  const int threads_before = count_threads();
  ASSERT_GT(threads_before, 0);

  constexpr size_t kIdle = 1000;
  std::vector<Socket> idle;
  idle.reserve(kIdle);
  for (size_t i = 0; i < kIdle; ++i) {
    auto sock = TcpConnect("127.0.0.1", server.port(), 5000);
    ASSERT_TRUE(sock.ok()) << "connection " << i << ": "
                           << sock.status().ToString();
    idle.push_back(std::move(*sock));
  }

  // Give the loop a beat to register the tail end of the accept burst,
  // then verify: same thread count, and a live query path.
  QueryClient client = MustConnect(server);
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  auto count = client.PointCount(LocusBox(0.5));
  ASSERT_TRUE(count.ok()) << count.status().ToString();

  const int threads_after = count_threads();
  EXPECT_EQ(threads_after, threads_before)
      << kIdle << " idle connections must not cost threads";

  const auto stats = server.Stats();
  EXPECT_GE(stats.connections_accepted, kIdle);

  idle.clear();
  server.Shutdown();
}

TEST_F(ServerTest, AcceptBackoffRecoversFromFdExhaustion) {
  // Synthetic EMFILE on the first accepts (the debug hook mirrors the
  // real branch: count, close, deregister, re-arm after backoff). The
  // server must count accept_errors, keep running, and serve connections
  // normally once the pressure clears.
  ServerConfig config;
  config.debug_fail_first_accepts = 3;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());

  // Early connects may be swallowed by the synthetic failures; keep
  // trying until a request round-trips. Backoff caps at 10+20+40ms here,
  // so well under the retry budget.
  bool served = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    auto client = QueryClient::Connect("127.0.0.1", server.port(), 1000);
    if (client.ok() && client->Health().ok()) {
      served = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(served) << "server never recovered from synthetic EMFILE";

  const auto stats = server.Stats();
  EXPECT_EQ(stats.accept_errors, 3u);
  EXPECT_GE(stats.connections_accepted, 1u);

  // The counter also travels the wire.
  QueryClient client = MustConnect(server);
  auto remote = client.ServerStats();
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->accept_errors, 3u);

  server.Shutdown();
}

TEST_F(ServerTest, ClientDeadlineExceededInsteadOfHanging) {
  // A server that accepts but never replies must not hang the client: a
  // request with a deadline comes back kDeadlineExceeded (retryable)
  // once the exchange bound expires.
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread sink([&] {
    auto sock = listener->Accept(IoDeadline::After(10000));
    if (sock.ok()) {
      // Hold the connection open, reading nothing, replying nothing,
      // until well past the client's exchange bound (deadline + 2 s
      // slack) so the client's clock, not a reset, ends the wait.
      std::this_thread::sleep_for(std::chrono::milliseconds(4000));
    }
  });

  auto client = QueryClient::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  QueryClient::Options options;
  options.deadline_ms = 100;
  const auto start = std::chrono::steady_clock::now();
  auto result = client->PointCount(LocusBox(0.5), options);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_TRUE(result.status().IsTransient());
  // Bounded by deadline + client slack, far under the no-deadline bound.
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  EXPECT_FALSE(client->connected());  // stream is desynchronized

  listener->Shutdown();
  sink.join();
}

// --- hot swap ---------------------------------------------------------------

/// A reload handler that rebuilds the dataset from `config` — with the
/// startup config this is a no-op generation whose replies are
/// byte-identical to the old one.
QueryServer::ReloadHandler RebuildHandler(DatasetConfig config) {
  return [config](const std::string&)
             -> Result<std::shared_ptr<ServedDataset>> {
    auto next = ServedDataset::Build(config);
    if (!next.ok()) return next.status();
    return std::make_shared<ServedDataset>(std::move(*next));
  };
}

DatasetConfig SuiteConfig() {
  DatasetConfig config;
  config.num_rows = 50000;  // matches the fixture dataset
  return config;
}

TEST_F(ServerTest, ReloadWithoutHandlerIsRefused) {
  QueryServer server(dataset_, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);
  auto reply = client.Reload("");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);
  // An error reply, not a protocol violation: the connection survives.
  EXPECT_TRUE(client.Health().ok());
  server.Shutdown();
}

TEST_F(ServerTest, NoOpReloadKeepsRepliesByteIdentical) {
  auto served = std::make_shared<const ServedDataset>(
      std::move(*ServedDataset::Build(SuiteConfig())));
  QueryServer server(served, ServerConfig{});
  server.SetReloadHandler(RebuildHandler(SuiteConfig()));
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  const Box box = LocusBox(0.7);
  auto before = client.BoxQuery(box);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  double mags[kNumBands];
  StellarLocus(0.3, 0.0, mags);
  auto knn_before = client.Knn(std::vector<double>(mags, mags + kNumBands), 5);
  ASSERT_TRUE(knn_before.ok());

  QueryClient::Options slow;
  slow.deadline_ms = 60000;  // the reload covers a full dataset build
  auto reply = client.Reload("", slow);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->new_epoch, reply->old_epoch + 1);
  EXPECT_EQ(reply->served_rows, served->num_rows());

  // Same connection, same requests: byte-identical answers from the new
  // generation (same seed => same points, same clustering, same I/O).
  auto after = client.BoxQuery(box);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->objids, before->objids);
  EXPECT_EQ(after->row_count, before->row_count);
  EXPECT_EQ(after->chosen_path, before->chosen_path);
  EXPECT_EQ(after->rows_scanned, before->rows_scanned);
  EXPECT_EQ(after->pages_fetched, before->pages_fetched);
  auto knn_after = client.Knn(std::vector<double>(mags, mags + kNumBands), 5);
  ASSERT_TRUE(knn_after.ok());
  ASSERT_EQ(knn_after->neighbors.size(), knn_before->neighbors.size());
  for (size_t i = 0; i < knn_after->neighbors.size(); ++i) {
    EXPECT_EQ(knn_after->neighbors[i].id, knn_before->neighbors[i].id);
    EXPECT_DOUBLE_EQ(knn_after->neighbors[i].squared_distance,
                     knn_before->neighbors[i].squared_distance);
  }

  // The stats reply observes the bump.
  auto stats = client.ServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->dataset_epoch, reply->new_epoch);
  server.Shutdown();
}

TEST_F(ServerTest, ReloadInvalidatesCacheWholesale) {
  auto served = std::make_shared<const ServedDataset>(
      std::move(*ServedDataset::Build(SuiteConfig())));
  ServerConfig config;
  config.cache_bytes = 8u << 20;
  QueryServer server(served, config);
  server.SetReloadHandler(RebuildHandler(SuiteConfig()));
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  // Warm: miss then hit — ratio 1.0 on repeats.
  const Box box = LocusBox(0.6);
  ASSERT_TRUE(client.PointCount(box).ok());
  ASSERT_TRUE(client.PointCount(box).ok());
  EXPECT_EQ(server.Stats().cache_hits, 1u);

  QueryClient::Options slow;
  slow.deadline_ms = 60000;
  auto reply = client.Reload("", slow);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();

  // Every pre-swap entry is dead: first repeat misses, then hits again.
  ASSERT_TRUE(client.PointCount(box).ok());
  EXPECT_EQ(server.Stats().cache_hits, 1u);  // miss under the new epoch
  ASSERT_TRUE(client.PointCount(box).ok());
  EXPECT_EQ(server.Stats().cache_hits, 2u);  // repopulated
  server.Shutdown();
}

TEST_F(ServerTest, ReloadRefusesIncompatibleDataset) {
  auto served = std::make_shared<const ServedDataset>(
      std::move(*ServedDataset::Build(SuiteConfig())));
  QueryServer server(served, ServerConfig{});
  // A handler that comes back with a shard slice the server wasn't
  // serving: shape change mid-flight would silently drop data.
  server.SetReloadHandler([](const std::string&)
                              -> Result<std::shared_ptr<ServedDataset>> {
    DatasetConfig sharded = SuiteConfig();
    sharded.shard_count = 2;
    auto next = ServedDataset::Build(sharded);
    if (!next.ok()) return next.status();
    return std::make_shared<ServedDataset>(std::move(*next));
  });
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);

  const uint64_t epoch_before = server.Stats().dataset_epoch;
  QueryClient::Options slow;
  slow.deadline_ms = 60000;
  auto reply = client.Reload("", slow);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kFailedPrecondition);

  // The refused generation changed nothing: same epoch, old data serves.
  EXPECT_EQ(server.Stats().dataset_epoch, epoch_before);
  auto count = client.PointCount(LocusBox(0.5));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, BruteForceBox(LocusBox(0.5)).size());
  server.Shutdown();
}

TEST_F(ServerTest, ReloadHandlerFailurePropagatesAndKeepsServing) {
  auto served = std::make_shared<const ServedDataset>(
      std::move(*ServedDataset::Build(SuiteConfig())));
  QueryServer server(served, ServerConfig{});
  server.SetReloadHandler([](const std::string& path)
                              -> Result<std::shared_ptr<ServedDataset>> {
    return Status::NotFound("no dataset at '" + path + "'");
  });
  ASSERT_TRUE(server.Start().ok());
  QueryClient client = MustConnect(server);
  auto reply = client.Reload("/nonexistent.mds");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.Health().ok());
  server.Shutdown();
}

TEST_F(ServerTest, HotSwapUnderConcurrentLoadLosesNoRequests) {
  // The acceptance bar for the whole subsystem: a swap lands while
  // closed-loop clients hammer the server, and not one request fails —
  // in-flight queries finish on the old snapshot, later ones run on the
  // new, the cache flips wholesale, and every answer stays correct
  // (the generations are byte-identical, so one brute-force oracle
  // checks both sides of the swap).
  auto served = std::make_shared<const ServedDataset>(
      std::move(*ServedDataset::Build(SuiteConfig())));
  ServerConfig config;
  config.cache_bytes = 8u << 20;
  config.num_workers = 4;
  config.max_in_flight = 256;
  QueryServer server(served, config);
  server.SetReloadHandler(RebuildHandler(SuiteConfig()));
  ASSERT_TRUE(server.Start().ok());

  const Box box = LocusBox(0.8);
  const std::vector<int64_t> expected = BruteForceBox(box);
  ASSERT_FALSE(expected.empty());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries_ok{0};
  std::atomic<uint64_t> queries_failed{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      auto client = QueryClient::Connect("127.0.0.1", server.port());
      ASSERT_TRUE(client.ok());
      QueryClient::Options bounded;
      bounded.deadline_ms = 30000;
      while (!stop.load()) {
        auto r = client->PointCount(box, bounded);
        if (r.ok() && *r == expected.size()) {
          queries_ok.fetch_add(1);
        } else {
          queries_failed.fetch_add(1);
        }
      }
    });
  }

  // Let traffic establish, then swap live — twice, to also cover a
  // second generation retiring a first reloaded one.
  while (queries_ok.load() < 50) std::this_thread::yield();
  auto admin = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(admin.ok());
  QueryClient::Options slow;
  slow.deadline_ms = 60000;
  auto first = admin->Reload("", slow);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const uint64_t mid = queries_ok.load();
  while (queries_ok.load() < mid + 50) std::this_thread::yield();
  auto second = admin->Reload("", slow);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->old_epoch, first->new_epoch);
  EXPECT_EQ(second->new_epoch, first->new_epoch + 1);

  stop.store(true);
  for (auto& th : workers) th.join();

  EXPECT_GT(queries_ok.load(), 100u);
  EXPECT_EQ(queries_failed.load(), 0u)
      << "hot swap must lose zero requests";
  EXPECT_EQ(server.Stats().dataset_epoch, second->new_epoch);
  server.Shutdown();
}

}  // namespace
}  // namespace mds
