// Tests of the mdsc shard coordinator: the shard-map grammar, the pure
// merge helpers, and the full scatter-gather path end-to-end — parity
// over 2 and 4 shards against a single mdsd (rows AND ordering), shard
// pruning (against the single server and against a broadcast to every
// shard), replica failover under a mid-load backend kill, hedging against
// a stalled replica, graceful drain, the per-shard routing counters, and
// resource flatness under connection churn.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "sdss/catalog.h"
#include "server/client.h"
#include "server/coordinator.h"
#include "server/dataset.h"
#include "server/server.h"

namespace mds {
namespace {

using protocol::WireNeighbor;

// --- ParseShardMap ---------------------------------------------------------

TEST(ParseShardMapTest, SemicolonsCommasAndReplicaOrder) {
  auto map =
      ParseShardMap("127.0.0.1:7001,127.0.0.1:7101;127.0.0.1:7002");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  ASSERT_EQ(map->shards.size(), 2u);
  ASSERT_EQ(map->shards[0].size(), 2u);  // two replicas, nearest first
  EXPECT_EQ(map->shards[0][0].port, 7001);
  EXPECT_EQ(map->shards[0][1].port, 7101);
  ASSERT_EQ(map->shards[1].size(), 1u);
  EXPECT_EQ(map->shards[1][0].host, "127.0.0.1");
  EXPECT_EQ(map->shards[1][0].port, 7002);
}

TEST(ParseShardMapTest, FileGrammarNewlinesCommentsBlanks) {
  auto map = ParseShardMap(
      "# the replica sets, one shard per line\n"
      "\n"
      "  127.0.0.1:7001 , 127.0.0.1:7101  \n"
      "127.0.0.1:7002\n");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  ASSERT_EQ(map->shards.size(), 2u);
  EXPECT_EQ(map->shards[0].size(), 2u);  // whitespace around ',' is trimmed
  EXPECT_EQ(map->shards[0][1].port, 7101);
}

TEST(ParseShardMapTest, RejectsMalformedEndpoints) {
  EXPECT_FALSE(ParseShardMap("").ok());
  EXPECT_FALSE(ParseShardMap("# only a comment\n").ok());
  EXPECT_FALSE(ParseShardMap("127.0.0.1").ok());       // no port
  EXPECT_FALSE(ParseShardMap(":7001").ok());           // no host
  EXPECT_FALSE(ParseShardMap("127.0.0.1:").ok());      // empty port
  EXPECT_FALSE(ParseShardMap("127.0.0.1:http").ok());  // non-numeric
  EXPECT_FALSE(ParseShardMap("127.0.0.1:70016").ok()); // > 65535
  EXPECT_FALSE(ParseShardMap("127.0.0.1:70x1").ok());  // trailing junk
  EXPECT_FALSE(ParseShardMap("127.0.0.1:7001,,127.0.0.1:7002").ok());
}

// --- MergeKnnNeighbors -----------------------------------------------------

WireNeighbor N(int64_t id, double d2) {
  WireNeighbor n;
  n.id = id;
  n.squared_distance = d2;
  return n;
}

TEST(MergeKnnTest, InterleavesSortedListsAndTruncatesToK) {
  std::vector<std::vector<WireNeighbor>> shards = {
      {N(10, 0.1), N(11, 0.4)},
      {N(20, 0.2), N(21, 0.3), N(22, 0.9)},
  };
  auto merged = MergeKnnNeighbors(shards, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id, 10);
  EXPECT_EQ(merged[1].id, 20);
  EXPECT_EQ(merged[2].id, 21);
  EXPECT_EQ(merged[3].id, 11);
}

TEST(MergeKnnTest, DuplicateDistancesBreakTiesById) {
  // Equal distances across shards must order by id — the engine's
  // Neighbor::operator< — or the merge would not be bit-identical to a
  // single server.
  std::vector<std::vector<WireNeighbor>> shards = {
      {N(7, 0.5), N(9, 0.5)},
      {N(3, 0.5), N(8, 0.5)},
  };
  auto merged = MergeKnnNeighbors(shards, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id, 3);
  EXPECT_EQ(merged[1].id, 7);
  EXPECT_EQ(merged[2].id, 8);
  EXPECT_EQ(merged[3].id, 9);
}

TEST(MergeKnnTest, KLargerThanUnionReturnsEveryNeighbor) {
  std::vector<std::vector<WireNeighbor>> shards = {
      {N(1, 0.1)},
      {},  // an empty shard reply is fine
      {N(2, 0.2)},
  };
  auto merged = MergeKnnNeighbors(shards, 100);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].id, 1);
  EXPECT_EQ(merged[1].id, 2);
  EXPECT_TRUE(MergeKnnNeighbors({}, 5).empty());
  EXPECT_TRUE(MergeKnnNeighbors({{}, {}}, 5).empty());
}

// --- MergeQueryReplies -----------------------------------------------------

protocol::QueryReply Reply(uint64_t rows, std::vector<int64_t> objids,
                           const std::string& path) {
  protocol::QueryReply r;
  r.row_count = rows;
  r.objids = std::move(objids);
  r.rows_scanned = rows;
  r.pages_fetched = 2;
  r.pages_read = 2;
  r.pages_skipped = 1;
  r.chosen_path = path;
  return r;
}

TEST(MergeQueryRepliesTest, SumsCountersAndConcatenatesInShardOrder) {
  std::vector<protocol::QueryReply> shards;
  shards.push_back(Reply(2, {5, 9}, "kd-tree"));
  shards.push_back(Reply(3, {1, 3, 7}, "kd-tree"));
  auto merged = MergeQueryReplies(std::move(shards), 0);
  EXPECT_EQ(merged.row_count, 5u);
  EXPECT_EQ(merged.rows_scanned, 5u);
  EXPECT_EQ(merged.pages_fetched, 4u);
  EXPECT_EQ(merged.pages_read, 4u);
  EXPECT_EQ(merged.pages_skipped, 2u);
  EXPECT_FALSE(merged.degraded);
  EXPECT_EQ(merged.chosen_path, "kd-tree");
  // Shard order, NOT sorted: shard order is global clustered order.
  EXPECT_EQ(merged.objids, (std::vector<int64_t>{5, 9, 1, 3, 7}));
}

TEST(MergeQueryRepliesTest, LimitTruncatesDegradedOrsPathsMix) {
  std::vector<protocol::QueryReply> shards;
  shards.push_back(Reply(2, {5, 9}, "kd-tree"));
  auto degraded = Reply(3, {1, 3, 7}, "full-scan");
  degraded.degraded = true;
  shards.push_back(std::move(degraded));
  auto merged = MergeQueryReplies(std::move(shards), 3);
  EXPECT_EQ(merged.row_count, 5u);  // row_count is the true total
  EXPECT_EQ(merged.objids, (std::vector<int64_t>{5, 9, 1}));
  EXPECT_TRUE(merged.degraded);
  EXPECT_EQ(merged.chosen_path, "mixed");
}

// --- end-to-end fixtures ---------------------------------------------------

/// Shard datasets are the expensive part, so the suite builds them once:
/// the full catalog plus its 2-way and 4-way kd-subtree shardings, all
/// over the same --n/--seed (which is what makes them one logical
/// catalog).
class CoordinatorTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 20000;
  static constexpr uint64_t kSeed = 7;

  static void SetUpTestSuite() {
    single_ = BuildShard(0, 1);
    for (uint32_t i = 0; i < 2; ++i) shard2_[i] = BuildShard(i, 2);
    for (uint32_t i = 0; i < 4; ++i) shard4_[i] = BuildShard(i, 4);
  }

  static void TearDownTestSuite() {
    delete single_;
    single_ = nullptr;
    for (auto& d : shard2_) { delete d; d = nullptr; }
    for (auto& d : shard4_) { delete d; d = nullptr; }
  }

  static ServedDataset* BuildShard(uint32_t index, uint32_t count) {
    DatasetConfig config;
    config.num_rows = kRows;
    config.seed = kSeed;
    config.shard_index = index;
    config.shard_count = count;
    auto built = ServedDataset::Build(config);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.ok() ? new ServedDataset(std::move(*built)) : nullptr;
  }

  /// In-process topology: one mdsd QueryServer per (shard, replica) plus
  /// an mdsc Coordinator over them. `shards[s]` lists the datasets of
  /// shard s's replicas (replicas of one shard share a dataset).
  struct Topology {
    std::vector<std::unique_ptr<QueryServer>> backends;
    ShardMap map;
    std::unique_ptr<Coordinator> coordinator;

    Topology() = default;
    Topology(Topology&&) = default;
    Topology& operator=(Topology&&) = default;

    ~Topology() {
      if (coordinator) coordinator->Shutdown();
      for (auto& b : backends) b->Shutdown();
    }
  };

  static Topology Start(
      const std::vector<std::vector<ServedDataset*>>& shards,
      CoordinatorConfig config = {}) {
    Topology t;
    ShardMap map;
    for (const auto& replicas : shards) {
      std::vector<BackendAddress> addrs;
      for (ServedDataset* dataset : replicas) {
        auto server =
            std::make_unique<QueryServer>(dataset, ServerConfig{});
        EXPECT_TRUE(server->Start().ok());
        addrs.push_back({"127.0.0.1", server->port()});
        t.backends.push_back(std::move(server));
      }
      map.shards.push_back(std::move(addrs));
    }
    t.map = map;
    t.coordinator = std::make_unique<Coordinator>(t.map, config);
    Status started = t.coordinator->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return t;
  }

  static QueryClient MustConnect(uint16_t port) {
    auto client = QueryClient::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
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

  /// Asserts every query type answers identically (rows AND ordering)
  /// through the coordinator and through the single server.
  static void AssertParity(QueryClient& via_coord, QueryClient& via_single) {
    const Box box = LocusBox(0.8);

    auto count_c = via_coord.PointCount(box);
    auto count_s = via_single.PointCount(box);
    ASSERT_TRUE(count_c.ok()) << count_c.status().ToString();
    ASSERT_TRUE(count_s.ok());
    EXPECT_EQ(*count_c, *count_s);
    EXPECT_GT(*count_s, 0u);

    // Unhinted, each shard's planner chooses independently, and a shard
    // holding half the rows may pick a different access path (hence a
    // different emit order) than the single server does — so the
    // guaranteed unhinted parity is the row set. Exact ordering parity
    // is asserted below with the access path pinned on both sides.
    auto query_c = via_coord.BoxQuery(box);
    auto query_s = via_single.BoxQuery(box);
    ASSERT_TRUE(query_c.ok()) << query_c.status().ToString();
    ASSERT_TRUE(query_s.ok());
    EXPECT_EQ(query_c->row_count, query_s->row_count);
    std::vector<int64_t> set_c = query_c->objids;
    std::vector<int64_t> set_s = query_s->objids;
    std::sort(set_c.begin(), set_c.end());
    std::sort(set_s.begin(), set_s.end());
    EXPECT_EQ(set_c, set_s);

    // Same access path on every server => shard concatenation must
    // reproduce the single server's emit order exactly.
    for (const bool full_scan : {true, false}) {
      QueryOptions hint;
      hint.force_full_scan = full_scan;
      hint.force_index = !full_scan;
      auto hinted_c = via_coord.BoxQuery(box, 0, hint);
      auto hinted_s = via_single.BoxQuery(box, 0, hint);
      ASSERT_TRUE(hinted_c.ok()) << hinted_c.status().ToString();
      ASSERT_TRUE(hinted_s.ok());
      EXPECT_EQ(hinted_c->objids, hinted_s->objids)
          << (full_scan ? "full-scan" : "kd-tree");
      EXPECT_EQ(hinted_c->chosen_path, hinted_s->chosen_path);

      auto limited_c = via_coord.BoxQuery(box, 7, hint);
      auto limited_s = via_single.BoxQuery(box, 7, hint);
      ASSERT_TRUE(limited_c.ok());
      ASSERT_TRUE(limited_s.ok());
      EXPECT_EQ(limited_c->objids, limited_s->objids);
      EXPECT_EQ(limited_c->objids.size(), 7u);
      // TOP(limit) is a prefix of the unlimited reply.
      EXPECT_TRUE(std::equal(limited_c->objids.begin(),
                             limited_c->objids.end(),
                             hinted_c->objids.begin()));
    }

    double target[kNumBands];
    StellarLocus(0.62, 0.3, target);
    const std::vector<double> point(target, target + kNumBands);
    for (uint32_t k : {1u, 5u, 100u}) {
      auto knn_c = via_coord.Knn(point, k);
      auto knn_s = via_single.Knn(point, k);
      ASSERT_TRUE(knn_c.ok()) << knn_c.status().ToString();
      ASSERT_TRUE(knn_s.ok());
      ASSERT_EQ(knn_c->neighbors.size(), k);
      ASSERT_EQ(knn_s->neighbors.size(), k);
      for (uint32_t i = 0; i < k; ++i) {
        EXPECT_EQ(knn_c->neighbors[i].id, knn_s->neighbors[i].id) << i;
        EXPECT_EQ(knn_c->neighbors[i].squared_distance,
                  knn_s->neighbors[i].squared_distance)
            << i;
      }
    }

    const std::vector<Box> boxes = {LocusBox(0.2), LocusBox(0.5),
                                    LocusBox(0.8)};
    auto pipe_c = via_coord.PointCountPipeline(boxes);
    auto pipe_s = via_single.PointCountPipeline(boxes);
    ASSERT_EQ(pipe_c.size(), boxes.size());
    for (size_t i = 0; i < boxes.size(); ++i) {
      ASSERT_TRUE(pipe_c[i].ok()) << pipe_c[i].status().ToString();
      ASSERT_TRUE(pipe_s[i].ok());
      EXPECT_EQ(*pipe_c[i], *pipe_s[i]) << i;
    }
  }

  // --- 2-shard geometry, for the pruning tests ---------------------------

  static const Box& Bounds(const ServedDataset* d) {
    return d->tree().root().bounds;
  }

  /// The root split axis of the 2-way sharding: shard 0's box ends below
  /// shard 1's on it.
  static size_t SplitAxis() {
    for (size_t j = 0; j < kNumBands; ++j) {
      if (Bounds(shard2_[0]).hi(j) < Bounds(shard2_[1]).lo(j)) return j;
    }
    ADD_FAILURE() << "2-way shard boxes do not separate on any axis";
    return 0;
  }

  /// Shard 0's row at the median of the split axis: deep inside shard 0,
  /// far from shard 1.
  static std::vector<double> HomeRow() {
    const size_t axis = SplitAxis();
    std::vector<uint64_t> ids = shard2_[0]->tree().clustered_order();
    const PointSet& points = shard2_[0]->points();
    std::nth_element(ids.begin(), ids.begin() + ids.size() / 2, ids.end(),
                     [&](uint64_t a, uint64_t b) {
                       return points.coord(a, axis) < points.coord(b, axis);
                     });
    const float* p = points.point(ids[ids.size() / 2]);
    return std::vector<double>(p, p + kNumBands);
  }

  /// The row of `shard` with the extreme split-axis coordinate (the max for
  /// shard 0, the min for shard 1): the rows either side of the split.
  static std::vector<double> EdgeRow(const ServedDataset* shard, bool max) {
    const size_t axis = SplitAxis();
    const PointSet& points = shard->points();
    const auto& ids = shard->tree().clustered_order();
    uint64_t best = ids[0];
    for (uint64_t id : ids) {
      const bool better = max ? points.coord(id, axis) > points.coord(best, axis)
                              : points.coord(id, axis) < points.coord(best, axis);
      if (better) best = id;
    }
    const float* p = points.point(best);
    return std::vector<double>(p, p + kNumBands);
  }

  static Box BoxAround(const std::vector<double>& center, double half_width) {
    std::vector<double> lo = center, hi = center;
    for (size_t j = 0; j < center.size(); ++j) {
      lo[j] -= half_width;
      hi[j] += half_width;
    }
    return Box(lo, hi);
  }

  /// A box holding rows of both shards: it covers the rows either side of
  /// the split.
  static Box StraddlingBox() {
    Box box = Box::Empty(kNumBands);
    box.Extend(EdgeRow(shard2_[0], true).data());
    box.Extend(EdgeRow(shard2_[1], false).data());
    box.Inflate(0.05);
    return box;
  }

  /// Per-shard legs (`requests`) and pruned counts from a coordinator.
  struct Routing {
    std::vector<uint64_t> legs, pruned;
  };
  static Routing RoutingOf(const Coordinator& c) {
    Routing r;
    for (const auto& shard : c.Stats().shards) {
      r.legs.push_back(shard.requests);
      r.pruned.push_back(shard.pruned);
    }
    return r;
  }
  /// Legs and prunes one request added, per shard.
  static Routing Delta(const Routing& before, const Routing& after) {
    Routing d = after;
    for (size_t s = 0; s < d.legs.size(); ++s) {
      d.legs[s] -= before.legs[s];
      d.pruned[s] -= before.pruned[s];
    }
    return d;
  }

  static void ExpectSameRows(const QueryClient::QueryResult& a,
                             const QueryClient::QueryResult& b) {
    EXPECT_EQ(a.row_count, b.row_count);
    EXPECT_EQ(a.objids, b.objids);
  }

  static void ExpectSameNeighbors(const QueryClient::KnnResult& a,
                                  const QueryClient::KnnResult& b) {
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << i;
      EXPECT_EQ(a.neighbors[i].squared_distance,
                b.neighbors[i].squared_distance)
          << i;
    }
  }

  /// The broadcast reference: every shard asked directly (replica 0) and
  /// the replies merged with the coordinator's own merge helpers — the
  /// answer mdsc gave before it pruned shards, which a pruned scatter must
  /// reproduce exactly.
  struct BroadcastClient {
    std::vector<QueryClient> shards;
    std::vector<uint64_t> rows;  // per shard, for the kNN k clamp

    Result<uint64_t> PointCount(const Box& box) {
      uint64_t total = 0;
      for (QueryClient& shard : shards) {
        auto count = shard.PointCount(box);
        if (!count.ok()) return count.status();
        total += *count;
      }
      return total;
    }

    Result<QueryClient::QueryResult> BoxQuery(const Box& box,
                                              uint64_t limit = 0) {
      std::vector<protocol::QueryReply> replies;
      for (QueryClient& shard : shards) {
        auto rows_of_shard = shard.BoxQuery(box, limit);
        if (!rows_of_shard.ok()) return rows_of_shard.status();
        protocol::QueryReply reply;
        reply.row_count = rows_of_shard->row_count;
        reply.objids = std::move(rows_of_shard->objids);
        replies.push_back(std::move(reply));
      }
      protocol::QueryReply merged = MergeQueryReplies(std::move(replies), limit);
      QueryClient::QueryResult out;
      out.row_count = merged.row_count;
      out.objids = std::move(merged.objids);
      return out;
    }

    Result<QueryClient::KnnResult> Knn(const std::vector<double>& point,
                                       uint32_t k) {
      std::vector<std::vector<WireNeighbor>> lists;
      for (size_t s = 0; s < shards.size(); ++s) {
        auto knn = shards[s].Knn(
            point, static_cast<uint32_t>(std::min<uint64_t>(k, rows[s])));
        if (!knn.ok()) return knn.status();
        lists.push_back(std::move(knn->neighbors));
      }
      QueryClient::KnnResult out;
      out.neighbors = MergeKnnNeighbors(lists, k);
      return out;
    }
  };

  static BroadcastClient Broadcast(const Topology& t) {
    BroadcastClient out;
    for (const auto& replicas : t.map.shards) {
      out.shards.push_back(MustConnect(replicas[0].port));
      auto health = out.shards.back().Health();
      EXPECT_TRUE(health.ok()) << health.status().ToString();
      out.rows.push_back(health.ok() ? health->served_rows : 0);
    }
    return out;
  }

  /// Box requests answered three ways: through the pruning coordinator,
  /// as a broadcast and by the single server. Count and rows must equal
  /// the broadcast exactly (objids in shard order) and the single server
  /// as a set (its planner may pick another emit order).
  static void ExpectBoxParity(QueryClient& pruned, BroadcastClient& broadcast,
                              QueryClient& single, const Box& box) {
    auto count_p = pruned.PointCount(box);
    auto count_b = broadcast.PointCount(box);
    auto count_s = single.PointCount(box);
    ASSERT_TRUE(count_p.ok()) << count_p.status().ToString();
    ASSERT_TRUE(count_b.ok() && count_s.ok());
    EXPECT_EQ(*count_p, *count_b);
    EXPECT_EQ(*count_p, *count_s);

    auto rows_p = pruned.BoxQuery(box);
    auto rows_b = broadcast.BoxQuery(box);
    auto rows_s = single.BoxQuery(box);
    ASSERT_TRUE(rows_p.ok()) << rows_p.status().ToString();
    ASSERT_TRUE(rows_b.ok() && rows_s.ok());
    ExpectSameRows(*rows_p, *rows_b);
    EXPECT_EQ(rows_p->shards_answered, rows_p->shards_total);
    EXPECT_EQ(rows_p->shards_mask, (1ull << rows_p->shards_total) - 1);
    std::vector<int64_t> set_p = rows_p->objids, set_s = rows_s->objids;
    std::sort(set_p.begin(), set_p.end());
    std::sort(set_s.begin(), set_s.end());
    EXPECT_EQ(set_p, set_s);

    auto top_p = pruned.BoxQuery(box, 3);
    auto top_b = broadcast.BoxQuery(box, 3);
    ASSERT_TRUE(top_p.ok() && top_b.ok());
    ExpectSameRows(*top_p, *top_b);
  }

  static ServedDataset* single_;
  static ServedDataset* shard2_[2];
  static ServedDataset* shard4_[4];
};

ServedDataset* CoordinatorTest::single_ = nullptr;
ServedDataset* CoordinatorTest::shard2_[2] = {};
ServedDataset* CoordinatorTest::shard4_[4] = {};

// --- parity ----------------------------------------------------------------

TEST_F(CoordinatorTest, ShardedDatasetsPartitionTheCatalog) {
  ASSERT_NE(single_, nullptr);
  uint64_t total2 = 0, total4 = 0;
  for (auto* d : shard2_) { ASSERT_NE(d, nullptr); total2 += d->num_rows(); }
  for (auto* d : shard4_) { ASSERT_NE(d, nullptr); total4 += d->num_rows(); }
  EXPECT_EQ(total2, single_->num_rows());
  EXPECT_EQ(total4, single_->num_rows());
  for (auto* d : shard4_) EXPECT_LT(d->num_rows(), single_->num_rows());
}

TEST_F(CoordinatorTest, TwoShardParityWithSingleServer) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});

  QueryClient via_coord = MustConnect(t.coordinator->port());
  QueryClient via_single = MustConnect(single.port());

  auto health = via_coord.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->served_rows, kRows);
  EXPECT_EQ(health->dim, kNumBands);
  EXPECT_FALSE(health->draining);

  AssertParity(via_coord, via_single);
  single.Shutdown();
}

TEST_F(CoordinatorTest, FourShardParityWithSingleServer) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t =
      Start({{shard4_[0]}, {shard4_[1]}, {shard4_[2]}, {shard4_[3]}});

  QueryClient via_coord = MustConnect(t.coordinator->port());
  QueryClient via_single = MustConnect(single.port());
  AssertParity(via_coord, via_single);
  single.Shutdown();
}

TEST_F(CoordinatorTest, TableSampleDeterministicAndContained) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());

  const Box box = LocusBox(0.8);
  auto a = client.TableSample(box, 10.0, 50, /*seed=*/123);
  auto b = client.TableSample(box, 10.0, 50, /*seed=*/123);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  // Same seed through the same topology => the same sample.
  EXPECT_EQ(a->objids, b->objids);
  EXPECT_LE(a->objids.size(), 50u);
  EXPECT_FALSE(a->objids.empty());
  // TABLESAMPLE row_count counts the returned rows (post-TOP).
  EXPECT_EQ(a->row_count, a->objids.size());
  // Every sampled objid is a real catalog row inside the box.
  const PointSet& points = single_->points();
  for (int64_t id : a->objids) {
    ASSERT_GE(id, 0);
    ASSERT_LT(static_cast<uint64_t>(id), points.size());
    EXPECT_TRUE(box.Contains(points.point(static_cast<uint64_t>(id))));
  }
}

TEST_F(CoordinatorTest, PlannerHintsPassThroughToShards) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());
  const Box box = LocusBox(0.8);

  QueryOptions full_scan;
  full_scan.force_full_scan = true;
  auto scanned = client.BoxQuery(box, 0, full_scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  // Every shard obeyed the hint, so the merged path is not "mixed".
  EXPECT_EQ(scanned->chosen_path, "full-scan");
  EXPECT_EQ(scanned->rows_scanned, kRows);  // both shards scanned fully

  QueryOptions indexed;
  indexed.force_index = true;
  auto via_index = client.BoxQuery(box, 0, indexed);
  ASSERT_TRUE(via_index.ok());
  EXPECT_EQ(via_index->chosen_path, "kd-tree");
  // The two paths emit in different orders; the row set must agree.
  std::vector<int64_t> by_index = via_index->objids;
  std::vector<int64_t> by_scan = scanned->objids;
  std::sort(by_index.begin(), by_index.end());
  std::sort(by_scan.begin(), by_scan.end());
  EXPECT_EQ(by_index, by_scan);
}

// --- kNN bounds across shards ----------------------------------------------

TEST_F(CoordinatorTest, KnnLargerThanOneShardSmallerThanUnion) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t =
      Start({{shard4_[0]}, {shard4_[1]}, {shard4_[2]}, {shard4_[3]}});
  QueryClient via_coord = MustConnect(t.coordinator->port());
  QueryClient via_single = MustConnect(single.port());

  // k exceeds every single shard's population (kRows/4) but not the
  // union: each shard must be asked for min(k, its rows) and the merge
  // must still equal the single server bit for bit.
  const uint32_t k = static_cast<uint32_t>(kRows / 4 + 100);
  double target[kNumBands];
  StellarLocus(0.5, 0.0, target);
  const std::vector<double> point(target, target + kNumBands);

  auto knn_c = via_coord.Knn(point, k);
  auto knn_s = via_single.Knn(point, k);
  ASSERT_TRUE(knn_c.ok()) << knn_c.status().ToString();
  ASSERT_TRUE(knn_s.ok());
  ASSERT_EQ(knn_c->neighbors.size(), k);
  ASSERT_EQ(knn_c->neighbors.size(), knn_s->neighbors.size());
  for (uint32_t i = 0; i < k; ++i) {
    ASSERT_EQ(knn_c->neighbors[i].id, knn_s->neighbors[i].id) << i;
  }

  // k beyond the union is InvalidArgument, exactly like a single server
  // — and not retryable, so it must come back after one round, not after
  // walking replicas.
  auto too_big = via_coord.Knn(point, static_cast<uint32_t>(kRows + 1));
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  single.Shutdown();
}

TEST_F(CoordinatorTest, DimensionMismatchIsInvalidArgument) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());
  const Box flat({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});  // dim 3, catalog dim 5
  auto count = client.PointCount(flat);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
  // The connection survives a semantic error.
  auto ok = client.PointCount(LocusBox(0.5));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// --- failover, hedging, drain ----------------------------------------------

TEST_F(CoordinatorTest, BackendKillMidLoadFailsOverWithZeroClientErrors) {
  // One shard, two replicas over the same dataset. Replica 0 dies while
  // clients are querying; every client request must still succeed.
  CoordinatorConfig config;
  config.sub_deadline_ms = 2000;
  Topology t = Start({{single_, single_}}, config);

  QueryClient warmup = MustConnect(t.coordinator->port());
  auto first = warmup.PointCount(LocusBox(0.5));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> successes{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> loaders;
  for (int i = 0; i < 3; ++i) {
    loaders.emplace_back([&t, &stop, &successes, &failures] {
      QueryClient client = MustConnect(t.coordinator->port());
      const Box box = LocusBox(0.5);
      while (!stop.load(std::memory_order_relaxed)) {
        auto count = client.PointCount(box);
        if (count.ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "client saw: " << count.status().ToString();
          // The exchange failure closed the connection; reconnect.
          client = MustConnect(t.coordinator->port());
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  t.backends[0]->Shutdown();  // kill replica 0 mid-load
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& th : loaders) th.join();

  EXPECT_GT(successes.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);

  const auto stats = t.coordinator->Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_GE(stats.shards[0].failovers, 1u);
  EXPECT_GE(stats.shards[0].backend_errors, 1u);
  // Replica 0 accumulated consecutive failures and sits in backoff.
  EXPECT_LT(stats.shards[0].healthy_replicas, stats.shards[0].replicas);
}

TEST_F(CoordinatorTest, HedgeFiresAgainstStalledReplicaAndWins) {
  // Replica 0 is a black hole: it accepts connections and never replies.
  // With a fixed hedge delay well under the sub-deadline, the hedge to
  // replica 1 must answer the client promptly and be counted as won.
  auto stall = TcpListener::Listen(0);
  ASSERT_TRUE(stall.ok());
  const uint16_t stall_port = stall->port();
  std::atomic<bool> stall_stop{false};
  std::vector<Socket> swallowed;
  std::thread stall_thread([&stall, &stall_stop, &swallowed] {
    while (!stall_stop.load(std::memory_order_relaxed)) {
      auto sock = stall->Accept(IoDeadline::After(50));
      if (sock.ok()) swallowed.push_back(std::move(*sock));
    }
  });

  auto backend = std::make_unique<QueryServer>(single_, ServerConfig{});
  ASSERT_TRUE(backend->Start().ok());

  ShardMap map;
  map.shards.push_back(
      {{"127.0.0.1", stall_port}, {"127.0.0.1", backend->port()}});
  CoordinatorConfig config;
  config.hedge_delay_ms = 50;
  config.sub_deadline_ms = 300;
  Coordinator coordinator(map, config);
  // Start() probes replica 0, times out, and falls through to replica 1.
  ASSERT_TRUE(coordinator.Start().ok());

  QueryClient client = MustConnect(coordinator.port());
  auto count = client.PointCount(LocusBox(0.5));
  ASSERT_TRUE(count.ok()) << count.status().ToString();

  const auto stats = coordinator.Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_GE(stats.shards[0].hedges_fired, 1u);
  EXPECT_GE(stats.shards[0].hedges_won, 1u);

  // Shutdown waits out the stalled attempt (sub-deadline + client slack).
  coordinator.Shutdown();
  backend->Shutdown();
  stall_stop.store(true);
  stall_thread.join();
}

TEST_F(CoordinatorTest, DrainShedsQueriesButAnswersHealth) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());
  // Complete one request so the accept thread has registered this
  // connection before the drain starts (a connection still in the accept
  // queue when drain begins is dropped, like any new arrival).
  ASSERT_TRUE(client.PointCount(LocusBox(0.5)).ok());

  t.coordinator->RequestDrain();
  EXPECT_TRUE(t.coordinator->draining());

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->draining);

  auto count = client.PointCount(LocusBox(0.5));
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kUnavailable);

  const auto stats = t.coordinator->Stats();
  EXPECT_GE(stats.rejected_draining, 1u);
}

TEST_F(CoordinatorTest, StatsCarryPerShardRoutingCounters) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());

  // A box that reaches both shards, so each one is routed every request.
  const Box box = StraddlingBox();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.PointCount(box).ok());
  }

  // Over the wire, through the same kStats request mdsd serves.
  auto stats = client.ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->requests_total, 4u);  // 3 counts + this stats request
  EXPECT_GE(stats->replies_ok, 4u);      // the stats reply counts itself
  EXPECT_EQ(stats->replies_error, 0u);
  EXPECT_GT(stats->bytes_in, 0u);
  EXPECT_GT(stats->bytes_out, 0u);
  ASSERT_EQ(stats->shards.size(), 2u);
  for (const auto& shard : stats->shards) {
    EXPECT_EQ(shard.replicas, 1u);
    EXPECT_EQ(shard.healthy_replicas, 1u);
    EXPECT_GE(shard.requests, 3u);
    EXPECT_EQ(shard.failovers, 0u);
    EXPECT_EQ(shard.backend_errors, 0u);
    EXPECT_GT(shard.p99_us, 0u);
    EXPECT_EQ(shard.pruned, 0u);
  }
}

// --- shard pruning ---------------------------------------------------------

TEST_F(CoordinatorTest, HealthReportsShardAndFleetBounds) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  // Each mdsd reports its kd subtree's box; the coordinator reports their
  // union, which is the whole catalogue's root box.
  for (size_t s = 0; s < 2; ++s) {
    QueryClient backend = MustConnect(t.backends[s]->port());
    auto health = backend.Health();
    ASSERT_TRUE(health.ok());
    EXPECT_EQ(health->bounds, Bounds(shard2_[s]));
  }
  QueryClient client = MustConnect(t.coordinator->port());
  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->bounds, Bounds(single_));
}

TEST_F(CoordinatorTest, BoxInsideOneShardTakesOneLeg) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient pruned = MustConnect(t.coordinator->port());
  BroadcastClient broadcast = Broadcast(t);
  QueryClient via_single = MustConnect(single.port());

  const Box box = BoxAround(HomeRow(), 0.1);
  ASSERT_TRUE(box.Intersects(Bounds(shard2_[0])));
  ASSERT_FALSE(box.Intersects(Bounds(shard2_[1])));

  const Routing before = RoutingOf(*t.coordinator);
  auto count = pruned.PointCount(box);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_GT(*count, 0u);
  const Routing d = Delta(before, RoutingOf(*t.coordinator));
  EXPECT_EQ(d.legs, (std::vector<uint64_t>{1, 0}));
  EXPECT_EQ(d.pruned, (std::vector<uint64_t>{0, 1}));

  ExpectBoxParity(pruned, broadcast, via_single, box);
  // The pruned shard counts as answered, not missing.
  auto rows = pruned.BoxQuery(box);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->shards_answered, 2u);
  EXPECT_EQ(rows->shards_mask, 0x3u);
  EXPECT_FALSE(rows->partial);
  single.Shutdown();
}

TEST_F(CoordinatorTest, StraddlingBoxTakesBothLegsInShardOrder) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient pruned = MustConnect(t.coordinator->port());
  BroadcastClient broadcast = Broadcast(t);
  QueryClient via_single = MustConnect(single.port());

  const Box box = StraddlingBox();
  const Routing before = RoutingOf(*t.coordinator);
  ASSERT_TRUE(pruned.PointCount(box).ok());
  const Routing d = Delta(before, RoutingOf(*t.coordinator));
  EXPECT_EQ(d.legs, (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(d.pruned, (std::vector<uint64_t>{0, 0}));

  // Both shards contribute rows, concatenated in shard order: every
  // shard-0 row precedes every shard-1 row.
  auto rows = pruned.BoxQuery(box);
  ASSERT_TRUE(rows.ok());
  auto in_shard0 = [](int64_t id) {
    return Bounds(shard2_[0]).Contains(
        single_->points().point(static_cast<uint64_t>(id)));
  };
  const auto boundary = std::partition_point(
      rows->objids.begin(), rows->objids.end(), in_shard0);
  EXPECT_NE(boundary, rows->objids.begin());
  EXPECT_NE(boundary, rows->objids.end());
  EXPECT_TRUE(std::none_of(boundary, rows->objids.end(), in_shard0));
  ExpectBoxParity(pruned, broadcast, via_single, box);
  single.Shutdown();
}

TEST_F(CoordinatorTest, BoxMissingEveryShardTakesNoLeg) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient pruned = MustConnect(t.coordinator->port());
  BroadcastClient broadcast = Broadcast(t);
  QueryClient via_single = MustConnect(single.port());

  const Box box = BoxAround(std::vector<double>(kNumBands, 1000.0), 1.0);
  const Routing before = RoutingOf(*t.coordinator);
  auto rows = pruned.BoxQuery(box);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const Routing d = Delta(before, RoutingOf(*t.coordinator));
  EXPECT_EQ(d.legs, (std::vector<uint64_t>{0, 0}));
  EXPECT_EQ(d.pruned, (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(rows->row_count, 0u);
  EXPECT_TRUE(rows->objids.empty());
  EXPECT_EQ(rows->chosen_path, "pruned");  // docs/PROTOCOL.md, QueryReply
  EXPECT_EQ(rows->rows_scanned, 0u);
  EXPECT_EQ(rows->shards_answered, 2u);
  EXPECT_EQ(rows->shards_mask, 0x3u);
  ExpectBoxParity(pruned, broadcast, via_single, box);

  auto sample = pruned.TableSample(box, 50.0, 10, /*seed=*/1);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_EQ(sample->row_count, 0u);
  single.Shutdown();
}

TEST_F(CoordinatorTest, KnnFarFromTheSplitTakesOneLeg) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient pruned = MustConnect(t.coordinator->port());
  BroadcastClient broadcast = Broadcast(t);
  QueryClient via_single = MustConnect(single.port());

  const std::vector<double> probe = HomeRow();
  const Routing before = RoutingOf(*t.coordinator);
  auto knn_p = pruned.Knn(probe, 10);
  ASSERT_TRUE(knn_p.ok()) << knn_p.status().ToString();
  const Routing d = Delta(before, RoutingOf(*t.coordinator));
  EXPECT_EQ(d.legs, (std::vector<uint64_t>{1, 0}));
  EXPECT_EQ(d.pruned, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(knn_p->shards_answered, 2u);
  EXPECT_EQ(knn_p->shards_mask, 0x3u);

  auto knn_b = broadcast.Knn(probe, 10);
  auto knn_s = via_single.Knn(probe, 10);
  ASSERT_TRUE(knn_b.ok() && knn_s.ok());
  ExpectSameNeighbors(*knn_p, *knn_b);
  ExpectSameNeighbors(*knn_p, *knn_s);
  single.Shutdown();
}

TEST_F(CoordinatorTest, KnnOnTheSplitPlaneQueriesBothShardsFirst) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient pruned = MustConnect(t.coordinator->port());
  BroadcastClient broadcast = Broadcast(t);
  QueryClient via_single = MustConnect(single.port());

  // Midway between the two boxes on the split axis, and inside both on
  // every other axis: both boxes are exactly equally near, so both
  // shards are in phase 1.
  const Box& b0 = Bounds(shard2_[0]);
  const Box& b1 = Bounds(shard2_[1]);
  const size_t axis = SplitAxis();
  std::vector<double> probe = EdgeRow(shard2_[0], true);
  for (size_t j = 0; j < kNumBands; ++j) {
    const double lo = std::max(b0.lo(j), b1.lo(j));
    const double hi = std::min(b0.hi(j), b1.hi(j));
    if (j != axis) {
      ASSERT_LE(lo, hi) << "boxes do not overlap on axis " << j;
      probe[j] = std::clamp(probe[j], lo, hi);
    }
  }
  probe[axis] = (b0.hi(axis) + b1.lo(axis)) / 2;
  ASSERT_EQ(b0.MinSquaredDistance(probe.data()),
            b1.MinSquaredDistance(probe.data()));

  for (uint32_t k : {1u, 10u}) {
    const Routing before = RoutingOf(*t.coordinator);
    auto knn_p = pruned.Knn(probe, k);
    ASSERT_TRUE(knn_p.ok()) << knn_p.status().ToString();
    const Routing d = Delta(before, RoutingOf(*t.coordinator));
    EXPECT_EQ(d.legs, (std::vector<uint64_t>{1, 1})) << k;
    EXPECT_EQ(d.pruned, (std::vector<uint64_t>{0, 0})) << k;
    auto knn_b = broadcast.Knn(probe, k);
    auto knn_s = via_single.Knn(probe, k);
    ASSERT_TRUE(knn_b.ok() && knn_s.ok());
    ExpectSameNeighbors(*knn_p, *knn_b);
    ExpectSameNeighbors(*knn_p, *knn_s);
  }
  single.Shutdown();
}

TEST_F(CoordinatorTest, KnnBeyondTheHomeShardVisitsEveryShard) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient pruned = MustConnect(t.coordinator->port());
  BroadcastClient broadcast = Broadcast(t);
  QueryClient via_single = MustConnect(single.port());

  // Phase 1 (shard 0 alone) returns all its rows, fewer than k: phase 2
  // must ask shard 1 however far its box is.
  const uint32_t k = static_cast<uint32_t>(shard2_[0]->num_rows() + 5);
  const std::vector<double> probe = HomeRow();
  const Routing before = RoutingOf(*t.coordinator);
  auto knn_p = pruned.Knn(probe, k);
  ASSERT_TRUE(knn_p.ok()) << knn_p.status().ToString();
  const Routing d = Delta(before, RoutingOf(*t.coordinator));
  EXPECT_EQ(d.legs, (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(d.pruned, (std::vector<uint64_t>{0, 0}));
  ASSERT_EQ(knn_p->neighbors.size(), k);

  auto knn_b = broadcast.Knn(probe, k);
  auto knn_s = via_single.Knn(probe, k);
  ASSERT_TRUE(knn_b.ok() && knn_s.ok());
  ExpectSameNeighbors(*knn_p, *knn_b);
  ExpectSameNeighbors(*knn_p, *knn_s);
  single.Shutdown();
}

/// Writes `points` as 2-way shard files plus an unsharded file and loads
/// them: a hand-placed catalogue whose distances are exact in float.
struct TinyCatalogue {
  std::unique_ptr<ServedDataset> single;
  std::unique_ptr<ServedDataset> shards[2];
};

TinyCatalogue LoadTinyCatalogue(const PointSet& points, const std::string& tag) {
  TinyCatalogue out;
  for (uint32_t count : {1u, 2u}) {
    for (uint32_t index = 0; index < count; ++index) {
      const std::string path =
          (std::filesystem::temp_directory_path() /
           ("coordinator_test_" + tag + "_" + std::to_string(index) + "of" +
            std::to_string(count) + ".mds"))
              .string();
      DatasetFileOptions options;
      options.ingest = &points;
      options.dataset.shard_index = index;
      options.dataset.shard_count = count;
      Status written = WriteDatasetFile(options, path);
      EXPECT_TRUE(written.ok()) << written.ToString();
      auto loaded = ServedDataset::Load(path);
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
      std::remove(path.c_str());
      if (!loaded.ok()) return out;
      auto dataset = std::make_unique<ServedDataset>(std::move(*loaded));
      if (count == 1) {
        out.single = std::move(dataset);
      } else {
        out.shards[index] = std::move(dataset);
      }
    }
  }
  return out;
}

TEST_F(CoordinatorTest, KnnTieAtTheKthDistanceAcrossShardsIsVisited) {
  // 2-D. Shard 0 holds x <= 1, shard 1 holds x >= 3 (16 rows each; the
  // root splits on x at the median). From the probe (1, 0): C = (0, 0) is
  // at d2 1, A = (1, 2) at d2 4 in shard 0, and B = (3, 0) at d2 4 in
  // shard 1, whose box is also exactly d2 4 away. With k = 2, phase 1
  // (shard 0) ends with k-th d2 4 == shard 1's box distance, so shard 1
  // must still be visited: the (d2, id) order picks between A and B.
  const float kC[2] = {0.0f, 0.0f}, kA[2] = {1.0f, 2.0f}, kB[2] = {3.0f, 0.0f};
  const std::vector<double> probe = {1.0, 0.0};
  for (const bool b_first : {true, false}) {
    PointSet points(2, 0);
    if (b_first) points.Append(kB);
    points.Append(kC);
    points.Append(kA);
    if (!b_first) points.Append(kB);
    for (int i = 0; i < 14; ++i) {
      const float left[2] = {0.5f, 10.0f + static_cast<float>(i)};
      points.Append(left);
    }
    for (int i = 0; i < 15; ++i) {
      const float right[2] = {4.0f, 10.0f + static_cast<float>(i)};
      points.Append(right);
    }
    const int64_t id_b = b_first ? 0 : 2;
    const int64_t id_a = b_first ? 2 : 1;

    TinyCatalogue tiny = LoadTinyCatalogue(points, b_first ? "tie_b" : "tie_a");
    ASSERT_NE(tiny.shards[1], nullptr);
    ASSERT_EQ(Bounds(tiny.shards[0].get()).MinSquaredDistance(probe.data()), 0.0);
    ASSERT_EQ(Bounds(tiny.shards[1].get()).MinSquaredDistance(probe.data()), 4.0);

    QueryServer single(tiny.single.get(), ServerConfig{});
    ASSERT_TRUE(single.Start().ok());
    Topology t = Start({{tiny.shards[0].get()}, {tiny.shards[1].get()}});
    QueryClient pruned = MustConnect(t.coordinator->port());
    BroadcastClient broadcast = Broadcast(t);
    QueryClient via_single = MustConnect(single.port());

    const Routing before = RoutingOf(*t.coordinator);
    auto knn_p = pruned.Knn(probe, 2);
    ASSERT_TRUE(knn_p.ok()) << knn_p.status().ToString();
    const Routing d = Delta(before, RoutingOf(*t.coordinator));
    EXPECT_EQ(d.legs, (std::vector<uint64_t>{1, 1})) << b_first;
    ASSERT_EQ(knn_p->neighbors.size(), 2u);
    EXPECT_EQ(knn_p->neighbors[0].squared_distance, 1.0);
    EXPECT_EQ(knn_p->neighbors[1].squared_distance, 4.0);
    EXPECT_EQ(knn_p->neighbors[1].id, std::min(id_a, id_b)) << b_first;

    auto knn_b = broadcast.Knn(probe, 2);
    auto knn_s = via_single.Knn(probe, 2);
    ASSERT_TRUE(knn_b.ok() && knn_s.ok());
    ExpectSameNeighbors(*knn_p, *knn_b);
    // A single server ends its search when a node's box distance reaches
    // the k-th distance (>=), so which of two rows tied at the k-th
    // distance it keeps follows its scan order, not the id. The distances
    // agree always; the ids here only when the id order and the scan
    // order agree (A scanned first and A's id smaller).
    ASSERT_EQ(knn_s->neighbors.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(knn_p->neighbors[i].squared_distance,
                knn_s->neighbors[i].squared_distance);
    }
    if (!b_first) ExpectSameNeighbors(*knn_p, *knn_s);
    single.Shutdown();
  }
}

TEST_F(CoordinatorTest, PrunedDeadShardStillGivesACompleteReply) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());
  t.backends[1]->Shutdown();  // shard 1's only replica

  QueryOptions partial;
  partial.allow_partial = true;
  const Box box = BoxAround(HomeRow(), 0.1);
  auto rows = client.BoxQuery(box, 0, partial);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_FALSE(rows->partial);
  EXPECT_FALSE(rows->degraded);
  EXPECT_EQ(rows->shards_answered, 2u);
  EXPECT_EQ(rows->shards_mask, 0x3u);
  EXPECT_GT(rows->row_count, 0u);

  auto knn = client.Knn(HomeRow(), 10, partial);
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  EXPECT_FALSE(knn->partial);
  EXPECT_EQ(knn->shards_answered, 2u);

  // A box that needs the dead shard degrades, as before.
  auto straddle = client.BoxQuery(StraddlingBox(), 0, partial);
  ASSERT_TRUE(straddle.ok()) << straddle.status().ToString();
  EXPECT_TRUE(straddle->partial);
  EXPECT_EQ(straddle->shards_mask, 0x1u);
}

TEST_F(CoordinatorTest, ReloadRestampsShardBounds) {
  // The new generation is another catalogue (seed 8, 12000 rows): its
  // shard boxes differ from the seed-7 ones the coordinator started with.
  DatasetConfig next_config;
  next_config.num_rows = 12000;
  next_config.seed = 8;
  auto next_single = ServedDataset::Build(next_config);
  ASSERT_TRUE(next_single.ok());

  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  for (uint32_t s = 0; s < 2; ++s) {
    t.backends[s]->SetReloadHandler(
        [next_config, s](const std::string&)
            -> Result<std::shared_ptr<ServedDataset>> {
          DatasetConfig config = next_config;
          config.shard_index = s;
          config.shard_count = 2;
          auto built = ServedDataset::Build(config);
          if (!built.ok()) return built.status();
          return std::make_shared<ServedDataset>(std::move(*built));
        });
  }
  QueryClient client = MustConnect(t.coordinator->port());
  QueryOptions slow;
  slow.deadline_ms = 60000;
  auto reloaded = client.Reload("", slow);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->served_rows, next_config.num_rows);
  EXPECT_EQ(reloaded->bounds, next_single->tree().root().bounds);
  ASSERT_NE(reloaded->bounds, Bounds(single_));
  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->bounds, next_single->tree().root().bounds);

  QueryServer single(&*next_single, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  BroadcastClient broadcast = Broadcast(t);
  QueryClient via_single = MustConnect(single.port());
  AssertParity(client, via_single);

  // Pruning runs on the new boxes: a box around a row of the new shard 0,
  // clear of the new shard 1's box, takes one leg and answers exactly.
  QueryClient shard0 = MustConnect(t.backends[0]->port());
  QueryClient shard1 = MustConnect(t.backends[1]->port());
  auto b0 = shard0.Health();
  auto b1 = shard1.Health();
  ASSERT_TRUE(b0.ok() && b1.ok());
  auto ids = next_single->tree().clustered_order();
  const Box* home = nullptr;
  Box box;
  for (uint64_t id : ids) {
    const float* p = next_single->points().point(id);
    box = BoxAround(std::vector<double>(p, p + kNumBands), 0.05);
    if (box.Intersects(b0->bounds) && !box.Intersects(b1->bounds)) {
      home = &box;
      break;
    }
  }
  ASSERT_NE(home, nullptr);
  const Routing before = RoutingOf(*t.coordinator);
  ExpectBoxParity(client, broadcast, via_single, *home);
  const Routing d = Delta(before, RoutingOf(*t.coordinator));
  EXPECT_EQ(d.legs[1], 0u);
  EXPECT_GT(d.pruned[1], 0u);
  single.Shutdown();
}

// --- resource flatness -----------------------------------------------------

struct ProcResources {
  uint64_t threads = 0;
  uint64_t fds = 0;
  uint64_t vm_kb = 0;
};

ProcResources ReadProcResources() {
  ProcResources r;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") status >> r.threads;
    if (key == "VmSize:") status >> r.vm_kb;
  }
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++r.fds;
  }
  return r;
}

TEST_F(CoordinatorTest, ConnectionChurnIsResourceFlat) {
  // Every connect/close cycle through mdsc used to leave an exited but
  // unjoined handler thread behind, each pinning its stack: 500 cycles
  // grew VmSize by gigabytes. Both daemons must stay flat.
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  const Box box = StraddlingBox();
  auto churn = [&box](uint16_t port, int cycles) {
    for (int i = 0; i < cycles; ++i) {
      QueryClient client = MustConnect(port);
      ASSERT_TRUE(client.PointCount(box).ok());
    }
  };
  auto settle = [&t] {
    // Wait until both front ends have seen every close, then one accept
    // tick more so mdsc has reaped the last handlers.
    for (int i = 0; i < 200; ++i) {
      const auto c = t.coordinator->Stats();
      const auto b = t.backends[0]->Stats();
      if (c.connections_closed == c.connections_accepted &&
          b.connections_closed + 2 >= b.connections_accepted) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  };

  churn(t.coordinator->port(), 50);
  churn(t.backends[0]->port(), 50);
  settle();
  const ProcResources before = ReadProcResources();
  churn(t.coordinator->port(), 500);
  churn(t.backends[0]->port(), 500);
  settle();
  const ProcResources after = ReadProcResources();

  EXPECT_LE(after.threads, before.threads + 2);
  EXPECT_LE(after.fds, before.fds + 4);
  EXPECT_LE(after.vm_kb, before.vm_kb + 256 * 1024)
      << "VmSize grew from " << before.vm_kb << " kB to " << after.vm_kb
      << " kB over 1000 connections";
}

TEST_F(CoordinatorTest, IdleConnectionsParkWithoutThreads) {
  // Parked client connections must cost mdsc table entries, not stacks:
  // 200 idle clients (under the default max_connections of 256) add at
  // most a couple of threads, and every one of them still answers.
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  constexpr int kIdle = 200;
  std::vector<QueryClient> clients;
  clients.reserve(kIdle);
  const ProcResources before = ReadProcResources();
  for (int i = 0; i < kIdle; ++i) {
    clients.push_back(MustConnect(t.coordinator->port()));
    ASSERT_TRUE(clients.back().Health().ok()) << "connection " << i;
  }
  const ProcResources parked = ReadProcResources();
  EXPECT_LE(parked.threads, before.threads + 2)
      << kIdle << " idle connections must not cost threads";
  for (int i = 0; i < kIdle; ++i) {
    ASSERT_TRUE(clients[i].Health().ok()) << "connection " << i;
  }
}

}  // namespace
}  // namespace mds
