#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/point_table.h"
#include "storage/pager.h"

namespace mds {
namespace {

PointSet MakePoints(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  PointSet ps(d, 0);
  ps.Reserve(n);
  std::vector<double> p(d);
  for (size_t i = 0; i < n; ++i) {
    double mode = rng.NextDouble();
    for (size_t j = 0; j < d; ++j) {
      p[j] = mode < 0.6 ? 0.4 + 0.05 * rng.NextGaussian() : rng.NextDouble();
    }
    ps.Append(p.data());
  }
  return ps;
}

std::vector<int64_t> BruteForce(const PointSet& ps, const Polyhedron& poly) {
  std::vector<int64_t> out;
  for (uint64_t i = 0; i < ps.size(); ++i) {
    if (poly.Contains(ps.point(i))) out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    points_ = MakePoints(20000, 3, 11);
    pool_ = std::make_unique<BufferPool>(&pager_, 4096);
  }

  PointSet points_{3, 0};
  MemPager pager_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(QueryEngineTest, FullScanMatchesBruteForce) {
  auto table = MaterializePointTable(pool_.get(), points_, {});
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 3);
  Polyhedron poly =
      Polyhedron::BallApproximation({0.4, 0.4, 0.4}, 0.1, 10);
  FullScanPath path(binding, poly);
  auto result = ExecuteAccessPath(&path);
  ASSERT_TRUE(result.ok());
  std::vector<int64_t> got = result->objids;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForce(points_, poly));
  EXPECT_EQ(result->rows_scanned, points_.size());
}

TEST_F(QueryEngineTest, KdPlanMatchesAndReadsFewerPages) {
  auto tree = KdTreeIndex::Build(&points_);
  ASSERT_TRUE(tree.ok());
  auto table =
      MaterializePointTable(pool_.get(), points_, tree->clustered_order());
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 3);

  // A selective query in the sparse background — the Figure 5 regime where
  // the kd-tree wins by a wide margin.
  Polyhedron poly =
      Polyhedron::BallApproximation({0.8, 0.8, 0.8}, 0.06, 20);
  KdTreePath kd_path(binding, *tree, poly);
  auto kd = ExecuteAccessPath(&kd_path);
  ASSERT_TRUE(kd.ok());
  // objids from the kd path are original ids; brute force uses originals.
  std::vector<int64_t> got = kd->objids;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForce(points_, poly));

  FullScanPath scan_path(binding, poly);
  auto scan = ExecuteAccessPath(&scan_path);
  ASSERT_TRUE(scan.ok());
  EXPECT_LT(kd->rows_scanned, scan.MoveValue().rows_scanned / 4);

  // A non-selective query still returns the exact answer.
  Polyhedron big = Polyhedron::BallApproximation({0.4, 0.4, 0.4}, 0.3, 12);
  KdTreePath big_path(binding, *tree, big);
  auto kd_big = ExecuteAccessPath(&big_path);
  ASSERT_TRUE(kd_big.ok());
  std::vector<int64_t> got_big = kd_big->objids;
  std::sort(got_big.begin(), got_big.end());
  EXPECT_EQ(got_big, BruteForce(points_, big));
}

TEST_F(QueryEngineTest, KdPlanPageIoSmallForSelectiveQuery) {
  auto tree = KdTreeIndex::Build(&points_);
  ASSERT_TRUE(tree.ok());
  auto table =
      MaterializePointTable(pool_.get(), points_, tree->clustered_order());
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 3);
  Polyhedron poly =
      Polyhedron::BallApproximation({0.8, 0.8, 0.8}, 0.05, 20);
  KdTreePath path(binding, *tree, poly);
  auto kd = ExecuteAccessPath(&path);
  ASSERT_TRUE(kd.ok());
  EXPECT_LT(kd->pages_fetched, table->num_pages() / 2);
}

TEST_F(QueryEngineTest, VoronoiExecutionMatches) {
  VoronoiIndexConfig config;
  config.num_seeds = 64;
  auto index = VoronoiIndex::Build(&points_, config);
  ASSERT_TRUE(index.ok());
  auto table =
      MaterializePointTable(pool_.get(), points_, index->clustered_order());
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 3);
  Polyhedron poly =
      Polyhedron::BallApproximation({0.5, 0.5, 0.5}, 0.2, 14);
  VoronoiPath path(binding, *index, poly);
  QueryStats stats;
  auto result = ExecuteAccessPath(&path, &stats);
  ASSERT_TRUE(result.ok());
  std::vector<int64_t> got = result->objids;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForce(points_, poly));
  // Every cell is classified exactly once: inside (full), outside
  // (pruned) or partial.
  EXPECT_EQ(stats.cells_full + stats.cells_pruned + stats.cells_partial,
            index->num_seeds());
}

TEST_F(QueryEngineTest, GridSampleDeliversAndReadsFewPages) {
  auto index = LayeredGridIndex::Build(&points_);
  ASSERT_TRUE(index.ok());
  auto table =
      MaterializePointTable(pool_.get(), points_, index->clustered_order());
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 3);

  Box q({0.3, 0.3, 0.3}, {0.5, 0.5, 0.5});
  GridSamplePath path(binding, *index, q, 500);
  QueryStats stats;
  auto result = ExecuteAccessPath(&path, &stats);
  ASSERT_TRUE(result.ok());
  // One plan step per layer visited; every returned row was emitted.
  EXPECT_GE(stats.plan_steps, 1u);
  EXPECT_EQ(stats.rows_emitted, result->objids.size());
  EXPECT_GE(result->objids.size(), 500u);
  for (int64_t objid : result->objids) {
    EXPECT_TRUE(q.Contains(points_.point(static_cast<uint64_t>(objid))));
  }
  // The §3.1 claim: pages fetched stay close to the pages that hold the
  // returned rows (here: well under a full scan).
  EXPECT_LT(result->pages_fetched, table->num_pages() / 2);

  // In-memory and storage-backed paths agree.
  std::vector<uint64_t> mem_ids;
  ASSERT_TRUE(index->SampleQuery(q, 500, &mem_ids).ok());
  std::vector<int64_t> mem(mem_ids.begin(), mem_ids.end());
  std::vector<int64_t> got = result->objids;
  std::sort(mem.begin(), mem.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, mem);
}

TEST_F(QueryEngineTest, TableSampleTopNStopsEarly) {
  auto table = MaterializePointTable(pool_.get(), points_, {});
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 3);
  Rng rng(13);
  Box q({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});
  TableSamplePath path(binding, q, 50.0, 100, &rng);
  auto result = ExecuteAccessPath(&path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objids.size(), 100u);
  EXPECT_LT(result->rows_scanned, points_.size());
}

TEST_F(QueryEngineTest, TableSampleUndersamplesSmallBoxes) {
  // The E3 failure mode: with a small p, a selective box returns far fewer
  // than n points even though the box holds plenty.
  auto table = MaterializePointTable(pool_.get(), points_, {});
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 3);
  Rng rng(17);
  Box q({0.38, 0.38, 0.38}, {0.42, 0.42, 0.42});
  uint64_t population = 0;
  for (uint64_t i = 0; i < points_.size(); ++i) {
    if (q.Contains(points_.point(i))) ++population;
  }
  ASSERT_GT(population, 200u);
  TableSamplePath path(binding, q, 1.0, 200, &rng);
  auto result = ExecuteAccessPath(&path);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->objids.size(), 200u);
}

TEST_F(QueryEngineTest, ObjIdSecondaryIndexJoinsBack) {
  // Clustered table + B+-tree on objID: spatial hits join back to stored
  // rows without scanning.
  auto tree = KdTreeIndex::Build(&points_);
  ASSERT_TRUE(tree.ok());
  auto table =
      MaterializePointTable(pool_.get(), points_, tree->clustered_order());
  ASSERT_TRUE(table.ok());
  auto objid_index = BuildObjIdIndex(pool_.get(), *table);
  ASSERT_TRUE(objid_index.ok());
  EXPECT_EQ(objid_index->num_entries(), points_.size());

  Polyhedron poly = Polyhedron::BallApproximation({0.4, 0.4, 0.4}, 0.05, 12);
  PointTableBinding binding = BindPointTable(&*table, 3);
  KdTreePath path(binding, *tree, poly);
  auto result = ExecuteAccessPath(&path);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->objids.empty());
  float coords[3];
  for (size_t i = 0; i < result->objids.size(); i += 7) {
    int64_t objid = result->objids[i];
    ASSERT_TRUE(
        LookupByObjId(*table, *objid_index, objid, coords, 3).ok());
    for (int j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(coords[j],
                      points_.coord(static_cast<uint64_t>(objid), j));
    }
  }
  // Unknown id fails cleanly.
  EXPECT_EQ(LookupByObjId(*table, *objid_index, -5, coords, 3).code(),
            StatusCode::kNotFound);
}

TEST_F(QueryEngineTest, DimensionMismatchRejected) {
  auto table = MaterializePointTable(pool_.get(), points_, {});
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 3);
  Polyhedron poly2(2);
  FullScanPath path(binding, poly2);
  EXPECT_FALSE(ExecuteAccessPath(&path).ok());
}

TEST_F(QueryEngineTest, ParallelForPreservesSiblingsOnFailure) {
  auto table = MaterializePointTable(pool_.get(), points_, {});
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 3);

  const Polyhedron good =
      Polyhedron::BallApproximation({0.4, 0.4, 0.4}, 0.15, 10);
  const Polyhedron bad(2);  // dimension mismatch: this entry must fail

  std::vector<std::unique_ptr<AccessPath>> paths;
  paths.push_back(std::make_unique<FullScanPath>(binding, good));
  paths.push_back(std::make_unique<FullScanPath>(binding, bad));
  paths.push_back(std::make_unique<FullScanPath>(binding, good));

  // Independent queries fanned out over a fork/join pool, each result
  // and its stats landing at the query's own index.
  std::vector<Result<StorageQueryResult>> results;
  for (size_t i = 0; i < paths.size(); ++i) {
    results.emplace_back(Status::Internal("query not executed"));
  }
  std::vector<QueryStats> stats(paths.size());
  TaskPool workers(3);
  ParallelFor(&workers, paths.size(), 1, [&](uint64_t i) {
    results[i] = ExecuteAccessPath(paths[i].get(), &stats[i]);
  });

  // Siblings of the failing entry keep their full results.
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[2].ok());
  std::vector<int64_t> got = results[0]->objids;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForce(points_, good));
  EXPECT_EQ(results[0]->objids, results[2]->objids);
  EXPECT_EQ(stats[0].rows_scanned, points_.size());

  // The failing entry reports its own status.
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mds
