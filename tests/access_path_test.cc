#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "core/access_path.h"
#include "core/point_table.h"
#include "core/query_planner.h"
#include "sdss/catalog.h"
#include "storage/pager.h"
#include "storage/range_scanner.h"

namespace mds {
namespace {

/// Shared 10^5-point seeded catalog plus the four differently-clustered
/// tables, built once for the whole suite.
class AccessPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogConfig config;
    config.num_objects = 100000;
    config.seed = 2007;
    catalog_ = new Catalog(GenerateCatalog(config));
    const PointSet& points = catalog_->colors;

    pager_ = new MemPager();
    pool_ = new BufferPool(pager_, 1u << 16);

    kd_index_ = new KdTreeIndex(KdTreeIndex::Build(&points).MoveValue());
    grid_index_ =
        new LayeredGridIndex(LayeredGridIndex::Build(&points).MoveValue());
    VoronoiIndexConfig vc;
    vc.num_seeds = 256;
    voronoi_index_ =
        new VoronoiIndex(VoronoiIndex::Build(&points, vc).MoveValue());

    heap_table_ = new Table(
        MaterializePointTable(pool_, points, {}).MoveValue());
    kd_table_ = new Table(
        MaterializePointTable(pool_, points, kd_index_->clustered_order())
            .MoveValue());
    grid_table_ = new Table(
        MaterializePointTable(pool_, points, grid_index_->clustered_order())
            .MoveValue());
    voronoi_table_ = new Table(
        MaterializePointTable(pool_, points,
                              voronoi_index_->clustered_order())
            .MoveValue());
  }

  static void TearDownTestSuite() {
    delete voronoi_table_;
    delete grid_table_;
    delete kd_table_;
    delete heap_table_;
    delete voronoi_index_;
    delete grid_index_;
    delete kd_index_;
    delete pool_;
    delete pager_;
    delete catalog_;
  }

  static std::vector<int64_t> SortedIds(const StorageQueryResult& result) {
    std::vector<int64_t> ids = result.objids;
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  static std::vector<int64_t> BruteForce(const Polyhedron& poly) {
    std::vector<int64_t> out;
    const PointSet& points = catalog_->colors;
    for (uint64_t i = 0; i < points.size(); ++i) {
      if (poly.Contains(points.point(i))) {
        out.push_back(static_cast<int64_t>(i));
      }
    }
    return out;
  }

  /// A color-space box around the stellar locus holding a few thousand
  /// points — selective but well populated.
  static Box LocusBox(double half_width) {
    double mags[kNumBands];
    StellarLocus(0.5, 0.0, mags);
    std::vector<double> lo(kNumBands), hi(kNumBands);
    for (size_t j = 0; j < kNumBands; ++j) {
      lo[j] = mags[j] - half_width;
      hi[j] = mags[j] + half_width;
    }
    return Box(lo, hi);
  }

  static Catalog* catalog_;
  static MemPager* pager_;
  static BufferPool* pool_;
  static KdTreeIndex* kd_index_;
  static LayeredGridIndex* grid_index_;
  static VoronoiIndex* voronoi_index_;
  static Table* heap_table_;
  static Table* kd_table_;
  static Table* grid_table_;
  static Table* voronoi_table_;
};

Catalog* AccessPathTest::catalog_ = nullptr;
MemPager* AccessPathTest::pager_ = nullptr;
BufferPool* AccessPathTest::pool_ = nullptr;
KdTreeIndex* AccessPathTest::kd_index_ = nullptr;
LayeredGridIndex* AccessPathTest::grid_index_ = nullptr;
VoronoiIndex* AccessPathTest::voronoi_index_ = nullptr;
Table* AccessPathTest::heap_table_ = nullptr;
Table* AccessPathTest::kd_table_ = nullptr;
Table* AccessPathTest::grid_table_ = nullptr;
Table* AccessPathTest::voronoi_table_ = nullptr;

TEST_F(AccessPathTest, AllPathsReturnIdenticalObjidSet) {
  // One region expressed both ways: a box for the grid path, the
  // equivalent polyhedron for the other three.
  const Box box = LocusBox(0.8);
  const Polyhedron poly = Polyhedron::FromBox(box);
  const std::vector<int64_t> truth = BruteForce(poly);
  ASSERT_GT(truth.size(), 1000u);
  ASSERT_LT(truth.size(), catalog_->size() / 2);

  FullScanPath scan(BindPointTable(heap_table_, kNumBands), poly);
  KdTreePath kd(BindPointTable(kd_table_, kNumBands), *kd_index_, poly);
  // n beyond the population: the sample query degenerates to "all points
  // of the box", making it set-comparable with the exact paths.
  GridSamplePath grid(BindPointTable(grid_table_, kNumBands), *grid_index_,
                      box, catalog_->size());
  VoronoiPath voronoi(BindPointTable(voronoi_table_, kNumBands),
                      *voronoi_index_, poly);

  AccessPath* paths[] = {&scan, &kd, &grid, &voronoi};
  for (AccessPath* path : paths) {
    QueryStats stats;
    auto result = ExecuteAccessPath(path, &stats);
    ASSERT_TRUE(result.ok()) << path->name();
    EXPECT_EQ(SortedIds(*result), truth) << path->name();
    // Unified instrumentation invariants: every emitted row was scanned,
    // untested rows can only come from `full` ranges, and the result size
    // matches the emitted counter.
    EXPECT_EQ(stats.rows_emitted, result->objids.size()) << path->name();
    EXPECT_LE(stats.rows_tested, stats.rows_scanned) << path->name();
    EXPECT_GE(stats.rows_emitted, stats.rows_scanned - stats.rows_tested)
        << path->name();
  }
}

TEST_F(AccessPathTest, FullRangesNeverRequirePerRowTests) {
  const Box box = LocusBox(1.2);
  const Polyhedron poly = Polyhedron::FromBox(box);
  // The grid's coarse cells span a quarter of the data range per axis, so
  // give its box most of the space — narrower boxes legitimately contain
  // no whole cell in 5-D.
  const Box grid_bounds = grid_index_->bounding_box();
  std::vector<double> glo(kNumBands), ghi(kNumBands);
  for (size_t j = 0; j < kNumBands; ++j) {
    const double center = 0.5 * (grid_bounds.lo(j) + grid_bounds.hi(j));
    const double half = 0.40 * (grid_bounds.hi(j) - grid_bounds.lo(j));
    glo[j] = center - half;
    ghi[j] = center + half;
  }
  const Box grid_box(glo, ghi);

  // Drive fresh plans step by step and check the ground truth directly:
  // every row inside a `full`-tagged range must satisfy the predicate, so
  // emitting it without a test is sound.
  KdTreePath kd(BindPointTable(kd_table_, kNumBands), *kd_index_, poly);
  GridSamplePath grid(BindPointTable(grid_table_, kNumBands), *grid_index_,
                      grid_box, catalog_->size());
  VoronoiPath voronoi(BindPointTable(voronoi_table_, kNumBands),
                      *voronoi_index_, poly);

  struct Case {
    AccessPath* path;
    const Table* table;
  };
  Case cases[] = {{&kd, kd_table_}, {&grid, grid_table_},
                  {&voronoi, voronoi_table_}};
  for (auto& [path, table] : cases) {
    QueryStats stats;
    PlanStep step;
    uint64_t full_ranges = 0;
    while (path->NextStep(&stats, &step)) {
      for (const RowRange& range : step.ranges) {
        if (range.kind != RangeKind::kFull) continue;
        ++full_ranges;
        float coords[kNumBands];
        auto status = table->ScanRange(
            range.begin, range.end, [&](uint64_t, RowRef ref) {
              ref.GetFloat32Span(1, kNumBands, coords);
              EXPECT_TRUE(path->predicate().Matches(coords)) << path->name();
            });
        ASSERT_TRUE(status.ok());
      }
      // Keep the adaptive paths walking: pretend nothing was found so the
      // grid visits every layer.
    }
    EXPECT_GT(full_ranges, 0u) << path->name()
                               << ": expected some full ranges on a wide box";
  }
}

TEST_F(AccessPathTest, StatsSeparateTestedFromUntestedRows) {
  const Box box = LocusBox(1.2);
  const Polyhedron poly = Polyhedron::FromBox(box);
  KdTreePath kd(BindPointTable(kd_table_, kNumBands), *kd_index_, poly);
  QueryStats stats;
  auto result = ExecuteAccessPath(&kd, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(stats.ranges_full, 0u);
  // Rows from full ranges are never tested and always emitted: the
  // emitted count must equal untested rows plus tested rows that passed.
  const uint64_t untested = stats.rows_scanned - stats.rows_tested;
  EXPECT_GT(untested, 0u);
  EXPECT_GE(stats.rows_emitted, untested);
  EXPECT_EQ(stats.rows_emitted, result->objids.size());
  EXPECT_EQ(stats.cells_full, kd.plan_stats().leaves_full);
}

TEST_F(AccessPathTest, PlannerPicksKdForSelectiveAndScanForWholeSpace) {
  // Selective query: the kd plan touches a small fraction of the pages.
  const Polyhedron selective = Polyhedron::FromBox(LocusBox(0.4));
  {
    QueryPlanner planner;
    planner
        .AddPath(std::make_unique<FullScanPath>(
            BindPointTable(heap_table_, kNumBands), selective))
        .AddPath(std::make_unique<KdTreePath>(
            BindPointTable(kd_table_, kNumBands), *kd_index_, selective));
    auto best = planner.ChooseBest();
    ASSERT_TRUE(best.ok());
    EXPECT_STREQ(planner.path(*best).name(), "kd-tree");

    std::string chosen;
    QueryStats stats;
    auto result = planner.Execute(&stats, &chosen);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(chosen, "kd-tree");
    EXPECT_EQ(SortedIds(*result), BruteForce(selective));
    EXPECT_LT(stats.pages_fetched, kd_table_->num_pages() / 2);
  }

  // Whole-space query: every row qualifies, the index plan covers every
  // page anyway, and the planner must fall back to the plain scan.
  Box everything = Box::Bounding(catalog_->colors);
  everything.Inflate(1.0);
  const Polyhedron whole = Polyhedron::FromBox(everything);
  {
    QueryPlanner planner;
    planner
        .AddPath(std::make_unique<FullScanPath>(
            BindPointTable(heap_table_, kNumBands), whole))
        .AddPath(std::make_unique<KdTreePath>(
            BindPointTable(kd_table_, kNumBands), *kd_index_, whole));
    auto best = planner.ChooseBest();
    ASSERT_TRUE(best.ok());
    EXPECT_STREQ(planner.path(*best).name(), "full-scan");

    std::string chosen;
    auto result = planner.Execute(nullptr, &chosen);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(chosen, "full-scan");
    EXPECT_EQ(result->objids.size(), catalog_->size());
  }
}

TEST_F(AccessPathTest, PlannerRejectsInfeasibleOnlyPaths) {
  Polyhedron wrong_dim(2);
  QueryPlanner planner;
  planner.AddPath(std::make_unique<FullScanPath>(
      BindPointTable(heap_table_, kNumBands), wrong_dim));
  EXPECT_FALSE(planner.ChooseBest().ok());
}

// --- Page-at-a-time scanner vs the row-at-a-time definitions -------------

/// The row-at-a-time scan RangeScanner used to run, kept as the oracle for
/// its results and counters: per row it decodes, calls Matches(), emits,
/// counts and checks the limit, and it counts a page each time a range
/// enters it. `emitted_rows` (optional) receives the row of every emitted
/// objid.
void ReferenceScan(const Table& table, const std::vector<RowRange>& ranges,
                   const SpatialPredicate& predicate, uint64_t limit,
                   QueryStats* st, std::vector<int64_t>* out,
                   std::vector<uint64_t>* emitted_rows = nullptr) {
  const Schema& schema = table.schema();
  const uint32_t rows_per_page = table.rows_per_page();
  for (const RowRange& range : ranges) {
    if (limit != 0 && out->size() >= limit) return;
    if (range.kind == RangeKind::kFull) {
      ++st->ranges_full;
    } else {
      ++st->ranges_partial;
    }
    uint64_t row = range.begin;
    while (row < range.end) {
      const uint64_t page = row / rows_per_page;
      const uint64_t page_end =
          std::min<uint64_t>(range.end, (page + 1) * rows_per_page);
      bool physical = false;
      auto guard = table.pool()->Fetch(table.page_id(page), &physical);
      ASSERT_TRUE(guard.ok());
      ++st->pages_fetched;
      if (physical) ++st->pages_read;
      for (; row < page_end; ++row) {
        const uint8_t* bytes = guard->page().bytes() +
                               (row % rows_per_page) * schema.row_size();
        ++st->rows_scanned;
        if (range.kind == RangeKind::kPartial) {
          ++st->rows_tested;
          float coords[kNumBands];
          std::memcpy(coords, bytes + schema.offset(1), sizeof(coords));
          if (!predicate.Matches(coords)) continue;
        }
        int64_t objid;
        std::memcpy(&objid, bytes + schema.offset(0), sizeof(objid));
        out->push_back(objid);
        if (emitted_rows != nullptr) emitted_rows->push_back(row);
        ++st->rows_emitted;
        if (limit != 0 && out->size() >= limit) return;
      }
    }
  }
}

/// ParallelRangeScanner's documented split, over ReferenceScan: ranges
/// counted from the whole step, page-aligned partitions scanned with the
/// remaining limit each, outputs concatenated in partition order and cut
/// at the limit, every worker's rows and pages summed.
void ReferenceParallelScan(const Table& table, const PlanStep& step,
                           const SpatialPredicate& predicate, uint64_t limit,
                           unsigned threads, QueryStats* st,
                           std::vector<int64_t>* out) {
  uint64_t total_rows = 0;
  for (const RowRange& range : step.ranges) {
    total_rows += range.end - range.begin;
    if (range.kind == RangeKind::kFull) {
      ++st->ranges_full;
    } else {
      ++st->ranges_partial;
    }
  }
  const uint64_t remaining = limit == 0 ? 0 : limit - out->size();
  const uint32_t rows_per_page = table.rows_per_page();
  std::vector<std::vector<RowRange>> parts(threads);
  if (total_rows < uint64_t{2} * threads * rows_per_page) {
    parts.assign(1, step.ranges);
  } else {
    const uint64_t target = (total_rows + threads - 1) / threads;
    unsigned w = 0;
    uint64_t quota = target;
    for (const RowRange& range : step.ranges) {
      for (uint64_t begin = range.begin; begin < range.end;) {
        if (quota == 0 && w + 1 < threads) {
          ++w;
          quota = target;
        }
        uint64_t cut = range.end;
        if (range.end - begin > quota && w + 1 < threads) {
          cut = std::min<uint64_t>(range.end, (begin + quota + rows_per_page -
                                               1) / rows_per_page *
                                                  rows_per_page);
        }
        parts[w].push_back(RowRange{begin, cut, range.kind});
        quota -= std::min(quota, cut - begin);
        begin = cut;
      }
    }
  }
  for (const std::vector<RowRange>& part : parts) {
    QueryStats local;
    std::vector<int64_t> part_out;
    ReferenceScan(table, part, predicate, remaining, &local, &part_out);
    st->rows_scanned += local.rows_scanned;
    st->rows_tested += local.rows_tested;
    st->pages_fetched += local.pages_fetched;
    st->pages_read += local.pages_read;
    for (int64_t id : part_out) {
      if (limit != 0 && out->size() >= limit) break;
      out->push_back(id);
      ++st->rows_emitted;
    }
  }
}

/// A cold view of one of the suite's tables: a fresh buffer pool over the
/// shared pager, so pages_read counts each page's first touch and two
/// runs over two views see the same physical I/O.
struct ColdTable {
  explicit ColdTable(MemPager* pager, const Table& warm)
      : pool(pager, 1u << 12) {
    std::vector<PageId> ids;
    for (uint64_t p = 0; p < warm.num_pages(); ++p) {
      ids.push_back(warm.page_id(p));
    }
    table = std::make_unique<Table>(
        Table::Attach(&pool, warm.schema(), std::move(ids), warm.num_rows())
            .MoveValue());
  }
  BufferPool pool;
  std::unique_ptr<Table> table;
};

void ExpectSameStats(const QueryStats& got, const QueryStats& want,
                     const std::string& what) {
  EXPECT_EQ(got.plan_steps, want.plan_steps) << what;
  EXPECT_EQ(got.ranges_full, want.ranges_full) << what;
  EXPECT_EQ(got.ranges_partial, want.ranges_partial) << what;
  EXPECT_EQ(got.cells_full, want.cells_full) << what;
  EXPECT_EQ(got.cells_partial, want.cells_partial) << what;
  EXPECT_EQ(got.cells_pruned, want.cells_pruned) << what;
  EXPECT_EQ(got.rows_scanned, want.rows_scanned) << what;
  EXPECT_EQ(got.rows_tested, want.rows_tested) << what;
  EXPECT_EQ(got.rows_emitted, want.rows_emitted) << what;
  EXPECT_EQ(got.pages_fetched, want.pages_fetched) << what;
  EXPECT_EQ(got.pages_read, want.pages_read) << what;
  EXPECT_EQ(got.pages_skipped, want.pages_skipped) << what;
  EXPECT_EQ(got.degraded, want.degraded) << what;
}

/// The first emitted row (from the middle of the sequence on) that lies in
/// a range of `kind` and is not the last row that range scans on its page:
/// a limit equal to its position + 1 cuts the scan part-way through a
/// page.
uint64_t MidPageLimit(const Table& table, const std::vector<RowRange>& ranges,
                      const std::vector<uint64_t>& emitted_rows,
                      RangeKind kind) {
  const uint32_t rows_per_page = table.rows_per_page();
  for (size_t k = emitted_rows.size() / 2; k < emitted_rows.size(); ++k) {
    const uint64_t row = emitted_rows[k];
    for (const RowRange& range : ranges) {
      if (row < range.begin || row >= range.end || range.kind != kind) {
        continue;
      }
      if (row + 1 < range.end && (row + 1) % rows_per_page != 0) return k + 1;
    }
  }
  return 0;
}

TEST_F(AccessPathTest, PageAtATimeScanMatchesRowAtATimeDefinitions) {
  ASSERT_TRUE(pool_->FlushAll().ok());
  double mags[kNumBands];
  StellarLocus(0.5, 0.0, mags);
  const std::vector<double> center(mags, mags + kNumBands);
  const Polyhedron poly = Polyhedron::BallApproximation(center, 1.0, 24);
  const PolyhedronPredicate predicate(&poly);

  struct Case {
    const char* name;
    const Table* warm;
    bool kd;
  };
  const Case cases[] = {{"kd-tree", kd_table_, true},
                        {"full-scan", heap_table_, false}};
  for (const Case& c : cases) {
    auto make_path = [&](const Table* table) -> std::unique_ptr<AccessPath> {
      const PointTableBinding binding = BindPointTable(table, kNumBands);
      if (c.kd) return std::make_unique<KdTreePath>(binding, *kd_index_, poly);
      return std::make_unique<FullScanPath>(binding, poly);
    };

    // Unlimited, through the executors: objids in order and every counter.
    QueryStats want;
    std::vector<int64_t> want_ids;
    std::vector<uint64_t> emitted_rows;
    PlanStep step;  // both paths plan in one step
    {
      ColdTable cold(pager_, *c.warm);
      auto path = make_path(cold.table.get());
      PlanStep next;
      while (path->NextStep(&want, &next)) {
        ++want.plan_steps;
        ReferenceScan(*cold.table, next.ranges, path->predicate(), 0, &want,
                      &want_ids, &emitted_rows);
        step = next;
      }
    }
    ASSERT_EQ(want.plan_steps, 1u) << c.name;
    ASSERT_GT(want.pages_read, 0u) << c.name;  // the cold view reads
    uint64_t step_rows = 0;
    for (const RowRange& range : step.ranges) {
      step_rows += range.end - range.begin;
    }
    // Large enough that three workers really split the step.
    ASSERT_GE(step_rows, 6u * c.warm->rows_per_page()) << c.name;
    ASSERT_GT(want.rows_emitted, 0u) << c.name;
    ASSERT_GT(want.rows_tested, 0u) << c.name;
    if (c.kd) {
      ASSERT_GT(want.ranges_full, 0u);
    }
    for (unsigned threads : {1u, 3u}) {
      ColdTable cold(pager_, *c.warm);
      auto path = make_path(cold.table.get());
      QueryStats got;
      auto result = threads == 1
                        ? ExecuteAccessPath(path.get(), &got)
                        : ExecuteAccessPathParallel(path.get(), threads, &got);
      ASSERT_TRUE(result.ok());
      const std::string what = std::string(c.name) + " unlimited threads=" +
                               std::to_string(threads);
      EXPECT_EQ(result->objids, want_ids) << what;
      ExpectSameStats(got, want, what);
    }

    // Limited, one plan step straight through the scanners: a cut inside
    // a partial page, and (kd) one inside a full page.
    std::vector<uint64_t> limits = {
        MidPageLimit(*c.warm, step.ranges, emitted_rows, RangeKind::kPartial)};
    if (c.kd) {
      limits.push_back(
          MidPageLimit(*c.warm, step.ranges, emitted_rows, RangeKind::kFull));
    }
    for (uint64_t limit : limits) {
      ASSERT_GT(limit, 0u) << c.name << ": no mid-page cut found";
      for (unsigned threads : {1u, 3u}) {
        const std::string what = std::string(c.name) +
                                 " limit=" + std::to_string(limit) +
                                 " threads=" + std::to_string(threads);
        QueryStats ref_stats;
        std::vector<int64_t> ref_ids;
        {
          ColdTable cold(pager_, *c.warm);
          if (threads == 1) {
            ReferenceScan(*cold.table, step.ranges, predicate, limit,
                          &ref_stats, &ref_ids);
          } else {
            ReferenceParallelScan(*cold.table, step, predicate, limit,
                                  threads, &ref_stats, &ref_ids);
          }
        }
        ColdTable cold(pager_, *c.warm);
        const RangeScanner::Layout layout{0, 1, kNumBands};
        QueryStats got;
        std::vector<int64_t> ids;
        if (threads == 1) {
          RangeScanner scanner(cold.table.get(), layout);
          ASSERT_TRUE(scanner
                          .ScanStep(step, predicate, limit, &got,
                                    &ids)
                          .ok());
          scanner.AccumulateIo(&got);
        } else {
          ParallelRangeScanner scanner(cold.table.get(), layout, threads);
          ASSERT_TRUE(scanner
                          .ScanStep(step, predicate, limit, &got,
                                    &ids)
                          .ok());
          scanner.AccumulateIo(&got);
        }
        ASSERT_EQ(ids.size(), limit) << what;
        EXPECT_EQ(ids, ref_ids) << what;
        EXPECT_EQ(ids, std::vector<int64_t>(want_ids.begin(),
                                            want_ids.begin() + limit))
            << what;
        ExpectSameStats(got, ref_stats, what);
        if (threads == 1) {
          // The serial cut stops at the row that filled the limit.
          EXPECT_LT(got.rows_scanned, want.rows_scanned) << what;
        }
      }
    }
  }
}

TEST_F(AccessPathTest, TableSamplePathHonorsTopNLimit) {
  Rng rng(13);
  const Box everything = Box::Bounding(catalog_->colors);
  TableSamplePath path(BindPointTable(heap_table_, kNumBands), everything,
                       50.0, 100, &rng);
  QueryStats stats;
  auto result = ExecuteAccessPath(&path, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objids.size(), 100u);
  EXPECT_EQ(stats.rows_emitted, 100u);
  EXPECT_LT(stats.rows_scanned, catalog_->size());
}

}  // namespace
}  // namespace mds
