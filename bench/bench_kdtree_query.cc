// E4/E16 (Figure 5, §3.2): kd-tree polyhedron queries vs the "simple SQL
// query" full scan across selectivities. Expected shape: orders-of-
// magnitude speedup at low selectivity, crossover where the kd-tree stops
// paying off around returned/total ~ 0.25.

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/bench_util.h"
#include "core/access_path.h"
#include "core/simd_dist.h"
#include "core/kdtree.h"
#include "core/point_table.h"
#include "core/query_planner.h"
#include "sdss/catalog.h"
#include "storage/pager.h"
#include "storage/range_scanner.h"

namespace mds {
namespace {

/// Best-of-5 wall time of `fn`, in milliseconds.
template <typename Fn>
double BestOf5Ms(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.Millis());
  }
  return best;
}

/// E25: the partial-row filter in isolation, per SIMD tier. "kd partial"
/// scans only the partial (straddling-leaf) ranges of one kd plan and
/// reports ns per tested row; "full scan" runs the whole-table scan (every
/// row partial) and reports ms per 1M rows. Results must be identical on
/// every tier.
void ScanKernelSplit(const bench::BenchOptions& options,
                     const PointTableBinding& binding,
                     const KdTreeIndex& tree,
                     const std::vector<double>& center, size_t n) {
  const Polyhedron poly = Polyhedron::BallApproximation(center, 0.4, 24);
  KdTreePath kd_path(binding, tree, poly);
  QueryStats plan_stats;
  PlanStep step;
  MDS_CHECK(kd_path.NextStep(&plan_stats, &step));
  PlanStep partial;
  for (const RowRange& range : step.ranges) {
    if (range.kind == RangeKind::kPartial) partial.ranges.push_back(range);
  }
  const PolyhedronPredicate predicate(&poly);
  const RangeScanner::Layout layout{binding.objid_col,
                                    binding.first_coord_col, binding.dim};

  std::printf("\nE25: partial-row filter split (radius 0.4, 24 facets)\n");
  std::printf("%-8s %-18s %-22s %-12s\n", "tier", "kd_partial_ns_row",
              "full_scan_ms_per_1M", "kd_tested");
  const SimdTier active = ActiveSimdTier();
  std::vector<int64_t> reference_kd, reference_scan;
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2}) {
    if (tier > active) break;
    SetSimdTierForTest(tier);
    std::vector<int64_t> kd_ids;
    QueryStats kd_stats;
    const double kd_ms = BestOf5Ms([&] {
      RangeScanner scanner(binding.table, layout);
      kd_ids.clear();
      kd_stats = QueryStats{};
      MDS_CHECK(scanner.ScanStep(partial, predicate, 0, &kd_stats, &kd_ids)
                    .ok());
    });
    std::vector<int64_t> scan_ids;
    const double scan_ms = BestOf5Ms([&] {
      FullScanPath scan_path(binding, poly);
      auto scan = ExecuteAccessPath(&scan_path);
      MDS_CHECK(scan.ok());
      scan_ids = std::move(scan->objids);
    });
    if (tier == SimdTier::kScalar) {
      reference_kd = kd_ids;
      reference_scan = scan_ids;
    }
    MDS_CHECK(kd_ids == reference_kd && scan_ids == reference_scan);
    const double ns_row =
        kd_ms * 1e6 / static_cast<double>(std::max<uint64_t>(
                          1, kd_stats.rows_tested));
    const double scan_per_1m = scan_ms * 1e6 / static_cast<double>(n);
    std::printf("%-8s %-18.2f %-22.2f %-12llu\n", SimdTierName(tier), ns_row,
                scan_per_1m, (unsigned long long)kd_stats.rows_tested);
    char row_name[64];
    std::snprintf(row_name, sizeof(row_name), "scan_split_kd_partial_%s",
                  SimdTierName(tier));
    bench::EmitJson(options, row_name, kd_stats.rows_tested, kd_ms, 0);
    std::snprintf(row_name, sizeof(row_name), "scan_split_full_scan_%s",
                  SimdTierName(tier));
    bench::EmitJson(options, row_name, n, scan_ms, 0);
  }
  SetSimdTierForTest(active);
}

void Run(const bench::BenchOptions& options) {
  bench::PrintHeader(
      "E4+E16 / Figure 5: kd-tree polyhedron query vs full scan",
      "kd-tree wins by orders of magnitude at low selectivity; crossover "
      "near returned/total = 0.25");

  CatalogConfig config;
  config.num_objects = options.n != 0 ? options.n
                       : options.quick ? 200000
                                       : 2000000;
  Catalog cat = GenerateCatalog(config);
  const PointSet& points = cat.colors;

  WallTimer build_timer;
  auto tree = KdTreeIndex::Build(&points);
  MDS_CHECK(tree.ok());
  std::printf("N=%zu  levels=%u  leaves=%u  build=%.2fs\n", points.size(),
              tree->num_levels(), tree->num_leaves(), build_timer.Seconds());

  MemPager pager;
  BufferPool pool(&pager, 1u << 18);
  auto table = MaterializePointTable(&pool, points, tree->clustered_order());
  MDS_CHECK(table.ok());
  PointTableBinding binding = BindPointTable(&*table, kNumBands);

  // Nested ball-approximation polyhedra centered on the stellar locus;
  // radius sweeps selectivity from ~1e-5 to ~1.
  std::vector<double> center(kNumBands);
  {
    double mags[kNumBands];
    StellarLocus(0.5, 0.0, mags);
    for (size_t j = 0; j < kNumBands; ++j) center[j] = mags[j];
  }
  std::printf("%-10s %-9s %-10s %-10s %-9s %-10s %-10s %-10s\n", "radius",
              "selectiv", "scan_ms", "kd_ms", "speedup", "kd_rows",
              "kd_pages", "planner");
  double crossover_radius = -1.0;
  for (double radius :
       {0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6}) {
    Polyhedron poly = Polyhedron::BallApproximation(center, radius, 24);
    WallTimer scan_timer;
    FullScanPath scan_path(binding, poly);
    auto scan = ExecuteAccessPath(&scan_path);
    MDS_CHECK(scan.ok());
    double scan_ms = scan_timer.Millis();

    WallTimer kd_timer;
    KdTreePath kd_path(binding, *tree, poly);
    auto kd = ExecuteAccessPath(&kd_path);
    MDS_CHECK(kd.ok());
    double kd_ms = kd_timer.Millis();
    MDS_CHECK(kd->objids.size() == scan->objids.size());

    // What the cost-based planner would have picked for this query.
    QueryPlanner planner;
    planner.AddPath(std::make_unique<FullScanPath>(binding, poly))
        .AddPath(std::make_unique<KdTreePath>(binding, *tree, poly));
    auto best = planner.ChooseBest();
    MDS_CHECK(best.ok());
    const char* chosen = planner.path(*best).name();

    double selectivity =
        static_cast<double>(kd->objids.size()) / points.size();
    double speedup = scan_ms / kd_ms;
    if (speedup < 1.0 && crossover_radius < 0.0) crossover_radius = radius;
    std::printf("%-10.2f %-9.2g %-10.2f %-10.2f %-9.2f %-10zu %-10llu %-10s\n",
                radius, selectivity, scan_ms, kd_ms, speedup,
                kd->objids.size(), (unsigned long long)kd->pages_fetched,
                chosen);
    char row_name[64];
    std::snprintf(row_name, sizeof(row_name), "kdtree_query_r%.2f", radius);
    bench::EmitJson(options, row_name, points.size(), kd_ms, kd->pages_read);
  }
  if (crossover_radius > 0.0) {
    std::printf("crossover (kd-tree slower than scan) first at radius %.2f\n",
                crossover_radius);
  } else {
    std::printf("no crossover observed in the sweep (kd-tree always won)\n");
  }
  std::printf(
      "E16: the paper reports kd-tree outperforms simple SQL whenever "
      "returned/total < 0.25.\n");

  ScanKernelSplit(options, binding, *tree, center, points.size());
}

}  // namespace
}  // namespace mds

int main(int argc, char** argv) {
  mds::Run(mds::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
