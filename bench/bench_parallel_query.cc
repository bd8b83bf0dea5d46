// Thread-scaling of the parallel query machinery (DESIGN.md "Concurrency
// model"): intra-query ParallelRangeScanner speedup, inter-query
// ParallelFor batch throughput and the parallel kd-tree build, at 1/2/4/8
// workers over one shared lock-striped BufferPool. Correctness is asserted
// inline: every parallel execution must return the serial objid sequence,
// and (limit == 0) the identical pages_fetched count.

#include <cmath>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "core/access_path.h"
#include "core/kdtree.h"
#include "core/point_table.h"
#include "sdss/catalog.h"
#include "storage/pager.h"

namespace mds {
namespace {

std::vector<Polyhedron> MakeQueryBatch(size_t count) {
  std::vector<Polyhedron> queries;
  queries.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    double mags[kNumBands];
    StellarLocus(0.1 + 0.8 * static_cast<double>(q) / count, 0.0, mags);
    std::vector<double> center(mags, mags + kNumBands);
    const double radius = 0.2 * (1 << (q % 5));
    queries.push_back(Polyhedron::BallApproximation(center, radius, 24));
  }
  return queries;
}

void Run(const bench::BenchOptions& options) {
  bench::PrintHeader(
      "parallel query scaling over the shared buffer pool",
      "parallel execution is an invisible optimization: identical results "
      "and page accounting, lower wall clock as workers are added");

  const unsigned hw = QueryThreads();
  std::printf("hardware threads (QueryThreads) = %u%s\n", hw,
              hw == 1 ? "  [single-core host: expect flat scaling]" : "");

  CatalogConfig config;
  config.num_objects = options.n != 0 ? options.n
                       : options.quick ? 200000
                                       : 2000000;
  Catalog cat = GenerateCatalog(config);
  const PointSet& points = cat.colors;

  // Parallel kd-tree build scaling (the tree is bit-identical per thread
  // count; the serial build is the baseline and the reference tree).
  std::printf("\n-- kd-tree build, N=%zu --\n", points.size());
  std::printf("%-8s %-10s %-9s\n", "threads", "build_ms", "speedup");
  KdTreeConfig serial_tree_config;
  serial_tree_config.build_threads = 1;
  WallTimer serial_build_timer;
  auto tree = KdTreeIndex::Build(&points, serial_tree_config);
  MDS_CHECK(tree.ok());
  const double serial_build_ms = serial_build_timer.Millis();
  std::printf("%-8u %-10.1f %-9.2f\n", 1u, serial_build_ms, 1.0);
  bench::EmitJson(options, "kd_build_t1", points.size(), serial_build_ms, 0);
  for (unsigned threads : {2u, 4u, 8u}) {
    KdTreeConfig tree_config;
    tree_config.build_threads = threads;
    WallTimer timer;
    auto parallel_tree = KdTreeIndex::Build(&points, tree_config);
    MDS_CHECK(parallel_tree.ok());
    const double ms = timer.Millis();
    MDS_CHECK(parallel_tree->clustered_order() == tree->clustered_order());
    std::printf("%-8u %-10.1f %-9.2f\n", threads, ms, serial_build_ms / ms);
    char name[32];
    std::snprintf(name, sizeof(name), "kd_build_t%u", threads);
    bench::EmitJson(options, name, points.size(), ms, 0);
  }

  MemPager pager;
  BufferPool pool(&pager, 1u << 18);
  auto table = MaterializePointTable(&pool, points, tree->clustered_order());
  MDS_CHECK(table.ok());
  PointTableBinding binding = BindPointTable(&*table, kNumBands);

  // Intra-query scaling: one wide polyhedron query (~10% selectivity) so
  // the scan half dominates; the serial RangeScanner is the baseline.
  std::vector<double> center(kNumBands);
  {
    double mags[kNumBands];
    StellarLocus(0.5, 0.0, mags);
    for (size_t j = 0; j < kNumBands; ++j) center[j] = mags[j];
  }
  const Polyhedron wide = Polyhedron::BallApproximation(center, 3.2, 24);

  KdTreePath warm(binding, *tree, wide);
  QueryStats serial_stats;
  WallTimer serial_timer;
  auto serial = ExecuteAccessPath(&warm, &serial_stats);
  MDS_CHECK(serial.ok());
  const double serial_ms = serial_timer.Millis();

  std::printf("\n-- intra-query: ParallelRangeScanner, %zu rows emitted --\n",
              serial->objids.size());
  std::printf("%-8s %-10s %-9s %-12s %-10s\n", "threads", "query_ms",
              "speedup", "pages_fetch", "pages_ok");
  std::printf("%-8s %-10.2f %-9.2f %-12llu %-10s\n", "serial", serial_ms, 1.0,
              (unsigned long long)serial_stats.pages_fetched, "baseline");
  bench::EmitJson(options, "intra_query_serial", points.size(), serial_ms,
                  serial_stats.pages_fetched);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    KdTreePath path(binding, *tree, wide);
    QueryStats stats;
    WallTimer timer;
    auto result = ExecuteAccessPathParallel(&path, threads, &stats);
    MDS_CHECK(result.ok());
    const double ms = timer.Millis();
    MDS_CHECK(result->objids == serial->objids);
    // Acceptance bound: pages fetched within 1% of serial (exact equality
    // is the design contract at limit == 0; 1% is the allowed slack).
    const double page_drift =
        serial_stats.pages_fetched == 0
            ? 0.0
            : std::abs(static_cast<double>(stats.pages_fetched) -
                       static_cast<double>(serial_stats.pages_fetched)) /
                  static_cast<double>(serial_stats.pages_fetched);
    MDS_CHECK(page_drift <= 0.01);
    std::printf("%-8u %-10.2f %-9.2f %-12llu %-10s\n", threads, ms,
                serial_ms / ms, (unsigned long long)stats.pages_fetched,
                stats.pages_fetched == serial_stats.pages_fetched
                    ? "exact"
                    : "within-1%");
    char name[32];
    std::snprintf(name, sizeof(name), "intra_query_t%u", threads);
    bench::EmitJson(options, name, points.size(), ms, stats.pages_fetched);
  }

  // Inter-query scaling: a batch of mixed-selectivity queries; the serial
  // loop is the baseline, ParallelFor fans the queries out over a
  // fork/join pool, one query per iteration.
  const size_t batch_size = options.quick ? 16 : 32;
  const auto queries = MakeQueryBatch(batch_size);

  std::vector<std::vector<int64_t>> expected;
  bench::LatencyRecorder per_query;
  WallTimer loop_timer;
  for (const Polyhedron& poly : queries) {
    KdTreePath path(binding, *tree, poly);
    WallTimer query_timer;
    auto result = ExecuteAccessPath(&path);
    per_query.RecordMillis(query_timer.Millis());
    MDS_CHECK(result.ok());
    expected.push_back(std::move(result->objids));
  }
  const double loop_ms = loop_timer.Millis();

  std::printf("\n-- inter-query: ParallelFor, %zu queries --\n", batch_size);
  bench::PrintLatency("per-query (serial)", per_query.Take());
  bench::EmitJsonLatency(options, "batch_query_latency", per_query.Take(),
                         1000.0 * static_cast<double>(batch_size) / loop_ms);
  std::printf("%-8s %-10s %-9s\n", "threads", "batch_ms", "speedup");
  std::printf("%-8s %-10.1f %-9.2f\n", "serial", loop_ms, 1.0);
  bench::EmitJson(options, "batch_serial", batch_size, loop_ms, 0);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::unique_ptr<AccessPath>> paths;
    for (const Polyhedron& poly : queries) {
      paths.push_back(std::make_unique<KdTreePath>(binding, *tree, poly));
    }
    std::vector<Result<StorageQueryResult>> results;
    for (size_t q = 0; q < paths.size(); ++q) {
      results.emplace_back(Status::Internal("query not executed"));
    }
    WallTimer timer;
    TaskPool workers(threads);
    ParallelFor(&workers, paths.size(), 1, [&](uint64_t q) {
      results[q] = ExecuteAccessPath(paths[q].get());
    });
    const double ms = timer.Millis();
    MDS_CHECK(results.size() == queries.size());
    for (size_t q = 0; q < results.size(); ++q) {
      MDS_CHECK(results[q].ok());
      MDS_CHECK(results[q]->objids == expected[q]);
    }
    std::printf("%-8u %-10.1f %-9.2f\n", threads, ms, loop_ms / ms);
    char name[32];
    std::snprintf(name, sizeof(name), "batch_t%u", threads);
    bench::EmitJson(options, name, batch_size, ms, 0);
  }
}

}  // namespace
}  // namespace mds

int main(int argc, char** argv) {
  mds::Run(mds::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
