// The traced run's layer replay: each workload's request stream executed
// in process through the public function of every layer the server runs,
// with spans recorded here, around those calls. No span lives in src/.
#ifndef MDS_PERFBENCH_TRACE_H_
#define MDS_PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "server/dataset.h"
#include "workload.h"

namespace perfbench {

enum Layer : uint8_t {
  kLayerRequest = 0,  ///< root span; its self time is replay glue
  kLayerEncode,       ///< server/protocol Encode*
  kLayerDecode,       ///< server/protocol Decode*
  kLayerCacheLookup,  ///< server/response_cache Lookup
  kLayerCacheInsert,  ///< server/response_cache Insert
  kLayerPlanner,      ///< core/query_planner ChooseBest (path estimates)
  kLayerScan,         ///< core/access_path + storage/range_scanner
  kLayerKnn,          ///< core/knn BoundaryGrow + core/simd_dist
  kNumLayers
};
const char* LayerName(Layer layer);

struct Span {
  uint64_t request_id = 0;
  uint32_t parent = 0;  ///< index into the span list; self for a root
  Layer layer = kLayerRequest;
  int64_t start_ns = 0, end_ns = 0;
};

/// Per-layer totals of one replay. Counters come from QueryStats,
/// KnnStats and BufferPool deltas taken at the same boundaries as the
/// spans; the *_ns sums are span durations.
struct ReplayResult {
  std::vector<Span> spans;  ///< recorded requests only, kept to the end
  uint64_t requests = 0;    ///< recorded requests (root spans)
  std::array<double, kNumLayers> self_ns{};  ///< summed self time
  double root_ns = 0;                        ///< summed root durations

  uint64_t lookups = 0, hits = 0;  ///< recorded cache probes

  // Execution layers, over every execution (recorded or not).
  uint64_t box_executions = 0;  ///< planner + scan runs (misses, per leg)
  uint64_t kd_chosen = 0;
  double choose_ns = 0, exec_ns = 0, regret_sum = 0;
  uint64_t rows_scanned = 0, rows_emitted = 0, pages_fetched = 0;
  uint64_t ranges_partial = 0;
  uint64_t pool_logical = 0, pool_physical = 0, pool_checksums = 0;

  uint64_t knn_executions = 0;
  double knn_ns = 0;
  uint64_t leaves_examined = 0, points_examined = 0, top_k_pruned = 0;
  uint64_t distance_evals = 0;
};

/// Replays plan.warmup unrecorded when `replay_warmup` (so a hot
/// workload's caches are in the state the wire run measured; its misses
/// still count in the execution figures), then `max_requests` requests of
/// the clients' streams, round-robin, recorded. Every request executes on
/// each of `legs` (one dataset, or one per shard); each leg has its own
/// response cache of the server's size. Box requests also execute the
/// path the planner did not choose, outside every span, for the regret.
ReplayResult Replay(const Plan& plan,
                    const std::vector<const mds::ServedDataset*>& legs,
                    bool replay_warmup, size_t max_requests);

/// Coordinator legs timed on the wire, one request at a time: each of the
/// first `max_requests` stream requests through the coordinator, then the
/// same request directly against every shard.
struct LegTiming {
  uint64_t requests = 0;
  double leg_us = 0;    ///< mean direct backend round trip, per leg
  double merge_us = 0;  ///< mean (coordinator - slowest leg)
};
LegTiming TimeCoordinatorLegs(const Plan& plan, uint16_t coordinator_port,
                              const std::vector<uint16_t>& shard_ports,
                              size_t max_requests);

}  // namespace perfbench

#endif  // MDS_PERFBENCH_TRACE_H_
