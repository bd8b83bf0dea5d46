#ifndef MDS_CORE_QUERY_ENGINE_H_
#define MDS_CORE_QUERY_ENGINE_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/access_path.h"

namespace mds {

/// Concurrent query entry point: executes many independent queries at
/// once over one shared (thread-safe) BufferPool — the serving shape the
/// survey-scale studies (Berriman et al.) measure, where throughput under
/// concurrent load, not single-query latency, is the limiting metric.
///
/// Thread safety: ExecuteBatch is self-contained fork/join — it owns its
/// worker pool for the duration of the call and is itself thread-safe as
/// long as each call's paths are not shared with another call. Every
/// query gets a private RangeScanner (thread-compatible) over the shared
/// pool; results and per-query stats land at the query's input index, so
/// output order is deterministic regardless of scheduling.
class QueryEngine {
 public:
  struct BatchOptions {
    BatchOptions() : num_threads(0) {}

    /// Concurrent workers; 0 picks QueryThreads() (MDS_QUERY_THREADS,
    /// default hardware_concurrency).
    unsigned num_threads;
  };

  /// Runs every path to completion, `num_threads` at a time, over the
  /// shared buffer pool. paths[i]'s result lands in slot i of the
  /// returned vector (and its instrumentation in (*stats)[i], resized to
  /// match, if stats is non-null). A failing sub-query fails only its own
  /// slot — sibling results are preserved — and its Status is annotated
  /// with the batch index ("ExecuteBatch[i]"). Each path must bind a table whose
  /// BufferPool and Pager are thread-safe (the library's are) — paths may
  /// bind the same table or different tables of one pool. Per-query page
  /// accounting stays exact under the interleaving because each scanner
  /// counts its own fetches.
  static std::vector<Result<StorageQueryResult>> ExecuteBatch(
      const std::vector<AccessPath*>& paths,
      const BatchOptions& options = BatchOptions(),
      std::vector<QueryStats>* stats = nullptr);

  /// Convenience overload taking ownership of the paths.
  static std::vector<Result<StorageQueryResult>> ExecuteBatch(
      std::vector<std::unique_ptr<AccessPath>> paths,
      const BatchOptions& options = BatchOptions(),
      std::vector<QueryStats>* stats = nullptr);
};

}  // namespace mds

#endif  // MDS_CORE_QUERY_ENGINE_H_
