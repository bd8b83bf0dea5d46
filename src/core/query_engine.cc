#include "core/query_engine.h"

#include <atomic>

#include "common/parallel.h"

namespace mds {

std::vector<Result<StorageQueryResult>> QueryEngine::ExecuteBatch(
    const std::vector<AccessPath*>& paths, const BatchOptions& options,
    std::vector<QueryStats>* stats) {
  std::vector<Result<StorageQueryResult>> results;
  results.reserve(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    results.emplace_back(Status::Internal("query not executed"));
  }
  if (stats != nullptr) {
    stats->assign(paths.size(), QueryStats{});
  }
  if (paths.empty()) return results;

  unsigned threads = options.num_threads != 0 ? options.num_threads
                                              : QueryThreads();
  if (threads > paths.size()) threads = static_cast<unsigned>(paths.size());

  // Fork/join over a fixed pool: workers pull the next un-run query from
  // a shared counter, so long and short queries load-balance dynamically
  // while every result still lands at its input index.
  TaskPool pool(threads);
  std::atomic<size_t> next{0};
  pool.Run([&](unsigned) {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= paths.size()) return;
      QueryStats* st = stats != nullptr ? &(*stats)[i] : nullptr;
      Result<StorageQueryResult> r = paths[i] != nullptr
                                         ? ExecuteAccessPath(paths[i], st)
                                         : Result<StorageQueryResult>(
                                               Status::InvalidArgument(
                                                   "null access path"));
      if (!r.ok()) {
        // A failing sub-query fails only its own slot — siblings keep
        // their results — and names its batch index so a caller fanning
        // out hundreds of queries can attribute the failure.
        results[i] = AnnotateStatus(
            r.status(), "ExecuteBatch[" + std::to_string(i) + "]");
      } else {
        results[i] = std::move(r);
      }
    }
  });
  return results;
}

std::vector<Result<StorageQueryResult>> QueryEngine::ExecuteBatch(
    std::vector<std::unique_ptr<AccessPath>> paths,
    const BatchOptions& options, std::vector<QueryStats>* stats) {
  std::vector<AccessPath*> raw;
  raw.reserve(paths.size());
  for (const auto& path : paths) raw.push_back(path.get());
  return ExecuteBatch(raw, options, stats);
}

}  // namespace mds
