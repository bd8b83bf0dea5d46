#ifndef MDS_CORE_QUERY_PLANNER_H_
#define MDS_CORE_QUERY_PLANNER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/access_path.h"

namespace mds {

/// Cost-based choice among the access paths registered for one query.
///
/// The planner is per-query, like the paths themselves: register every way
/// the query could run (each path may be bound to a differently-clustered
/// copy of the point table), then Execute() estimates all of them from
/// index metadata and runs the cheapest. This is the optimizer the paper
/// leaves to SQL Server — with the crossover behaviour of Figure 5/E16
/// (index plans win at low selectivity, the full scan wins when the query
/// would touch most pages anyway) falling out of the page estimates.
class QueryPlanner {
 public:
  /// Estimate of one registered candidate, for EXPLAIN-style reporting.
  struct Candidate {
    std::string name;
    CostEstimate cost;
  };

  /// Registers a path. Returns *this so registrations chain.
  QueryPlanner& AddPath(std::unique_ptr<AccessPath> path);

  size_t num_paths() const { return paths_.size(); }
  const AccessPath& path(size_t i) const { return *paths_[i]; }

  /// Estimates every feasible path; returns the index of the cheapest.
  /// Fails if no feasible path is registered.
  Result<size_t> ChooseBest() const;

  /// Estimates all registered paths (EXPLAIN output, aligned with path
  /// indices).
  std::vector<Candidate> ExplainAll() const;

  /// Degradation policy for Execute (see DESIGN.md "Failure model").
  struct ExecuteOptions {
    /// When the chosen path fails with kCorruption (a checksum failure in
    /// its index or data pages), try the remaining feasible paths in cost
    /// order — typically ending at the clustered full scan, which depends
    /// on no index pages. A result produced after a fallback is marked
    /// degraded even when complete: corruption was detected on the way.
    bool fallback_on_corruption = true;
    /// Scan-level policy, forwarded to the executing RangeScanner.
    RangeScanner::ScanOptions scan;
    /// Planner hint: when non-empty, only paths with this name() are
    /// considered (the protocol's force-full-scan / force-index flags).
    /// Fails with InvalidArgument if no registered path matches.
    std::string required_path;
  };

  /// Chooses the cheapest path and executes it. `chosen` (optional)
  /// receives the winning path's name.
  Result<StorageQueryResult> Execute(QueryStats* stats = nullptr,
                                     std::string* chosen = nullptr);

  /// As above with an explicit degradation policy.
  Result<StorageQueryResult> Execute(const ExecuteOptions& options,
                                     QueryStats* stats = nullptr,
                                     std::string* chosen = nullptr);

 private:
  /// The one cost rule: (estimated cost, path index) of every valid,
  /// feasible path — restricted to `required_path` when non-empty —
  /// cheapest first.
  std::vector<std::pair<double, size_t>> Rank(
      const std::string& required_path) const;

  std::vector<std::unique_ptr<AccessPath>> paths_;
};

}  // namespace mds

#endif  // MDS_CORE_QUERY_PLANNER_H_
