#include "core/query_planner.h"

#include <algorithm>
#include <utility>

namespace mds {

QueryPlanner& QueryPlanner::AddPath(std::unique_ptr<AccessPath> path) {
  paths_.push_back(std::move(path));
  return *this;
}

std::vector<std::pair<double, size_t>> QueryPlanner::Rank(
    const std::string& required_path) const {
  std::vector<std::pair<double, size_t>> order;
  for (size_t i = 0; i < paths_.size(); ++i) {
    if (!required_path.empty() && required_path != paths_[i]->name()) {
      continue;
    }
    if (!paths_[i]->Validate().ok()) continue;
    const CostEstimate estimate = paths_[i]->Estimate();
    if (!estimate.feasible) continue;
    order.emplace_back(estimate.Total(), i);
  }
  // Equal costs keep registration order (the pair compares i second).
  std::sort(order.begin(), order.end());
  return order;
}

Result<size_t> QueryPlanner::ChooseBest() const {
  const std::vector<std::pair<double, size_t>> order = Rank(std::string());
  if (order.empty()) {
    return Status::InvalidArgument("QueryPlanner: no feasible access path");
  }
  return order.front().second;
}

std::vector<QueryPlanner::Candidate> QueryPlanner::ExplainAll() const {
  std::vector<Candidate> out;
  out.reserve(paths_.size());
  for (const auto& path : paths_) {
    out.push_back(Candidate{path->name(), path->Estimate()});
  }
  return out;
}

Result<StorageQueryResult> QueryPlanner::Execute(QueryStats* stats,
                                                 std::string* chosen) {
  return Execute(ExecuteOptions{}, stats, chosen);
}

Result<StorageQueryResult> QueryPlanner::Execute(const ExecuteOptions& options,
                                                 QueryStats* stats,
                                                 std::string* chosen) {
  // Execution walks the cost order, so a corruption fallback lands on the
  // next-cheapest alternative.
  const std::vector<std::pair<double, size_t>> order =
      Rank(options.required_path);
  if (order.empty()) {
    if (!options.required_path.empty()) {
      return Status::InvalidArgument(
          "QueryPlanner: required path '" + options.required_path +
          "' is not registered or not feasible");
    }
    return Status::InvalidArgument("QueryPlanner: no feasible access path");
  }

  Status last;
  bool fell_back = false;
  for (const auto& [cost, i] : order) {
    Result<StorageQueryResult> attempt =
        ExecuteAccessPath(paths_[i].get(), options.scan, stats);
    if (attempt.ok()) {
      if (chosen != nullptr) *chosen = paths_[i]->name();
      StorageQueryResult result = std::move(*attempt);
      if (fell_back) {
        // The answer is trustworthy (this path verified clean) but the
        // query did hit corruption en route; surface that to the caller.
        result.degraded = true;
        if (stats != nullptr) stats->degraded = true;
      }
      return result;
    }
    last = attempt.status();
    if (!options.fallback_on_corruption ||
        last.code() != StatusCode::kCorruption) {
      return last;
    }
    fell_back = true;
  }
  return AnnotateStatus(last, "QueryPlanner: every access path failed");
}

}  // namespace mds
