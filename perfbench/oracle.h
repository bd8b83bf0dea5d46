// Brute-force answers over ServedDataset::points(), the reference every
// sampled reply is checked against.
#ifndef MDS_PERFBENCH_ORACLE_H_
#define MDS_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "server/dataset.h"
#include "workload.h"

namespace perfbench {

class Oracle {
 public:
  /// `full` must serve every row (shard_count 1) and outlive the oracle.
  explicit Oracle(const mds::ServedDataset& full);

  /// Rows inside the request box: the total, and the first `limit` objids
  /// in clustered row order.
  std::vector<int64_t> Rows(const Request& req, uint64_t limit,
                            uint64_t* total) const;
  /// The k nearest points by (squared distance, id), distances computed
  /// with the scalar reference kernel.
  std::vector<mds::protocol::WireNeighbor> Knn(const Request& req,
                                               uint32_t k) const;

  /// Empty when `reply` matches the brute force for plan.pool[reply.request];
  /// otherwise a one-line description of the mismatch.
  std::string Check(const Plan& plan, const SampledReply& reply) const;

 private:
  const mds::PointSet& points_;
  // Row copies in clustered order, so a brute-force pass reads memory
  // sequentially and emits ids in the order the server reports them.
  std::vector<float> clustered_;
  std::vector<int64_t> clustered_ids_;
};

/// Byte-level comparison of the result section of two replies to the same
/// request (row count and objids, or neighbor ids and distances); empty
/// when identical.
std::string CompareReplies(const SampledReply& a, const SampledReply& b);

}  // namespace perfbench

#endif  // MDS_PERFBENCH_ORACLE_H_
