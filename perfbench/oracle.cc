#include "oracle.h"

#include <algorithm>
#include <cstring>


namespace perfbench {

Oracle::Oracle(const mds::ServedDataset& full) : points_(full.points()) {
  const std::vector<uint64_t>& order = full.tree().clustered_order();
  clustered_.reserve(order.size() * kDim);
  clustered_ids_.reserve(order.size());
  for (uint64_t id : order) {
    const float* p = points_.point(id);
    clustered_.insert(clustered_.end(), p, p + kDim);
    clustered_ids_.push_back(static_cast<int64_t>(id));
  }
}

std::vector<int64_t> Oracle::Rows(const Request& req, uint64_t limit,
                                  uint64_t* total) const {
  std::vector<int64_t> ids;
  uint64_t count = 0;
  const size_t n = clustered_ids_.size();
  for (size_t i = 0; i < n; ++i) {
    const float* p = &clustered_[i * kDim];
    bool inside = true;
    for (size_t j = 0; j < kDim; ++j) {
      const double v = p[j];
      if (v < req.lo[j] || v > req.hi[j]) {
        inside = false;
        break;
      }
    }
    if (!inside) continue;
    if (ids.size() < limit) ids.push_back(clustered_ids_[i]);
    ++count;
  }
  *total = count;
  return ids;
}

std::vector<mds::protocol::WireNeighbor> Oracle::Knn(const Request& req,
                                                     uint32_t k) const {
  using N = mds::protocol::WireNeighbor;
  auto before = [](const N& a, const N& b) {
    return a.squared_distance < b.squared_distance ||
           (a.squared_distance == b.squared_distance && a.id < b.id);
  };
  std::vector<N> heap;  // max-heap under `before`: worst kept neighbor first
  const std::vector<double> p = req.point();
  for (size_t i = 0; i < points_.size(); ++i) {
    const N cand{static_cast<int64_t>(i),
                 mds::SquaredDistance(p.data(), points_.point(i), kDim)};
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), before);
    } else if (before(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), before);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), before);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), before);
  return heap;
}

std::string Oracle::Check(const Plan& plan, const SampledReply& reply) const {
  const Request& req = plan.pool[reply.request];
  SampledReply expected;
  expected.request = reply.request;
  switch (req.op) {
    case kCount:
      Rows(req, 0, &expected.row_count);
      break;
    case kRows:
      expected.objids = Rows(req, kRowsLimit, &expected.row_count);
      break;
    case kKnn:
      expected.neighbors = Knn(req, kKnnK);
      break;
  }
  std::string diff = CompareReplies(reply, expected);
  if (diff.empty()) return diff;
  return std::string(OpName(req.op)) + " request " +
         std::to_string(reply.request) + ": " + diff;
}

namespace {

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

std::string CompareReplies(const SampledReply& a, const SampledReply& b) {
  if (a.row_count == b.row_count && SameBytes(a.objids, b.objids) &&
      SameBytes(a.neighbors, b.neighbors)) {
    return "";
  }
  return "got rows=" + std::to_string(a.row_count) +
         " ids=" + std::to_string(a.objids.size()) +
         " nn=" + std::to_string(a.neighbors.size()) +
         ", expected rows=" + std::to_string(b.row_count) +
         " ids=" + std::to_string(b.objids.size()) +
         " nn=" + std::to_string(b.neighbors.size());
}

}  // namespace perfbench
