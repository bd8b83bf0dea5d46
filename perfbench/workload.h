// The four workloads: deployment shape, request generation and the
// closed-loop load generator that drives them through QueryClient.
#ifndef MDS_PERFBENCH_WORKLOAD_H_
#define MDS_PERFBENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "geom/box.h"
#include "geom/point_set.h"
#include "server/protocol.h"

namespace perfbench {

inline constexpr size_t kDim = 5;  // u, g, r, i, z
inline constexpr uint64_t kRowsLimit = 1000;
inline constexpr uint32_t kKnnK = 10;
inline constexpr double kSliceS = 1.0;

/// Static description of one workload (everything but the seed).
struct WorkloadSpec {
  std::string name;
  unsigned clients = 0;  ///< closed-loop, one request per round trip
  bool hot = false;               ///< draws from a small distinct set
  bool spill = false;  ///< file-served, small pool, reloads under load
  bool sharded = false;           ///< two shards behind a coordinator
  /// Box half-width scale in magnitudes, drawn log-uniformly from
  /// [width_lo, width_hi]; every large_every-th box of a client (0: none)
  /// draws it from [large_lo, large_hi] instead.
  double width_lo = 0, width_hi = 0;
  unsigned large_every = 0;
  double large_lo = 0, large_hi = 0;
};

/// Returns false for an unknown name.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

struct Request {
  Op op = kCount;
  /// Box bounds for count/rows; `lo` is the probe point for knn.
  std::array<double, kDim> lo{}, hi{};

  mds::Box box() const;
  std::vector<double> point() const;
};

/// One client's request sequence: indices into the plan's pool, consumed
/// in order.
struct ClientPlan {
  std::vector<uint32_t> order;
};

/// Everything a run sends, generated up front from the workload seed.
struct Plan {
  std::vector<Request> pool;
  std::vector<ClientPlan> clients;
  /// Sent once, one at a time, before the measured window. For the
  /// unique-request workloads these are distinct from every measured
  /// request, so they warm the process without seeding cache hits.
  std::vector<uint32_t> warmup;
  /// One reply in this many (per client position, seeded) is kept for
  /// the oracle.
  uint32_t sample_every = 1;
};

/// `points` supplies box centres and kNN probes (catalogue points).
Plan MakePlan(const WorkloadSpec& spec, uint64_t seed,
              const mds::PointSet& points, double seconds);

/// A reply kept for the oracle.
struct SampledReply {
  uint32_t request = 0;  ///< pool index
  uint64_t row_count = 0;
  std::vector<int64_t> objids;
  std::vector<mds::protocol::WireNeighbor> neighbors;
};

/// Client-side record of one request in a traced wire window.
struct WireSpan {
  uint64_t request_id = 0;  ///< shared with the replay's spans
  int64_t start_ns = 0, end_ns = 0;
};

struct LoadResult {
  std::array<std::vector<int64_t>, kNumOps> latency_ns;  ///< OK replies
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;    ///< any non-OK reply or transport failure
  uint64_t rejected = 0;  ///< of which: shed by admission control
  double wall_s = 0;
  /// OK replies completed in each kWindowS slice of the window.
  std::vector<uint64_t> ok_per_slice;
  std::vector<SampledReply> samples;
  std::vector<WireSpan> spans;  ///< filled only when tracing
  std::vector<std::string> errors;  ///< first few failure messages
};

/// Per-client positions in their ClientPlan::order, carried across
/// windows so a second window never repeats the first one's requests.
using Cursors = std::vector<size_t>;

/// Runs every client of `plan` closed-loop against 127.0.0.1:`port` for
/// `seconds`: one thread and one connection per client, each sending its
/// next request only after the previous reply. `trace` records one client
/// span per request. Replies at sampled positions are kept in `samples`.
LoadResult RunClosedLoop(uint16_t port, const Plan& plan, double seconds,
                         uint64_t seed, bool trace, Cursors* cursors);

/// Sends plan.warmup sequentially on one connection; returns failures.
uint64_t RunWarmup(uint16_t port, const Plan& plan);

/// Deterministic 64-bit mix (splitmix64 finalizer).
uint64_t Mix64(uint64_t x);

}  // namespace perfbench

#endif  // MDS_PERFBENCH_WORKLOAD_H_
