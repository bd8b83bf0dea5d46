// Shared helpers of the repository benchmark: clocks, exact percentiles,
// process counters and the host block.
#ifndef MDS_PERFBENCH_COMMON_H_
#define MDS_PERFBENCH_COMMON_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t ElapsedNs(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

inline double ElapsedS(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The three request types every workload mixes.
enum Op : uint8_t { kCount = 0, kRows = 1, kKnn = 2 };
inline constexpr size_t kNumOps = 3;
const char* OpName(Op op);

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(pct/100 * n). Requires a non-empty sample.
int64_t NearestRank(const std::vector<int64_t>& sorted, double pct);

/// Digest of one latency sample, all in microseconds.
struct LatencySummary {
  size_t n = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  /// Highest percentile of {50, 90, 99, 99.9, 99.99} with at least ten
  /// samples beyond its rank (0 when even p50 has fewer), and its value.
  double top_pct = 0;
  double top_us = 0;
};

/// Sorts `ns` in place and summarizes it.
LatencySummary Summarize(std::vector<int64_t>* ns);

/// Process resources read from /proc/self.
struct ProcSample {
  long threads = 0;
  long fds = 0;
  double vm_hwm_mb = 0;  ///< peak resident set (VmHWM)
};
ProcSample ReadProc();

/// What a number was measured on, so a figure from a starved run stays
/// recognisable.
struct HostInfo {
  unsigned nproc = 0;
  /// N concurrent copies of a fixed spin against one copy:
  /// nproc * t(1) / t(nproc); nproc means every core was really there.
  double effective_parallelism = 0;
  std::string simd_tier;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
  std::string source_digest;
};
HostInfo MeasureHost(const std::string& source_digest);

/// Restricts this process (every thread created afterwards) to the lowest
/// CPU it may run on and returns that CPU, or -1 when affinity cannot be
/// set. On a shared host the CPU time a process can get in parallel swings
/// between one core and all of them from minute to minute, while one core
/// stays available; pinned, the whole benchmark (clients and servers) asks
/// for one core, so its figures depend on that core's speed and not on
/// how busy the neighbours are.
int PinToOneCpu();

/// JSON literals for the result line and file (full precision; NaN and
/// infinities as null).
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // MDS_PERFBENCH_COMMON_H_
