#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/simd_dist.h"

namespace perfbench {

const char* OpName(Op op) {
  switch (op) {
    case kCount:
      return "count";
    case kRows:
      return "rows";
    case kKnn:
      return "knn";
  }
  return "?";
}

int64_t NearestRank(const std::vector<int64_t>& sorted, double pct) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

LatencySummary Summarize(std::vector<int64_t>* ns) {
  LatencySummary s;
  s.n = ns->size();
  if (s.n == 0) return s;
  std::sort(ns->begin(), ns->end());
  double sum = 0;
  for (int64_t v : *ns) sum += static_cast<double>(v);
  s.mean_us = sum / s.n / 1e3;
  s.p50_us = NearestRank(*ns, 50) / 1e3;
  s.p99_us = NearestRank(*ns, 99) / 1e3;
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * s.n));
    if (s.n - std::min(rank, s.n) < 10) break;
    s.top_pct = pct;
    s.top_us = NearestRank(*ns, pct) / 1e3;
  }
  return s;
}

ProcSample ReadProc() {
  ProcSample p;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
      long v = 0;
      if (std::sscanf(line, "Threads: %ld", &v) == 1) p.threads = v;
      if (std::sscanf(line, "VmHWM: %ld kB", &v) == 1) p.vm_hwm_mb = v / 1024.0;
    }
    std::fclose(f);
  }
  if (DIR* d = opendir("/proc/self/fd")) {
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') ++p.fds;
    }
    closedir(d);
    --p.fds;  // the directory stream's own descriptor
  }
  return p;
}

namespace {

// A fixed amount of dependent integer work that no compiler folds away.
uint64_t Spin(uint64_t iters) {
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double TimeSpins(unsigned threads, uint64_t iters) {
  std::vector<std::thread> pool;
  std::vector<uint64_t> sink(threads);
  const auto t0 = Clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] { sink[t] = Spin(iters); });
  }
  for (auto& th : pool) th.join();
  const double s = ElapsedS(t0, Clock::now());
  uint64_t acc = 0;
  for (uint64_t v : sink) acc ^= v;
  if (acc == 42) std::fputc(' ', stderr);  // keeps the spins observable
  return s;
}

}  // namespace

HostInfo MeasureHost(const std::string& source_digest) {
  HostInfo h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  constexpr uint64_t kIters = 20'000'000;
  // Best of three on each side: the calibration asks what the scheduler
  // can give, not what one unlucky slice gave.
  double one = 1e9, many = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    one = std::min(one, TimeSpins(1, kIters));
    many = std::min(many, TimeSpins(h.nproc, kIters));
  }
  h.effective_parallelism = h.nproc * one / many;
  h.simd_tier = mds::SimdTierName(mds::ActiveSimdTier());
  h.compiler = std::string("g++ ") + __VERSION__;
  h.build_type = MDSBENCH_BUILD_TYPE;
  h.git_sha = MDSBENCH_GIT_SHA;
  h.source_digest = source_digest;
  return h;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
