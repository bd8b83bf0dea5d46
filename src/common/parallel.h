#ifndef MDS_COMMON_PARALLEL_H_
#define MDS_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mds {

/// Worker count for query execution and index builds: the value of the
/// MDS_QUERY_THREADS environment variable if set and positive, otherwise
/// std::thread::hardware_concurrency() (minimum 1). Read once per process.
unsigned QueryThreads();

/// Queue-fed thread pool: Submit() enqueues a job and returns; jobs run in
/// FIFO order on up to `max_threads` threads. Beyond the `start_threads`
/// started up front, threads start on demand — one per job that finds no
/// idle thread, up to the cap — and then stay until the pool is destroyed,
/// so an idle pool costs no more stacks than it started with and a busy
/// one never exceeds the cap. This is the pool for jobs that block
/// (network legs, whole-request execution); TaskPool runs fork/join CPU
/// loops on top of one.
///
/// Thread safety: Submit() may be called from any thread, including from
/// a job. The destructor runs every job still queued, then joins; no job
/// may be submitted once destruction has begun. When the system refuses a
/// new thread, the job waits for a running one (Submit throws only when
/// the pool has none).
class ThreadPool {
 public:
  /// max_threads == 0 is treated as 1; start_threads is clamped to it.
  explicit ThreadPool(unsigned max_threads, unsigned start_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// `demand` is how many threads the caller's jobs can occupy at once
  /// (e.g. its admitted requests, this one included): no thread starts
  /// beyond it, so a job submitted while a finished job's thread is still
  /// on its way back to idle waits for that thread instead of adding one.
  void Submit(std::function<void()> job,
              size_t demand = std::numeric_limits<size_t>::max());

 private:
  void Work();

  const unsigned max_threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  std::vector<std::thread> threads_;         // guarded by mu_
  unsigned idle_ = 0;  // threads waiting for a job, guarded by mu_
  bool stop_ = false;
};

/// Fixed fork/join pool: num_threads()-1 ThreadPool workers, started once
/// and reused for every Run() call — the "fixed worker pool" all parallel
/// query machinery (ParallelRangeScanner, inter-query ParallelFor batches,
/// parallel kd-tree build) shares, so concurrency is bounded by one knob
/// rather than multiplying per layer.
///
/// Thread safety: Run() may be called from one thread at a time per pool
/// (it is a synchronous fork/join); distinct pools are independent. The
/// pool itself must be constructed and destroyed on a single thread.
class TaskPool {
 public:
  /// threads == 0 picks QueryThreads(). A pool of 1 runs Run() bodies
  /// inline on the calling thread (no worker is spawned).
  explicit TaskPool(unsigned threads = 0);

  unsigned num_threads() const { return num_threads_; }

  /// Invokes fn(worker) for worker = 0..num_threads()-1 (worker 0 runs on
  /// the calling thread), and blocks until all invocations return. fn must
  /// not throw.
  void Run(const std::function<void(unsigned)>& fn);

 private:
  unsigned num_threads_;
  std::unique_ptr<ThreadPool> workers_;  // null for a pool of 1
};

/// Fork/join parallel loop: invokes fn(i) for every i in [0, n), dynamically
/// load-balanced across the pool's workers in chunks of `grain` iterations.
/// Iterations must be independent; fn may run on any worker thread,
/// including the caller's. With a 1-thread pool this is a plain loop.
void ParallelFor(TaskPool* pool, uint64_t n, uint64_t grain,
                 const std::function<void(uint64_t)>& fn);

}  // namespace mds

#endif  // MDS_COMMON_PARALLEL_H_
