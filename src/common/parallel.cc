#include "common/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <system_error>
#include <utility>

namespace mds {

unsigned QueryThreads() {
  static const unsigned value = [] {
    if (const char* env = std::getenv("MDS_QUERY_THREADS")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed > 0) return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1u;
  }();
  return value;
}

ThreadPool::ThreadPool(unsigned max_threads, unsigned start_threads)
    : max_threads_(max_threads != 0 ? max_threads : 1) {
  std::lock_guard<std::mutex> lock(mu_);
  while (threads_.size() < std::min(start_threads, max_threads_)) {
    threads_.emplace_back([this] { Work(); });
  }
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    threads.swap(threads_);
  }
  cv_.notify_all();
  for (std::thread& t : threads) t.join();
}

void ThreadPool::Submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    // A woken thread stays counted idle until it takes a job, so two
    // Submits racing one wake-up still start a second thread.
    if (queue_.size() > idle_ && threads_.size() < max_threads_) {
      try {
        threads_.emplace_back([this] { Work(); });
      } catch (const std::system_error&) {
        if (threads_.empty()) throw;
      }
    }
  }
  cv_.notify_one();
}

void ThreadPool::Work() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++idle_;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --idle_;
      // Drain the queue even when stopping: a submitter may be waiting on
      // a queued job.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // and its captures die here, off the lock
  }
}

TaskPool::TaskPool(unsigned threads)
    : num_threads_(threads != 0 ? threads : QueryThreads()) {
  if (num_threads_ > 1) {
    const unsigned helpers = num_threads_ - 1;  // worker 0 is the caller
    workers_ = std::make_unique<ThreadPool>(helpers, helpers);
  }
}

void TaskPool::Run(const std::function<void(unsigned)>& fn) {
  if (workers_ == nullptr) {
    fn(0);
    return;
  }
  std::mutex mu;
  std::condition_variable done_cv;
  unsigned pending = num_threads_ - 1;  // guarded by mu
  for (unsigned w = 1; w < num_threads_; ++w) {
    workers_->Submit([&, w] {
      fn(w);
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) done_cv.notify_one();
    });
  }
  fn(0);  // the calling thread is worker 0
  std::unique_lock<std::mutex> lock(mu);
  done_cv.wait(lock, [&] { return pending == 0; });
}

void ParallelFor(TaskPool* pool, uint64_t n, uint64_t grain,
                 const std::function<void(uint64_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (pool == nullptr || pool->num_threads() == 1 || n <= grain) {
    for (uint64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<uint64_t> next{0};
  pool->Run([&](unsigned) {
    for (;;) {
      const uint64_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const uint64_t end = std::min(begin + grain, n);
      for (uint64_t i = begin; i < end; ++i) fn(i);
    }
  });
}

}  // namespace mds
