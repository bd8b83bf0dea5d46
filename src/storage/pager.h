#ifndef MDS_STORAGE_PAGER_H_
#define MDS_STORAGE_PAGER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "storage/page.h"

namespace mds {

/// Abstract page-granular storage device. Implementations: FilePager
/// (POSIX file), MemPager (RAM, for tests), FaultInjectionPager (wraps
/// another pager and injects seeded probabilistic faults, for integrity
/// and error-path tests), RetryingPager (wraps another pager and retries
/// transient failures with bounded exponential backoff).
///
/// Error taxonomy: implementations report transient failures (safe to
/// retry: EINTR, injected transients) as kUnavailable and everything else
/// as kIOError / kOutOfRange / kCorruption. Callers that do not retry can
/// treat kUnavailable as an I/O error.
///
/// Thread safety contract: implementations must support concurrent
/// ReadPage/WritePage/AllocatePage calls on *distinct* pages — the sharded
/// BufferPool issues miss I/O from several shards at once. Concurrent
/// operations on the same page are serialized by the buffer pool (a page
/// lives in exactly one shard), so implementations need not handle them.
class Pager {
 public:
  virtual ~Pager() = default;

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Appends a zeroed page; returns its id.
  virtual Result<PageId> AllocatePage() = 0;

  /// Reads page `id` into *page.
  virtual Status ReadPage(PageId id, Page* page) = 0;

  /// Writes *page to page `id`.
  virtual Status WritePage(PageId id, const Page& page) = 0;

  /// Number of allocated pages.
  virtual uint64_t NumPages() const = 0;

  /// Flushes to durable storage where applicable.
  virtual Status Sync() = 0;

 protected:
  Pager() = default;
};

/// File-backed pager using pread/pwrite on a single file.
///
/// Robustness: every transfer runs through a bounded retry loop that
/// resumes partial preads/pwrites at the interrupted offset and backs off
/// exponentially on EINTR, so a signal-interrupted or short transfer never
/// surfaces as a failure unless it persists past the retry budget (then it
/// surfaces as kUnavailable). Retries are counted in io_retries(). Error
/// messages carry the file path and page id.
///
/// Thread-safe: reads and writes of allocated pages go straight to
/// positioned I/O (pread/pwrite carry their own offset, no shared file
/// cursor); the append edge — AllocatePage and the WritePage extension
/// case — is serialized by a mutex, and the page count is atomic so
/// readers never lock.
class FilePager : public Pager {
 public:
  ~FilePager() override;

  /// Creates (truncates) a new pager file.
  static Result<std::unique_ptr<FilePager>> Create(const std::string& path);

  /// Opens an existing pager file; size must be a multiple of kPageSize.
  static Result<std::unique_ptr<FilePager>> Open(const std::string& path);

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, Page* page) override;
  Status WritePage(PageId id, const Page& page) override;
  uint64_t NumPages() const override { return num_pages_; }
  Status Sync() override;

  const std::string& path() const { return path_; }

  /// Transfers that had to be resumed or repeated (EINTR, partial
  /// pread/pwrite) since construction.
  uint64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }

  /// Retry budget per transfer: a transfer may be resumed/repeated this
  /// many times before failing with kUnavailable.
  static constexpr int kMaxIoRetries = 8;

 private:
  FilePager(int fd, std::string path, uint64_t num_pages)
      : fd_(fd), path_(std::move(path)), num_pages_(num_pages) {}

  /// Full-length positioned transfer with EINTR/partial-transfer retries.
  Status TransferFull(bool write, PageId id, uint64_t offset, uint8_t* buf,
                      size_t len);
  Status WritePageLocked(PageId id, const Page& page);

  int fd_ = -1;
  std::string path_;
  std::mutex append_mu_;  // serializes growth of the file
  std::atomic<uint64_t> num_pages_{0};
  std::atomic<uint64_t> io_retries_{0};
};

/// In-memory pager; used by unit tests and small pipelines.
///
/// Thread-safe: a reader/writer lock guards the page directory, so any
/// number of ReadPage calls proceed in parallel while AllocatePage /
/// WritePage take the lock exclusively (pages are stored behind stable
/// unique_ptrs, but allocation may reallocate the directory vector).
class MemPager : public Pager {
 public:
  MemPager() = default;

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, Page* page) override;
  Status WritePage(PageId id, const Page& page) override;
  uint64_t NumPages() const override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pages_.size();
  }
  Status Sync() override { return Status::OK(); }

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<Page>> pages_;  // null until first written
};

/// Seeded probabilistic fault model for FaultInjectionPager. All
/// probabilities are per-operation; with a fixed seed the injected fault
/// sequence is fully deterministic (single-threaded use), which is what
/// makes CI fault campaigns reproducible from a seed.
struct FaultConfig {
  static constexpr uint64_t kUnlimited = ~uint64_t{0};

  uint64_t seed = 1;

  /// Reads: the read succeeds but 1–4 random bits of the returned page
  /// are flipped — silent corruption, detectable only by checksum.
  double p_bit_flip = 0.0;

  /// Writes: only a sector-aligned prefix of the page reaches the base
  /// pager, yet the write reports success — a torn write, detectable only
  /// by checksum on a later read.
  double p_torn_write = 0.0;

  /// Reads: the read fails with a transient kUnavailable before touching
  /// the base pager (a short pread); the retry succeeds.
  double p_short_read = 0.0;

  /// Any operation: transient kUnavailable; retrying the same operation
  /// (same op kind and page) is guaranteed to pass the fault draws.
  double p_transient = 0.0;

  /// Any operation: permanent kIOError; retries fail the draws afresh.
  double p_permanent = 0.0;

  /// Deterministic budget: admit exactly this many operations, then fail
  /// every further one with kIOError (kUnlimited disables). Drives the
  /// fault-at-every-op-index atomic-save sweep.
  uint64_t fail_after = kUnlimited;
};

/// Injected-fault accounting, by kind. total_injected() is the campaign
/// metric (the acceptance gate wants >= 10k injected faults).
struct FaultStats {
  uint64_t ops = 0;  ///< operations that entered the injector
  uint64_t bit_flips = 0;
  uint64_t torn_writes = 0;
  uint64_t short_reads = 0;
  uint64_t transients = 0;
  uint64_t permanents = 0;
  uint64_t budget_faults = 0;

  uint64_t total_injected() const {
    return bit_flips + torn_writes + short_reads + transients + permanents +
           budget_faults;
  }
};

/// Wraps a pager and injects seeded probabilistic faults — bit flips,
/// torn writes, short reads, transient and permanent I/O errors — plus an
/// optional deterministic fail-after-N budget. Used to prove that storage
/// errors propagate as Status (never crash) and that the checksum /
/// quarantine / retry machinery turns silent corruption into detected,
/// recoverable degradation.
///
/// Thread-safe: one mutex serializes the fault draws, the base operation
/// and the stats, so concurrent callers see a consistent (if arbitrary)
/// interleaving. Deterministic fault sequences require single-threaded
/// use, which is how the campaigns run.
class FaultInjectionPager : public Pager {
 public:
  FaultInjectionPager(Pager* base, const FaultConfig& config)
      : base_(base), config_(config), rng_(config.seed) {}

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, Page* page) override;
  Status WritePage(PageId id, const Page& page) override;
  uint64_t NumPages() const override { return base_->NumPages(); }
  Status Sync() override;

  /// Re-arms the deterministic budget and clears transient bookkeeping
  /// (probabilities and RNG state are left as they are).
  void Reset(uint64_t fail_after);

  FaultStats stats() const;

 private:
  enum class Op : uint8_t { kAlloc, kRead, kWrite, kSync };

  /// Runs the fault draws for one operation; called with mu_ held.
  /// On OK, *flip_bits / *torn_prefix describe silent corruption to apply
  /// (0 = none).
  Status Draw(Op op, PageId id, int* flip_bits, size_t* torn_prefix);

  static uint64_t TransientKey(Op op, PageId id) {
    return (static_cast<uint64_t>(op) << 56) ^ (id & ((1ull << 56) - 1));
  }

  Pager* base_;
  FaultConfig config_;
  mutable std::mutex mu_;
  Rng rng_;
  uint64_t ops_admitted_ = 0;
  FaultStats stats_;
  /// (op, page) pairs whose last failure was transient: the next attempt
  /// bypasses the draws, so "succeeds on retry" holds deterministically.
  std::unordered_set<uint64_t> pending_transients_;
};

/// Wraps any pager and retries operations that fail transiently
/// (kUnavailable) with bounded exponential backoff. This is the recovery
/// half of the fault-tolerance story: FaultInjectionPager (or a flaky
/// device) produces transients, RetryingPager absorbs them, and only
/// persistent failures propagate to the buffer pool.
///
/// Thread-safe to the extent the wrapped pager is (counters are atomics;
/// the backoff sleeps are per-call).
class RetryingPager : public Pager {
 public:
  struct Options {
    int max_attempts = 4;          ///< total tries per operation (>= 1)
    uint64_t backoff_base_us = 0;  ///< sleep before retry k: base << (k-1)
  };

  explicit RetryingPager(Pager* base) : base_(base) {}
  RetryingPager(Pager* base, const Options& options)
      : base_(base), options_(options) {}

  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, Page* page) override;
  Status WritePage(PageId id, const Page& page) override;
  uint64_t NumPages() const override { return base_->NumPages(); }
  Status Sync() override;

  /// Transient failures that were retried (whether or not the retry won).
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  /// Operations that still failed after exhausting the retry budget.
  uint64_t exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

 private:
  template <typename Fn>
  Status RunWithRetry(Fn&& fn);

  Pager* base_;
  Options options_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> exhausted_{0};
};

}  // namespace mds

#endif  // MDS_STORAGE_PAGER_H_
