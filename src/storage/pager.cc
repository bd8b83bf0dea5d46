#include "storage/pager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace mds {

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " '" + path + "': " + std::strerror(errno);
}

std::string PageContext(const char* op, PageId id, const std::string& path) {
  return std::string(op) + "(id=" + std::to_string(id) + ", file '" + path +
         "')";
}

void BackoffSleep(uint64_t base_us, int retry) {
  if (base_us == 0) return;
  const uint64_t us = base_us << (retry < 20 ? retry : 20);
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

// --- FilePager -------------------------------------------------------------

FilePager::~FilePager() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<FilePager>> FilePager::Create(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot create pager file", path));
  }
  return std::unique_ptr<FilePager>(new FilePager(fd, path, 0));
}

Result<std::unique_ptr<FilePager>> FilePager::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IOError(ErrnoMessage("cannot open pager file", path));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IOError(ErrnoMessage("cannot stat pager file", path));
  }
  if (static_cast<uint64_t>(size) % kPageSize != 0) {
    ::close(fd);
    return Status::Corruption("pager file size not a multiple of page size: " +
                              path);
  }
  return std::unique_ptr<FilePager>(
      new FilePager(fd, path, static_cast<uint64_t>(size) / kPageSize));
}

Status FilePager::TransferFull(bool write, PageId id, uint64_t offset,
                               uint8_t* buf, size_t len) {
  // Bounded resume loop: partial transfers continue at the interrupted
  // offset, EINTR repeats with exponential backoff. Only after
  // kMaxIoRetries resumptions does the transfer fail — and then as
  // kUnavailable, because the condition is by definition transient.
  int retries = 0;
  while (len > 0) {
    const ssize_t n =
        write ? ::pwrite(fd_, buf, len, static_cast<off_t>(offset))
              : ::pread(fd_, buf, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno != EINTR) {
        return Status::IOError(AnnotateStatus(
                                   Status::IOError(std::strerror(errno)),
                                   PageContext(write ? "WritePage" : "ReadPage",
                                               id, path_))
                                   .message());
      }
    } else if (n == 0 && !write) {
      // Read past EOF inside the allocated range: the file was truncated
      // underneath us — not retryable.
      return Status::IOError(
          PageContext("ReadPage", id, path_) +
          ": unexpected EOF (file truncated externally?)");
    } else {
      buf += n;
      offset += static_cast<uint64_t>(n);
      len -= static_cast<size_t>(n);
      if (len == 0) break;
    }
    // Partial transfer or EINTR: account and retry within budget.
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    if (++retries > kMaxIoRetries) {
      return Status::Unavailable(
          PageContext(write ? "WritePage" : "ReadPage", id, path_) +
          ": transfer kept stalling after " + std::to_string(kMaxIoRetries) +
          " retries");
    }
    BackoffSleep(10, retries - 1);
  }
  return Status::OK();
}

Result<PageId> FilePager::AllocatePage() {
  // The append edge is the only operation two threads could collide on;
  // pread/pwrite of already-allocated pages need no lock.
  std::lock_guard<std::mutex> lock(append_mu_);
  Page zero;
  PageId id = num_pages_.load(std::memory_order_relaxed);
  MDS_RETURN_NOT_OK(TransferFull(/*write=*/true, id, id * kPageSize,
                                 zero.bytes(), kPageSize));
  num_pages_.store(id + 1, std::memory_order_release);
  return id;
}

Status FilePager::ReadPage(PageId id, Page* page) {
  if (id >= num_pages_.load(std::memory_order_acquire)) {
    return Status::OutOfRange(PageContext("ReadPage", id, path_) +
                              ": page id out of range");
  }
  return TransferFull(/*write=*/false, id, id * kPageSize, page->bytes(),
                      kPageSize);
}

Status FilePager::WritePageLocked(PageId id, const Page& page) {
  return TransferFull(/*write=*/true, id, id * kPageSize,
                      const_cast<uint8_t*>(page.bytes()), kPageSize);
}

Status FilePager::WritePage(PageId id, const Page& page) {
  if (id >= num_pages_.load(std::memory_order_acquire)) {
    // Extension writes race with other extenders; take the append lock and
    // re-check. In-place writes (the common case) skip the lock entirely.
    std::lock_guard<std::mutex> lock(append_mu_);
    const uint64_t n_pages = num_pages_.load(std::memory_order_relaxed);
    if (id > n_pages) {
      return Status::OutOfRange(PageContext("WritePage", id, path_) +
                                ": page id beyond end");
    }
    MDS_RETURN_NOT_OK(WritePageLocked(id, page));
    if (id == n_pages) num_pages_.store(id + 1, std::memory_order_release);
    return Status::OK();
  }
  return WritePageLocked(id, page);
}

Status FilePager::Sync() {
  int retries = 0;
  while (::fsync(fd_) != 0) {
    if (errno != EINTR) {
      return Status::IOError(ErrnoMessage("fsync failed on", path_));
    }
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    if (++retries > kMaxIoRetries) {
      return Status::Unavailable("fsync kept getting interrupted on '" +
                                 path_ + "'");
    }
    BackoffSleep(10, retries - 1);
  }
  return Status::OK();
}

// --- MemPager --------------------------------------------------------------

Result<PageId> MemPager::AllocatePage() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Stored on first write: until then the page reads as zeros, and the
  // buffer-pool frame BufferPool::Allocate hands out is its only copy.
  pages_.push_back(nullptr);
  return PageId{pages_.size() - 1};
}

Status MemPager::ReadPage(PageId id, Page* page) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (id >= pages_.size()) {
    return Status::OutOfRange("ReadPage(id=" + std::to_string(id) +
                              ", mem): page id out of range");
  }
  if (pages_[id] == nullptr) {
    page->data.fill(0);
  } else {
    *page = *pages_[id];
  }
  return Status::OK();
}

Status MemPager::WritePage(PageId id, const Page& page) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (id > pages_.size()) {
    return Status::OutOfRange("WritePage(id=" + std::to_string(id) +
                              ", mem): page id beyond end");
  }
  if (id == pages_.size()) {
    pages_.push_back(std::make_unique<Page>(page));
  } else if (pages_[id] == nullptr) {
    pages_[id] = std::make_unique<Page>(page);
  } else {
    *pages_[id] = page;
  }
  return Status::OK();
}

// --- FaultInjectionPager ---------------------------------------------------

Status FaultInjectionPager::Draw(Op op, PageId id, int* flip_bits,
                                 size_t* torn_prefix) {
  *flip_bits = 0;
  *torn_prefix = 0;
  ++stats_.ops;

  // Deterministic budget first: admit exactly fail_after ops, then fail
  // everything (the fault-at-every-op-index sweep relies on this).
  if (config_.fail_after != FaultConfig::kUnlimited) {
    if (ops_admitted_ >= config_.fail_after) {
      ++stats_.budget_faults;
      return Status::IOError("injected fault (budget exhausted at op " +
                             std::to_string(ops_admitted_) + ")");
    }
    ++ops_admitted_;
  }

  // A retry of an operation that just failed transiently is guaranteed to
  // pass the probabilistic draws — "transient" means exactly that.
  if (pending_transients_.erase(TransientKey(op, id)) != 0) {
    return Status::OK();
  }

  if (config_.p_transient > 0.0 &&
      rng_.NextDouble() < config_.p_transient) {
    ++stats_.transients;
    pending_transients_.insert(TransientKey(op, id));
    return Status::Unavailable("injected transient fault (op " +
                               std::to_string(stats_.ops - 1) + ")");
  }
  if (config_.p_permanent > 0.0 && rng_.NextDouble() < config_.p_permanent) {
    ++stats_.permanents;
    return Status::IOError("injected permanent fault (op " +
                           std::to_string(stats_.ops - 1) + ")");
  }
  if (op == Op::kRead) {
    if (config_.p_short_read > 0.0 &&
        rng_.NextDouble() < config_.p_short_read) {
      ++stats_.short_reads;
      pending_transients_.insert(TransientKey(op, id));
      return Status::Unavailable("injected short read (op " +
                                 std::to_string(stats_.ops - 1) + ")");
    }
    if (config_.p_bit_flip > 0.0 && rng_.NextDouble() < config_.p_bit_flip) {
      ++stats_.bit_flips;
      *flip_bits = 1 + static_cast<int>(rng_.NextBounded(4));
    }
  }
  if (op == Op::kWrite && config_.p_torn_write > 0.0 &&
      rng_.NextDouble() < config_.p_torn_write) {
    ++stats_.torn_writes;
    // Tear at a 512-byte sector boundary strictly inside the page.
    constexpr size_t kSector = 512;
    constexpr size_t kSectors = kPageSize / kSector;
    *torn_prefix = kSector * (1 + rng_.NextBounded(kSectors - 1));
  }
  return Status::OK();
}

Result<PageId> FaultInjectionPager::AllocatePage() {
  std::lock_guard<std::mutex> lock(mu_);
  int flip_bits;
  size_t torn_prefix;
  MDS_RETURN_NOT_OK(Draw(Op::kAlloc, kInvalidPageId, &flip_bits,
                         &torn_prefix));
  return base_->AllocatePage();
}

Status FaultInjectionPager::ReadPage(PageId id, Page* page) {
  std::lock_guard<std::mutex> lock(mu_);
  int flip_bits;
  size_t torn_prefix;
  MDS_RETURN_NOT_OK(Draw(Op::kRead, id, &flip_bits, &torn_prefix));
  MDS_RETURN_NOT_OK(base_->ReadPage(id, page));
  // Silent read corruption: flip random bits anywhere in the page
  // (payload or footer — the checksum must catch either).
  for (int b = 0; b < flip_bits; ++b) {
    const uint64_t bit = rng_.NextBounded(kPageSize * 8);
    page->bytes()[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  return Status::OK();
}

Status FaultInjectionPager::WritePage(PageId id, const Page& page) {
  std::lock_guard<std::mutex> lock(mu_);
  int flip_bits;
  size_t torn_prefix;
  MDS_RETURN_NOT_OK(Draw(Op::kWrite, id, &flip_bits, &torn_prefix));
  if (torn_prefix == 0) {
    return base_->WritePage(id, page);
  }
  // Torn write: only the first torn_prefix bytes reach the device, the
  // tail keeps its previous content — and the write still reports
  // success, exactly like a power cut between sector writes. Detectable
  // only by the page checksum on a later read.
  Page torn;
  if (!base_->ReadPage(id, &torn).ok()) {
    torn = Page{};  // extension write: the tail reads back as zeroes
  }
  std::memcpy(torn.bytes(), page.bytes(), torn_prefix);
  return base_->WritePage(id, torn);
}

Status FaultInjectionPager::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  int flip_bits;
  size_t torn_prefix;
  MDS_RETURN_NOT_OK(Draw(Op::kSync, kInvalidPageId, &flip_bits,
                         &torn_prefix));
  return base_->Sync();
}

void FaultInjectionPager::Reset(uint64_t fail_after) {
  std::lock_guard<std::mutex> lock(mu_);
  config_.fail_after = fail_after;
  ops_admitted_ = 0;
  pending_transients_.clear();
}

FaultStats FaultInjectionPager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --- RetryingPager ---------------------------------------------------------

template <typename Fn>
Status RetryingPager::RunWithRetry(Fn&& fn) {
  Status status;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      BackoffSleep(options_.backoff_base_us, attempt - 1);
    }
    status = fn();
    if (!status.IsTransient()) return status;
  }
  exhausted_.fetch_add(1, std::memory_order_relaxed);
  return status;
}

Result<PageId> RetryingPager::AllocatePage() {
  PageId id = kInvalidPageId;
  Status status = RunWithRetry([&]() {
    Result<PageId> r = base_->AllocatePage();
    if (!r.ok()) return r.status();
    id = *r;
    return Status::OK();
  });
  if (!status.ok()) return status;
  return id;
}

Status RetryingPager::ReadPage(PageId id, Page* page) {
  return RunWithRetry([&]() { return base_->ReadPage(id, page); });
}

Status RetryingPager::WritePage(PageId id, const Page& page) {
  return RunWithRetry([&]() { return base_->WritePage(id, page); });
}

Status RetryingPager::Sync() {
  return RunWithRetry([&]() { return base_->Sync(); });
}

}  // namespace mds
