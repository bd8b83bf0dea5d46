#ifndef MDS_COMMON_SLAB_POOL_H_
#define MDS_COMMON_SLAB_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace mds {

/// Thread-striped slab/slice allocator for reply payload buffers (after
/// beng-proxy's SlicePool: slabs are carved into fixed-class slices that
/// recycle through per-stripe free lists instead of the general heap).
///
/// The serving hot path allocates one payload buffer per reply and frees
/// it as soon as the kernel has taken the bytes — a pattern malloc serves
/// with two cache-cold metadata walks per reply and the allocator lock of
/// whichever arena the I/O thread happens to share. Here an allocation is
/// a stripe mutex + free-list pop of a warm, size-classed slice, and a
/// release is the mirror push. Slices are handed out through refcounted
/// handles so one payload can be pinned by several owners at once (the
/// response cache entry and every in-flight socket write queue that is
/// flushing it); the bytes go back to the free list when the last handle
/// drops.
///
/// Size classes run from kMinSliceBytes to kMaxSliceBytes, four per
/// octave (64, 80, 96, 112, 128, 160, ...), so a slice is at most 25%
/// larger than its request.
/// Requests above kMaxSliceBytes fall back to a one-off heap allocation
/// behind the same refcounted handle (counted in stats as oversize, never
/// recycled). A request of zero bytes yields a null slice.
///
/// Thread safety: fully thread-safe. Allocation picks a stripe by thread
/// identity (shard-affine: an I/O thread keeps hitting the same warm
/// stripe); release returns the slice to the stripe that owns its slab,
/// whatever thread drops the last reference. Slice handles themselves are
/// NOT thread-safe to mutate concurrently, but distinct handles to the
/// same slice may be used (and dropped) from different threads — the
/// refcount is atomic.
class SlabPool {
 public:
  static constexpr size_t kMinSliceBytes = 64;
  static constexpr size_t kMaxSliceBytes = 1u << 20;  // 1 MiB

  /// Refcounted view of one pooled slice. Copying bumps the refcount;
  /// destroying the last handle returns the slice to its stripe's free
  /// list. `size()` is the byte count in use (set by the writer, at most
  /// `capacity()`, the size class).
  class Slice {
   public:
    Slice() = default;
    ~Slice() { Reset(); }
    Slice(const Slice& other) : ctl_(other.ctl_) { Ref(); }
    Slice(Slice&& other) noexcept : ctl_(other.ctl_) { other.ctl_ = nullptr; }
    Slice& operator=(const Slice& other) {
      if (this != &other) {
        Reset();
        ctl_ = other.ctl_;
        Ref();
      }
      return *this;
    }
    Slice& operator=(Slice&& other) noexcept {
      if (this != &other) {
        Reset();
        ctl_ = other.ctl_;
        other.ctl_ = nullptr;
      }
      return *this;
    }

    explicit operator bool() const { return ctl_ != nullptr; }
    uint8_t* data();
    const uint8_t* data() const;
    size_t size() const;
    size_t capacity() const;
    /// Declares the first n bytes in use; n must be <= capacity().
    void set_size(size_t n);
    /// Drops this handle (refcount--; last drop recycles the slice).
    void Reset();

   private:
    friend class SlabPool;
    struct Control;
    explicit Slice(Control* ctl) : ctl_(ctl) {}
    void Ref();

    Control* ctl_ = nullptr;
  };

  /// `stripes` lock domains (clamped to >= 1). The default suits a
  /// handful of I/O threads plus a worker pool.
  explicit SlabPool(size_t stripes = 8);
  ~SlabPool();

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  /// The process-wide pool the serving layer allocates reply payloads
  /// from (leaked at exit, like other function-local statics that
  /// outlive detached I/O).
  static SlabPool& Global();

  /// Hands out a slice with capacity >= n (the smallest fitting class);
  /// size() is preset to n. Returns a null slice when n == 0.
  Slice Allocate(size_t n);

  struct StatsSnapshot {
    uint64_t allocations = 0;  ///< slices handed out
    uint64_t recycles = 0;     ///< allocations served from a free list
    uint64_t oversize = 0;     ///< above-kMaxSliceBytes heap fallbacks
    uint64_t live_slices = 0;  ///< handed out and not yet released
    uint64_t bytes_in_use = 0; ///< capacity sum over live slices
  };
  StatsSnapshot Stats() const;

 private:
  struct Stripe;
  static void Release(Slice::Control* ctl);
  static size_t ClassForSize(size_t n);

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<size_t> next_stripe_{0};

  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> recycles_{0};
  std::atomic<uint64_t> oversize_{0};
  std::atomic<uint64_t> live_slices_{0};
  std::atomic<uint64_t> bytes_in_use_{0};
};

}  // namespace mds

#endif  // MDS_COMMON_SLAB_POOL_H_
