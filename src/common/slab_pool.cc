#include "common/slab_pool.h"

#include <bit>
#include <cstring>
#include <thread>

#include "common/logging.h"

namespace mds {

namespace {

/// Size classes: 64 B, then four per octave up to 1 MiB — 80, 96, 112,
/// 128, 160, ... — so a slice exceeds its request by at most 25%, and an
/// ~80-byte count reply (the commonest reply a cache holds) takes 80.
constexpr size_t kClassesPerOctave = 4;
constexpr size_t kOctaves = 14;  // 64 B .. 1 MiB
constexpr size_t kNumClasses = 1 + kOctaves * kClassesPerOctave;

/// Slices carved out of one slab allocation. Bounded so the largest class
/// still slabs (16 MiB per 1 MiB-class slab) without hoarding memory for
/// classes the workload never touches — a slab is only allocated when its
/// class's free list runs dry.
constexpr size_t kSlicesPerSlab = 16;

/// Class 0 is kMinSliceBytes; class 1 + 4*o + q (q in 0..3) is
/// (5 + q)/4 of the o-th octave's base kMinSliceBytes << o.
constexpr size_t ClassBytes(size_t cls) {
  if (cls == 0) return SlabPool::kMinSliceBytes;
  const size_t octave = (cls - 1) / kClassesPerOctave;
  const size_t step = (cls - 1) % kClassesPerOctave + 1;
  const size_t quarter = (SlabPool::kMinSliceBytes / kClassesPerOctave)
                         << octave;
  return quarter * (kClassesPerOctave + step);
}
static_assert(ClassBytes(kNumClasses - 1) == SlabPool::kMaxSliceBytes);

}  // namespace

/// Slice bookkeeping, stored inline ahead of the payload bytes. For pooled
/// slices the owning stripe/class route the last unref back to the right
/// free list; oversize slices (stripe == nullptr) free their one-off
/// allocation instead.
struct SlabPool::Slice::Control {
  std::atomic<uint32_t> refs{1};
  uint32_t cls = 0;             ///< size class (pooled slices)
  size_t capacity = 0;
  size_t size = 0;
  SlabPool* pool = nullptr;
  Stripe* stripe = nullptr;     ///< nullptr = oversize one-off
  Control* next_free = nullptr; ///< stripe free-list link

  uint8_t* payload() { return reinterpret_cast<uint8_t*>(this + 1); }
};

/// One lock domain: per-class singly-linked free lists of idle slices plus
/// ownership of every slab carved for this stripe.
struct SlabPool::Stripe {
  std::mutex mu;
  Slice::Control* free_lists[kNumClasses] = {};
  std::vector<std::unique_ptr<uint8_t[]>> slabs;
};

uint8_t* SlabPool::Slice::data() { return ctl_->payload(); }
const uint8_t* SlabPool::Slice::data() const { return ctl_->payload(); }
size_t SlabPool::Slice::size() const { return ctl_ != nullptr ? ctl_->size : 0; }
size_t SlabPool::Slice::capacity() const {
  return ctl_ != nullptr ? ctl_->capacity : 0;
}

void SlabPool::Slice::set_size(size_t n) {
  MDS_DCHECK(ctl_ != nullptr && n <= ctl_->capacity);
  ctl_->size = n;
}

void SlabPool::Slice::Ref() {
  if (ctl_ != nullptr) ctl_->refs.fetch_add(1, std::memory_order_relaxed);
}

void SlabPool::Slice::Reset() {
  if (ctl_ == nullptr) return;
  // Release ordering so the payload writes of the dropping owner are
  // visible to whoever recycles the slice; the matching acquire is the
  // final decrement's fence.
  if (ctl_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    SlabPool::Release(ctl_);
  }
  ctl_ = nullptr;
}

SlabPool::SlabPool(size_t stripes) {
  if (stripes == 0) stripes = 1;
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

SlabPool::~SlabPool() = default;

SlabPool& SlabPool::Global() {
  // Leaked: reply slices queued on sockets may outlive any static
  // destruction order the process tears down with.
  static SlabPool* pool = new SlabPool();
  return *pool;
}

size_t SlabPool::ClassForSize(size_t n) {
  if (n <= kMinSliceBytes) return 0;
  // n lies in (2^e, 2^(e+1)]: round up to the next quarter of 2^e.
  const size_t e = static_cast<size_t>(std::bit_width(n - 1)) - 1;
  const size_t quarter = (size_t{1} << e) / kClassesPerOctave;
  const size_t step = ((n - (size_t{1} << e)) + quarter - 1) / quarter;
  const size_t octave = e - static_cast<size_t>(
                                std::bit_width(kMinSliceBytes) - 1);
  return 1 + octave * kClassesPerOctave + (step - 1);
}

SlabPool::Slice SlabPool::Allocate(size_t n) {
  if (n == 0) return Slice();
  allocations_.fetch_add(1, std::memory_order_relaxed);
  live_slices_.fetch_add(1, std::memory_order_relaxed);

  if (n > kMaxSliceBytes) {
    // One-off heap fallback behind the same refcounted handle.
    oversize_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_use_.fetch_add(n, std::memory_order_relaxed);
    uint8_t* raw = new uint8_t[sizeof(Slice::Control) + n];
    auto* ctl = new (raw) Slice::Control();
    ctl->capacity = n;
    ctl->size = n;
    ctl->pool = this;
    return Slice(ctl);
  }

  const size_t cls = ClassForSize(n);
  // Shard-affine stripe choice: a thread keeps hashing to the same stripe,
  // so its free list stays warm in its cache.
  const size_t stripe_idx =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      stripes_.size();
  Stripe* stripe = stripes_[stripe_idx].get();

  Slice::Control* ctl = nullptr;
  bool recycled = false;
  {
    std::lock_guard<std::mutex> lock(stripe->mu);
    ctl = stripe->free_lists[cls];
    if (ctl != nullptr) {
      stripe->free_lists[cls] = ctl->next_free;
      recycled = true;
    } else {
      // Carve a fresh slab into kSlicesPerSlab slices; hand out the first
      // and chain the rest onto the free list. The slab is not zeroed, so
      // an idle slice's payload pages stay untouched (and non-resident)
      // until a reply is written into it.
      const size_t slice_bytes = sizeof(Slice::Control) + ClassBytes(cls);
      auto slab = std::make_unique_for_overwrite<uint8_t[]>(kSlicesPerSlab *
                                                            slice_bytes);
      uint8_t* base = slab.get();
      stripe->slabs.push_back(std::move(slab));
      for (size_t i = kSlicesPerSlab; i-- > 0;) {
        auto* c = new (base + i * slice_bytes) Slice::Control();
        c->cls = static_cast<uint32_t>(cls);
        c->capacity = ClassBytes(cls);
        c->pool = this;
        c->stripe = stripe;
        c->refs.store(0, std::memory_order_relaxed);
        if (i == 0) {
          ctl = c;
        } else {
          c->next_free = stripe->free_lists[cls];
          stripe->free_lists[cls] = c;
        }
      }
    }
  }
  if (recycled) recycles_.fetch_add(1, std::memory_order_relaxed);
  ctl->refs.store(1, std::memory_order_relaxed);
  ctl->size = n;
  ctl->next_free = nullptr;
  bytes_in_use_.fetch_add(ctl->capacity, std::memory_order_relaxed);
  return Slice(ctl);
}

void SlabPool::Release(Slice::Control* ctl) {
  SlabPool* pool = ctl->pool;
  pool->live_slices_.fetch_sub(1, std::memory_order_relaxed);
  pool->bytes_in_use_.fetch_sub(ctl->capacity, std::memory_order_relaxed);
  if (ctl->stripe == nullptr) {
    // Oversize one-off: placement-destroyed with its allocation.
    ctl->~Control();
    delete[] reinterpret_cast<uint8_t*>(ctl);
    return;
  }
  Stripe* stripe = ctl->stripe;
  const size_t cls = ctl->cls;
  std::lock_guard<std::mutex> lock(stripe->mu);
  ctl->next_free = stripe->free_lists[cls];
  stripe->free_lists[cls] = ctl;
}

SlabPool::StatsSnapshot SlabPool::Stats() const {
  StatsSnapshot s;
  s.allocations = allocations_.load(std::memory_order_relaxed);
  s.recycles = recycles_.load(std::memory_order_relaxed);
  s.oversize = oversize_.load(std::memory_order_relaxed);
  s.live_slices = live_slices_.load(std::memory_order_relaxed);
  s.bytes_in_use = bytes_in_use_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mds
