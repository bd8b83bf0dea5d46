// SlabPool: the reply-payload slice allocator behind the zero-copy serve
// path. These tests pin the size-class geometry, the refcount lifecycle
// (a slice shared by a cache entry and a socket write queue recycles only
// on the last drop), cross-thread release, the oversize heap fallback and
// the stats the server exports on the wire.

#include "common/slab_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

namespace mds {
namespace {

TEST(SlabPool, ZeroByteRequestYieldsNullSlice) {
  SlabPool pool;
  SlabPool::Slice s = pool.Allocate(0);
  EXPECT_FALSE(s);
  EXPECT_EQ(pool.Stats().allocations, 0u);
}

TEST(SlabPool, RoundsUpToQuarterOctaveClasses) {
  SlabPool pool;
  struct Case {
    size_t request;
    size_t expected_capacity;
  };
  const Case cases[] = {
      {1, 64},           {63, 64},          {64, 64},
      {65, 80},          {77, 80},          // a count reply: 80 B, not 256
      {81, 96},          {112, 112},        {113, 128},
      {255, 256},        {256, 256},        {257, 320},
      {449, 512},        {513, 640},        {1000, 1024},
      {1025, 1280},      {4096, 4096},      {4097, 5120},
      {8264, 10240},     {12289, 14336},    {65536, 65536},
      {65537, 81920},    {917505, 1u << 20}, {1u << 20, 1u << 20},
  };
  for (const Case& c : cases) {
    SlabPool::Slice s = pool.Allocate(c.request);
    ASSERT_TRUE(s) << c.request;
    EXPECT_EQ(s.capacity(), c.expected_capacity) << c.request;
    EXPECT_EQ(s.size(), c.request);
    // The payload is writable through the handle.
    std::memset(s.data(), 0xAB, s.size());
  }

  // Every class edge exactly: 64, then (5/4, 6/4, 7/4, 8/4) of each
  // octave base 64 << o up to 1 MiB. An edge request gets its own class,
  // one byte more gets the next, and no slice exceeds its request by more
  // than 25% above the minimum class.
  std::vector<size_t> edges = {64};
  for (size_t base = 64; base < SlabPool::kMaxSliceBytes; base *= 2) {
    for (size_t q = 5; q <= 8; ++q) edges.push_back(base * q / 4);
  }
  ASSERT_EQ(edges.size(), 57u);
  ASSERT_EQ(edges.back(), SlabPool::kMaxSliceBytes);
  for (size_t k = 0; k < edges.size(); ++k) {
    EXPECT_EQ(pool.Allocate(edges[k]).capacity(), edges[k]) << edges[k];
    if (k + 1 < edges.size()) {
      const size_t above = edges[k] + 1;
      const size_t capacity = pool.Allocate(above).capacity();
      EXPECT_EQ(capacity, edges[k + 1]) << above;
      EXPECT_LT(capacity * 4, above * 5) << above;
    }
  }
}

TEST(SlabPool, OversizeFallsBackToHeapAndIsNeverRecycled) {
  SlabPool pool;
  const size_t big = SlabPool::kMaxSliceBytes + 1;
  {
    SlabPool::Slice s = pool.Allocate(big);
    ASSERT_TRUE(s);
    EXPECT_EQ(s.capacity(), big);  // exact, not a class
    EXPECT_EQ(s.size(), big);
    s.data()[big - 1] = 0x5A;
    EXPECT_EQ(pool.Stats().oversize, 1u);
    EXPECT_EQ(pool.Stats().bytes_in_use, big);
  }
  EXPECT_EQ(pool.Stats().live_slices, 0u);
  SlabPool::Slice again = pool.Allocate(big);
  EXPECT_EQ(pool.Stats().recycles, 0u);  // heap fallback, no free list
  EXPECT_EQ(pool.Stats().oversize, 2u);
}

TEST(SlabPool, SetSizeWithinCapacity) {
  SlabPool pool;
  SlabPool::Slice s = pool.Allocate(10);
  EXPECT_EQ(s.size(), 10u);
  s.set_size(60);
  EXPECT_EQ(s.size(), 60u);
  EXPECT_EQ(s.capacity(), 64u);
}

TEST(SlabPool, CopySharesBytesAndLastDropRecycles) {
  SlabPool pool;
  SlabPool::Slice a = pool.Allocate(100);
  std::memset(a.data(), 0x42, a.size());
  const uint8_t* payload = a.data();

  SlabPool::Slice b = a;  // refcount 2
  EXPECT_EQ(b.data(), payload);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(pool.Stats().live_slices, 1u);  // one slice, two handles

  a.Reset();
  EXPECT_FALSE(a);
  // The surviving handle still owns live bytes.
  EXPECT_EQ(pool.Stats().live_slices, 1u);
  EXPECT_EQ(b.data()[50], 0x42);

  b.Reset();
  EXPECT_EQ(pool.Stats().live_slices, 0u);
  EXPECT_EQ(pool.Stats().bytes_in_use, 0u);

  // The freed slice recycles: same class comes back from the free list
  // (same thread -> same stripe).
  SlabPool::Slice c = pool.Allocate(100);
  EXPECT_GE(pool.Stats().recycles, 1u);
}

TEST(SlabPool, MoveTransfersOwnershipWithoutRefcountChurn) {
  SlabPool pool;
  SlabPool::Slice a = pool.Allocate(300);
  const uint8_t* payload = a.data();
  SlabPool::Slice b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): post-move null is API
  EXPECT_EQ(b.data(), payload);
  EXPECT_EQ(pool.Stats().live_slices, 1u);
  b = SlabPool::Slice();
  EXPECT_EQ(pool.Stats().live_slices, 0u);
}

TEST(SlabPool, CrossThreadReleaseReturnsSliceToOwningStripe) {
  SlabPool pool;
  SlabPool::Slice s = pool.Allocate(1024);
  std::memset(s.data(), 7, s.size());
  // The I/O-thread pattern: the slice is handed to another thread (the
  // write queue's flush) which drops the last reference there.
  std::thread t([moved = std::move(s)]() mutable { moved.Reset(); });
  t.join();
  EXPECT_EQ(pool.Stats().live_slices, 0u);
  // The recycled slice is reachable again from the allocating thread.
  SlabPool::Slice again = pool.Allocate(1024);
  ASSERT_TRUE(again);
  EXPECT_GE(pool.Stats().recycles, 1u);
}

TEST(SlabPool, DistinctLiveSlicesDoNotAlias) {
  SlabPool pool;
  std::vector<SlabPool::Slice> live;
  std::set<const uint8_t*> starts;
  for (int i = 0; i < 64; ++i) {
    SlabPool::Slice s = pool.Allocate(256);
    std::memset(s.data(), i, s.size());
    starts.insert(s.data());
    live.push_back(std::move(s));
  }
  EXPECT_EQ(starts.size(), live.size());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(live[i].data()[0], i);
    EXPECT_EQ(live[i].data()[255], i);
  }
  EXPECT_EQ(pool.Stats().live_slices, 64u);
  EXPECT_EQ(pool.Stats().bytes_in_use, 64u * 256u);
}

TEST(SlabPool, StatsSnapshotCounts) {
  SlabPool pool;
  const SlabPool::StatsSnapshot before = pool.Stats();
  EXPECT_EQ(before.allocations, 0u);

  { SlabPool::Slice a = pool.Allocate(500); }
  { SlabPool::Slice b = pool.Allocate(500); }  // recycled from a's release
  SlabPool::Slice c = pool.Allocate(2000);

  const SlabPool::StatsSnapshot after = pool.Stats();
  EXPECT_EQ(after.allocations, 3u);
  EXPECT_GE(after.recycles, 1u);
  EXPECT_EQ(after.live_slices, 1u);
  EXPECT_EQ(after.bytes_in_use, 2048u);
}

TEST(SlabPool, GlobalIsASingleton) {
  SlabPool& a = SlabPool::Global();
  SlabPool& b = SlabPool::Global();
  EXPECT_EQ(&a, &b);
  SlabPool::Slice s = a.Allocate(64);
  EXPECT_TRUE(s);
}

TEST(SlabPool, ConcurrentAllocateReleaseIsCoherent) {
  SlabPool pool(4);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(t);
      auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
      };
      std::vector<SlabPool::Slice> held;
      for (int i = 0; i < kIters; ++i) {
        const size_t n = 1 + next() % 5000;
        SlabPool::Slice s = pool.Allocate(n);
        ASSERT_TRUE(s);
        ASSERT_GE(s.capacity(), n);
        s.data()[0] = static_cast<uint8_t>(t);
        s.data()[n - 1] = static_cast<uint8_t>(i);
        if (next() % 3 == 0) held.push_back(std::move(s));
        if (held.size() > 16) held.erase(held.begin());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(pool.Stats().live_slices, 0u);
  EXPECT_EQ(pool.Stats().bytes_in_use, 0u);
  EXPECT_EQ(pool.Stats().allocations,
            static_cast<uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace mds
