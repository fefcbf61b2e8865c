// White-box tests for the real-memory backing and the real-threads
// allocator's real mode: here the addresses are dereferenceable, so the
// tests write through every object they get, the freelists thread through
// the object storage they exercise, and ReleaseMemoryToSystem performs a
// real madvise. The virtual mode's bit-identity is guarded elsewhere
// (tests/shim/check_bit_identity.py); this file proves the other half of
// the seam actually works as memory.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "tcmalloc/config.h"
#include "tcmalloc/memory_backing.h"
#include "tcmalloc/pages.h"
#include "tcmalloc/real_threads.h"
#include "tcmalloc/size_classes.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {
namespace {

AllocatorConfig RealConfig() {
  return AllocatorConfig::Builder()
      .WithVcpus(4)
      .WithRealMemory()
      .Build();
}

double Metric(const telemetry::Snapshot& snap, const char* component,
              const char* name) {
  const telemetry::MetricSample* sample = snap.Find(component, name);
  return sample != nullptr ? sample->ScalarValue() : -1.0;
}

// ---- ReleasedRangeSet: the dedupe that keeps release accounting honest.

TEST(ReleasedRangeSetTest, AddDedupesOverlaps) {
  ReleasedRangeSet set;
  EXPECT_EQ(set.Add(0x1000, 0x1000), 0x1000u);
  // Re-releasing the same range is not new.
  EXPECT_EQ(set.Add(0x1000, 0x1000), 0u);
  // Partial overlap counts only the fresh part.
  EXPECT_EQ(set.Add(0x1800, 0x1000), 0x800u);
  EXPECT_EQ(set.total_bytes(), 0x1800u);
}

TEST(ReleasedRangeSetTest, RemoveSplitsRuns) {
  ReleasedRangeSet set;
  set.Add(0x1000, 0x3000);
  // Carve the middle out: the run splits in two.
  EXPECT_EQ(set.Remove(0x2000, 0x1000), 0x1000u);
  EXPECT_EQ(set.total_bytes(), 0x2000u);
  // Removing an uncovered range is a no-op.
  EXPECT_EQ(set.Remove(0x2000, 0x1000), 0u);
  // The two halves are still marked.
  EXPECT_EQ(set.Add(0x1000, 0x1000), 0u);
  EXPECT_EQ(set.Add(0x3000, 0x1000), 0u);
}

// ---- RealMemoryBacking: a real mmap reservation.

TEST(RealMemoryBackingTest, ReservesWritableHugepageAlignedMemory) {
  RealMemoryBacking backing(RealMemoryBacking::kMinReserveBytes);
  ASSERT_TRUE(backing.ok());
  EXPECT_EQ(backing.base() % kHugePageSize, 0u);
  EXPECT_GE(backing.reserved_bytes(), RealMemoryBacking::kMinReserveBytes);
  EXPECT_EQ(backing.kind(), BackendKind::kRealMemory);

  uintptr_t hp = backing.MapHugePages(2);
  ASSERT_NE(hp, 0u);
  EXPECT_EQ(hp % kHugePageSize, 0u);
  // The point of the real backing: this memory is real.
  std::memset(reinterpret_cast<void*>(hp), 0xAB, 2 * kHugePageSize);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(hp)[kHugePageSize], 0xAB);
}

TEST(RealMemoryBackingTest, ReleaseZeroesAndDedupes) {
  RealMemoryBacking backing(RealMemoryBacking::kMinReserveBytes);
  ASSERT_TRUE(backing.ok());
  uintptr_t hp = backing.MapHugePages(1);
  ASSERT_NE(hp, 0u);
  unsigned char* mem = reinterpret_cast<unsigned char*>(hp);
  std::memset(mem, 0xCD, kHugePageSize);

  EXPECT_EQ(backing.Release(hp, kHugePageSize), kHugePageSize);
  // Releasing again confirms nothing new.
  EXPECT_EQ(backing.Release(hp, kHugePageSize), 0u);
  // MADV_DONTNEED refaults as zero.
  EXPECT_EQ(mem[0], 0);
  EXPECT_EQ(mem[kHugePageSize - 1], 0);

  backing.Commit(hp, kHugePageSize);
  EXPECT_EQ(backing.stats().recommitted_bytes, kHugePageSize);
  // Post-commit the full range releases fresh again.
  EXPECT_EQ(backing.Release(hp, kHugePageSize), kHugePageSize);
}

// ---- Real-threads allocator in real mode.

TEST(RealMemoryModeTest, BackendKindAndSmallRoundTrip) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  EXPECT_EQ(alloc.backend_kind(), BackendKind::kRealMemory);
  ASSERT_NE(alloc.backing(), nullptr);
  RealThreadCache* tc = alloc.RegisterThread();

  uintptr_t p = alloc.Allocate(tc, 48);
  ASSERT_NE(p, 0u);
  EXPECT_TRUE(alloc.Owns(p));
  // Writable, and UsableSize reports the full class capacity.
  std::memset(reinterpret_cast<void*>(p), 0x5A, 48);
  size_t usable = alloc.UsableSize(p);
  EXPECT_GE(usable, 48u);
  EXPECT_EQ(usable, SizeClasses::Default().class_size(
                        SizeClasses::Default().ClassFor(48)));
  alloc.Free(tc, p, 48);
  // The freed object comes straight back off the intrusive list.
  EXPECT_EQ(alloc.Allocate(tc, 48), p);
  alloc.Free(tc, p, 48);
}

TEST(RealMemoryModeTest, FreeAddrRecoversSizeFromDirectory) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();

  // Small: unsized free must route to the same class list as a sized one.
  uintptr_t small = alloc.Allocate(tc, 128);
  ASSERT_NE(small, 0u);
  alloc.FreeAddr(tc, small);
  EXPECT_EQ(alloc.Allocate(tc, 128), small);

  // Large: the directory holds the page count.
  constexpr size_t kLargeBytes = 1 << 20;
  uintptr_t large = alloc.Allocate(tc, kLargeBytes);
  ASSERT_NE(large, 0u);
  EXPECT_EQ(alloc.UsableSize(large), kLargeBytes);
  std::memset(reinterpret_cast<void*>(large), 0x77, kLargeBytes);
  alloc.FreeAddr(tc, large);
  EXPECT_EQ(alloc.UsableSize(large), 0u);
  // Unknown/middle-of-range addresses are ignored, not fatal.
  alloc.FreeAddr(tc, large + 3 * kPageSize);

  alloc.Free(tc, small, 128);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
}

TEST(RealMemoryModeTest, LargeRangesAreReused) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  constexpr size_t kBytes = 4 << 20;

  uintptr_t a = alloc.Allocate(tc, kBytes);
  ASSERT_NE(a, 0u);
  alloc.Free(tc, a, kBytes);
  // Same size comes back from the pending list, not a fresh carve.
  EXPECT_EQ(alloc.Allocate(tc, kBytes), a);
  alloc.Free(tc, a, kBytes);
  // A smaller request splits the range from the front.
  uintptr_t b = alloc.Allocate(tc, kBytes / 2);
  EXPECT_EQ(b, a);
  uintptr_t c = alloc.Allocate(tc, kBytes / 2);
  EXPECT_EQ(c, a + kBytes / 2);
  alloc.Free(tc, b, kBytes / 2);
  alloc.Free(tc, c, kBytes / 2);
}

TEST(RealMemoryModeTest, AlignedAllocationSweep) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  std::vector<std::pair<uintptr_t, size_t>> live;
  for (size_t align = 8; align <= (size_t{4} << 20); align <<= 1) {
    for (size_t size : {size_t{1}, size_t{64}, size_t{4096},
                        size_t{300000}}) {
      uintptr_t p = alloc.AllocateAligned(tc, size, align);
      ASSERT_NE(p, 0u) << "align=" << align << " size=" << size;
      EXPECT_EQ(p % align, 0u) << "align=" << align << " size=" << size;
      EXPECT_GE(alloc.UsableSize(p), size);
      std::memset(reinterpret_cast<void*>(p), 0x11, size);
      live.push_back({p, size});
    }
  }
  for (auto [p, size] : live) alloc.FreeAddr(tc, p);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
}

TEST(RealMemoryModeTest, ReleaseMemoryToSystemMadvisesPendingRanges) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  constexpr size_t kBytes = 8 << 20;

  uintptr_t p = alloc.Allocate(tc, kBytes);
  ASSERT_NE(p, 0u);
  unsigned char* mem = reinterpret_cast<unsigned char*>(p);
  std::memset(mem, 0xEE, kBytes);
  alloc.Free(tc, p, kBytes);

  size_t released = alloc.ReleaseMemoryToSystem(kBytes);
  EXPECT_GT(released, 0u);
  // The whole range, first page included: no freed byte holds metadata.
  EXPECT_EQ(released, kBytes);
  // Really gone: refaults zero.
  EXPECT_EQ(mem[0], 0);
  EXPECT_EQ(mem[kPageSize], 0);
  EXPECT_EQ(mem[kBytes - 1], 0);
  // Releasing again finds nothing new.
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(kBytes), 0u);

  // The released range is still reusable.
  uintptr_t q = alloc.Allocate(tc, kBytes);
  EXPECT_EQ(q, p);
  std::memset(mem, 0xEF, kBytes);
  alloc.Free(tc, q, kBytes);
}

TEST(RealMemoryModeTest, VirtualModeReleaseIsZero) {
  AllocatorConfig config = AllocatorConfig::Builder().WithVcpus(2).Build();
  RealThreadsAllocator alloc(config, 1);
  EXPECT_EQ(alloc.backend_kind(), BackendKind::kVirtualArena);
  EXPECT_EQ(alloc.backing(), nullptr);
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(~size_t{0}), 0u);
  EXPECT_FALSE(alloc.Owns(config.arena_base));
}

// A producer/consumer storm over real memory: every object is written
// through, conservation must hold, and the intrusive lists must survive
// cross-thread frees. This is the real-mode twin of the virtual storm in
// real_threads_test.cc.
TEST(RealMemoryModeTest, CrossThreadStormConservesObjects) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  RealThreadsAllocator alloc(RealConfig(), kThreads);

  std::vector<std::thread> workers;
  std::vector<std::vector<std::pair<uintptr_t, size_t>>> handoff(kThreads);
  std::mutex handoff_mu;
  std::atomic<uint64_t> write_check{0};

  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      RealThreadCache* tc = alloc.RegisterThread();
      uint64_t seed = 0x9E3779B97F4A7C15ull * (t + 1);
      std::vector<std::pair<uintptr_t, size_t>> mine;
      for (int op = 0; op < kOpsPerThread; ++op) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        size_t size = 8 + (seed >> 33) % 1024;
        uintptr_t p = alloc.Allocate(tc, size);
        ASSERT_NE(p, 0u);
        *reinterpret_cast<uint64_t*>(p) = seed;
        write_check.fetch_add(seed, std::memory_order_relaxed);
        if ((seed & 3) == 0) {
          // Hand off to a sibling's pile: freed by another thread.
          std::lock_guard<std::mutex> guard(handoff_mu);
          handoff[(t + 1) % kThreads].push_back({p, size});
        } else {
          mine.push_back({p, size});
        }
        if (mine.size() > 64 || (op % 512) == 511) {
          for (auto [addr, sz] : mine) alloc.Free(tc, addr, sz);
          mine.clear();
          std::lock_guard<std::mutex> guard(handoff_mu);
          for (auto [addr, sz] : handoff[t]) alloc.Free(tc, addr, sz);
          handoff[t].clear();
        }
      }
      for (auto [addr, sz] : mine) alloc.Free(tc, addr, sz);
      std::lock_guard<std::mutex> guard(handoff_mu);
      for (auto [addr, sz] : handoff[t]) alloc.Free(tc, addr, sz);
      handoff[t].clear();
    });
  }
  for (auto& w : workers) w.join();

  // A worker can exit while a slower sibling is still pushing into its
  // handoff pile; drain the stragglers here (cross-thread frees from the
  // main thread are just as legal).
  RealThreadCache* main_tc = alloc.RegisterThread();
  for (auto& pile : handoff) {
    for (auto [addr, sz] : pile) alloc.Free(main_tc, addr, sz);
    pile.clear();
  }

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            static_cast<double>(kThreads) * kOpsPerThread);
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0.0);
  EXPECT_EQ(Metric(snap, "system", "reserved_bytes"),
            static_cast<double>(alloc.backing()->reserved_bytes()));
}

// ---- The coalescing large heap.

constexpr size_t kLargeUnit = size_t{512} << 10;  // above every size class

uint64_t Stamp(uintptr_t addr, size_t page) {
  return (addr * 0x9E3779B97F4A7C15ull) ^ page;
}

// Writes a stamp into the first word of every page of [addr, addr+bytes).
void StampRange(uintptr_t addr, size_t bytes) {
  for (size_t off = 0; off < bytes; off += kPageSize) {
    *reinterpret_cast<uint64_t*>(addr + off) = Stamp(addr, off);
  }
}

bool StampsIntact(uintptr_t addr, size_t bytes) {
  for (size_t off = 0; off < bytes; off += kPageSize) {
    if (*reinterpret_cast<uint64_t*>(addr + off) != Stamp(addr, off)) {
      return false;
    }
  }
  return true;
}

// The heap's invariants against the caller's view of the live ranges:
// free and live ranges never overlap, no two adjacent free ranges share a
// state (they would have merged), the pending gauge is the sum of the
// free ranges and the range gauge their count, and no free range start
// passes for a live block.
void ExpectHeapConsistent(RealThreadsAllocator& alloc,
                          const std::map<uintptr_t, size_t>& live) {
  std::vector<RealThreadsAllocator::LargeFreeRange> free_ranges =
      alloc.LargeFreeRanges();
  std::map<uintptr_t, size_t> all(live);
  size_t free_pages = 0;
  for (size_t i = 0; i < free_ranges.size(); ++i) {
    const auto& r = free_ranges[i];
    ASSERT_GT(r.pages, 0u);
    free_pages += r.pages;
    EXPECT_EQ(alloc.UsableSize(r.addr), 0u);
    ASSERT_TRUE(all.emplace(r.addr, r.pages << kPageShift).second);
    if (i > 0) {
      const auto& prev = free_ranges[i - 1];
      if (prev.addr + (prev.pages << kPageShift) == r.addr) {
        EXPECT_NE(prev.released, r.released)
            << "adjacent free ranges in one state at " << r.addr;
      }
    }
  }
  uintptr_t end = 0;
  for (auto [addr, bytes] : all) {
    ASSERT_LE(end, addr) << "overlapping ranges at " << addr;
    end = addr + bytes;
  }
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "large_pending_bytes"),
            static_cast<double>(free_pages << kPageShift));
  EXPECT_EQ(Metric(snap, "allocator", "large_free_ranges"),
            static_cast<double>(free_ranges.size()));
}

TEST(RealMemoryLargeHeapTest, ThreeNeighboursCoalesceInEveryOrder) {
  int order[3] = {0, 1, 2};
  do {
    RealThreadsAllocator alloc(RealConfig(), 1);
    RealThreadCache* tc = alloc.RegisterThread();
    uintptr_t blocks[3];
    for (uintptr_t& b : blocks) b = alloc.Allocate(tc, kLargeUnit);
    // A live block behind the three keeps them off the bump frontier.
    uintptr_t guard = alloc.Allocate(tc, kLargeUnit);
    ASSERT_EQ(blocks[1], blocks[0] + kLargeUnit);
    ASSERT_EQ(blocks[2], blocks[1] + kLargeUnit);
    ASSERT_EQ(guard, blocks[2] + kLargeUnit);
    for (int i : order) alloc.FreeAddr(tc, blocks[i]);

    std::vector<RealThreadsAllocator::LargeFreeRange> ranges =
        alloc.LargeFreeRanges();
    ASSERT_EQ(ranges.size(), 1u) << order[0] << order[1] << order[2];
    EXPECT_EQ(ranges[0].addr, blocks[0]);
    EXPECT_EQ(ranges[0].pages << kPageShift, 3 * kLargeUnit);
    EXPECT_FALSE(ranges[0].released);
    telemetry::Snapshot snap = alloc.TelemetrySnapshot();
    EXPECT_EQ(Metric(snap, "allocator", "large_coalesces"), 2.0);
    EXPECT_EQ(Metric(snap, "allocator", "large_free_ranges"), 1.0);
    // The merged range serves a request for all of it, at the same
    // address.
    EXPECT_EQ(alloc.Allocate(tc, 3 * kLargeUnit), blocks[0]);
    alloc.FreeAddr(tc, blocks[0]);
    alloc.FreeAddr(tc, guard);
  } while (std::next_permutation(order, order + 3));
}

TEST(RealMemoryLargeHeapTest, StaleAddressesInsideFreeRangesAreIgnored) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  uintptr_t a = alloc.Allocate(tc, 2 * kLargeUnit);
  uintptr_t guard = alloc.Allocate(tc, kLargeUnit);
  alloc.FreeAddr(tc, a);
  const uintptr_t last_page = a + 2 * kLargeUnit - kPageSize;
  for (int pass = 0; pass < 2; ++pass) {
    // The first page and the last page carry the free range's tags, the
    // pages between them nothing; none of them is a live block.
    for (uintptr_t stale : {a, a + 3 * kPageSize, last_page}) {
      EXPECT_EQ(alloc.UsableSize(stale), 0u);
      alloc.FreeAddr(tc, stale);
    }
    ASSERT_EQ(alloc.LargeFreeRanges().size(), 1u);
    EXPECT_EQ(alloc.LargeFreeRanges()[0].pages << kPageShift,
              2 * kLargeUnit);
    // Once more with the range released.
    alloc.ReleaseMemoryToSystem(~size_t{0});
  }
  alloc.FreeAddr(tc, guard);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"), 2.0);
  EXPECT_EQ(Metric(snap, "allocator", "frees"), 2.0);
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0.0);
}

TEST(RealMemoryLargeHeapTest, AlignedRequestSplitsHeadAndTail) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  // 40 pages, then a 64-page block that starts 40 pages into a hugepage
  // (the reservation base is hugepage-aligned), then a guard.
  uintptr_t lead = alloc.Allocate(tc, 40 * kPageSize);
  uintptr_t block = alloc.Allocate(tc, 64 * kPageSize);
  uintptr_t guard = alloc.Allocate(tc, kLargeUnit);
  ASSERT_EQ(lead % kHugePageSize, 0u);
  ASSERT_EQ(block, lead + 40 * kPageSize);
  alloc.FreeAddr(tc, block);

  // 16 pages at a 32-page alignment land 24 pages into the free range:
  // a 24-page head and a 24-page tail stay free.
  constexpr size_t kAlign = 32 * kPageSize;
  uintptr_t p = alloc.AllocateAligned(tc, 16 * kPageSize, kAlign);
  EXPECT_EQ(p, lead + 64 * kPageSize);
  EXPECT_EQ(p % kAlign, 0u);
  EXPECT_EQ(alloc.UsableSize(p), 16 * kPageSize);
  std::vector<RealThreadsAllocator::LargeFreeRange> ranges =
      alloc.LargeFreeRanges();
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].addr, block);
  EXPECT_EQ(ranges[0].pages, 24u);
  EXPECT_EQ(ranges[1].addr, p + 16 * kPageSize);
  EXPECT_EQ(ranges[1].pages, 24u);

  // Freeing it merges all three back into the original range.
  alloc.FreeAddr(tc, p);
  ranges = alloc.LargeFreeRanges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].addr, block);
  EXPECT_EQ(ranges[0].pages, 64u);
  alloc.FreeAddr(tc, lead);
  alloc.FreeAddr(tc, guard);
}

TEST(RealMemoryLargeHeapTest, InPlaceResizeKeepsContents) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  // Carved first, so its span does not land behind the large blocks.
  uintptr_t small = alloc.Allocate(tc, 64);
  uintptr_t a = alloc.Allocate(tc, kLargeUnit);
  uintptr_t b = alloc.Allocate(tc, kLargeUnit);
  uintptr_t guard = alloc.Allocate(tc, kLargeUnit);
  ASSERT_EQ(b, a + kLargeUnit);
  StampRange(a, kLargeUnit);
  alloc.FreeAddr(tc, b);

  // Grow into half of the free successor: same address, contents kept,
  // the other half stays free.
  ASSERT_TRUE(alloc.ResizeLargeInPlace(tc, a, kLargeUnit + kLargeUnit / 2));
  EXPECT_EQ(alloc.UsableSize(a), kLargeUnit + kLargeUnit / 2);
  EXPECT_TRUE(StampsIntact(a, kLargeUnit));
  ASSERT_EQ(alloc.LargeFreeRanges().size(), 1u);
  EXPECT_EQ(alloc.LargeFreeRanges()[0].addr,
            a + kLargeUnit + kLargeUnit / 2);
  StampRange(a, kLargeUnit + kLargeUnit / 2);

  // More than the successor holds, with a live block behind it: refused,
  // nothing changes.
  EXPECT_FALSE(alloc.ResizeLargeInPlace(tc, a, 3 * kLargeUnit));
  EXPECT_EQ(alloc.UsableSize(a), kLargeUnit + kLargeUnit / 2);
  // A size a class serves, a small object and an interior address are
  // not for this path.
  EXPECT_FALSE(alloc.ResizeLargeInPlace(tc, a, 1024));
  EXPECT_FALSE(alloc.ResizeLargeInPlace(tc, small, kLargeUnit));
  EXPECT_FALSE(alloc.ResizeLargeInPlace(tc, a + kPageSize, kLargeUnit));

  // Shrink: the tail merges with the free range behind it.
  ASSERT_TRUE(alloc.ResizeLargeInPlace(tc, a, kLargeUnit / 2 + 1));
  EXPECT_EQ(alloc.UsableSize(a), kLargeUnit / 2 + kPageSize);
  EXPECT_TRUE(StampsIntact(a, kLargeUnit / 2));
  ASSERT_EQ(alloc.LargeFreeRanges().size(), 1u);
  EXPECT_EQ(alloc.LargeFreeRanges()[0].addr, a + kLargeUnit / 2 + kPageSize);

  // The last block before the bump frontier grows from the frontier.
  StampRange(guard, kLargeUnit);
  ASSERT_TRUE(alloc.ResizeLargeInPlace(tc, guard, 4 * kLargeUnit));
  EXPECT_TRUE(StampsIntact(guard, kLargeUnit));
  EXPECT_EQ(alloc.ArenaUsedBytes(),
            guard + 4 * kLargeUnit - alloc.backing()->base());

  alloc.FreeAddr(tc, a);
  alloc.FreeAddr(tc, guard);
  alloc.FreeAddr(tc, small);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "large_inplace_resizes"), 3.0);
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0.0);
}

TEST(RealMemoryLargeHeapTest, CallocSkipsMemsetOnlyOnUntouchedRanges) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  constexpr size_t kBytes = 3 * kLargeUnit;
  bool known_zero = false;
  // Fresh from the frontier: zero.
  uintptr_t p = alloc.AllocateForCalloc(tc, kBytes, &known_zero);
  EXPECT_TRUE(known_zero);
  uintptr_t guard = alloc.Allocate(tc, kLargeUnit);
  std::memset(reinterpret_cast<void*>(p), 0xAB, kBytes);
  alloc.FreeAddr(tc, p);
  // Freed but resident: the caller must clear it.
  EXPECT_EQ(alloc.AllocateForCalloc(tc, kBytes, &known_zero), p);
  EXPECT_FALSE(known_zero);
  alloc.FreeAddr(tc, p);
  // Released whole: zero without a memset, every byte.
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(~size_t{0}), kBytes);
  EXPECT_EQ(alloc.AllocateForCalloc(tc, kBytes, &known_zero), p);
  EXPECT_TRUE(known_zero);
  const unsigned char* mem = reinterpret_cast<const unsigned char*>(p);
  for (size_t i = 0; i < kBytes; ++i) ASSERT_EQ(mem[i], 0) << i;
  // Small classes are never known zero.
  uintptr_t small = alloc.AllocateForCalloc(tc, 100, &known_zero);
  EXPECT_FALSE(known_zero);
  alloc.FreeAddr(tc, small);
  alloc.FreeAddr(tc, p);
  alloc.FreeAddr(tc, guard);
}

// A seeded stream of small and large operations checked against a
// reference map of the live blocks, with the heap's invariants checked as
// it goes: spans and large ranges share the page heap, so no free range
// may overlap a live small object either.
TEST(RealMemoryLargeHeapTest, RandomOpsMatchReferenceIntervals) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  // A low eager-release watermark, so frees release (and merge released
  // ranges) too.
  alloc.SetLargeReleaseThreshold(size_t{16} << 20);
  RealThreadCache* tc = alloc.RegisterThread();
  std::mt19937_64 rng(20240427);
  std::map<uintptr_t, size_t> live;  // addr -> usable bytes
  auto pick = [&]() {
    auto it = live.begin();
    std::advance(it, rng() % live.size());
    return it;
  };
  for (int op = 0; op < 3000; ++op) {
    const int kind = static_cast<int>(rng() % 100);
    if (live.empty() || (kind < 40 && live.size() < 96)) {
      const bool small = rng() % 2 == 0;
      size_t size = small ? 1 + rng() % kMaxSmallSize
                          : kMaxSmallSize + 1 + rng() % (size_t{2} << 20);
      bool known_zero = false;
      uintptr_t p;
      switch (rng() % 4) {
        case 0:
          p = alloc.AllocateAligned(tc, size, size_t{16384} << (rng() % 4));
          break;
        case 1:
          p = alloc.AllocateForCalloc(tc, size, &known_zero);
          break;
        default:
          p = alloc.Allocate(tc, size);
      }
      ASSERT_NE(p, 0u);
      size_t usable = alloc.UsableSize(p);
      ASSERT_GE(usable, size);
      if (known_zero) {
        for (size_t off = 0; off < usable; off += 4096) {
          ASSERT_EQ(*reinterpret_cast<uint64_t*>(p + off), 0u) << off;
        }
      }
      StampRange(p, usable);
      ASSERT_TRUE(live.emplace(p, usable).second);
    } else if (kind < 75) {
      auto it = pick();
      ASSERT_TRUE(StampsIntact(it->first, it->second));
      // A sized free names the usable size, which is only unambiguous
      // above the classes: an aligned small request may hold whole pages.
      if (rng() % 2 || it->second <= kMaxSmallSize) {
        alloc.FreeAddr(tc, it->first);
      } else {
        alloc.Free(tc, it->first, it->second);
      }
      live.erase(it);
    } else if (kind < 92) {
      auto it = pick();
      size_t size = kMaxSmallSize + 1 + rng() % (size_t{3} << 20);
      if (alloc.ResizeLargeInPlace(tc, it->first, size)) {
        size_t usable = alloc.UsableSize(it->first);
        ASSERT_EQ(usable, LengthToBytes(BytesToLengthCeil(size)));
        ASSERT_TRUE(StampsIntact(it->first, std::min(usable, it->second)));
        it->second = usable;
        StampRange(it->first, usable);
      }
    } else {
      alloc.ReleaseMemoryToSystem(rng() % (size_t{8} << 20));
    }
    if (op % 50 == 49) ExpectHeapConsistent(alloc, live);
    if (HasFatalFailure()) return;
  }
  for (auto [addr, bytes] : live) {
    ASSERT_TRUE(StampsIntact(addr, bytes));
    alloc.FreeAddr(tc, addr);
  }
  live.clear();
  ExpectHeapConsistent(alloc, live);
  // With the cache flushed, release returns every span too.
  alloc.FlushThreadCache(tc);
  alloc.ReleaseMemoryToSystem(~size_t{0});
  ExpectHeapConsistent(alloc, live);
  for (const auto& r : alloc.LargeFreeRanges()) EXPECT_TRUE(r.released);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0.0);
  EXPECT_GT(Metric(snap, "allocator", "large_coalesces"), 0.0);
  EXPECT_GT(Metric(snap, "allocator", "large_inplace_resizes"), 0.0);
  EXPECT_GT(Metric(snap, "sharded_cfl", "returned_spans"), 0.0);
  EXPECT_EQ(Metric(snap, "sharded_cfl", "spans"), 0.0);
  EXPECT_EQ(alloc.FootprintBytes(), 0u);
}

// Four threads allocating, resizing, releasing and freeing large blocks,
// a quarter of them freed by another thread.
TEST(RealMemoryLargeHeapTest, FourThreadLargeStorm) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;
  RealThreadsAllocator alloc(RealConfig(), kThreads);
  alloc.SetLargeReleaseThreshold(size_t{32} << 20);
  std::vector<std::pair<uintptr_t, uint64_t>> piles[kThreads];
  std::mutex piles_mu;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      RealThreadCache* tc = alloc.RegisterThread();
      std::mt19937_64 rng(7 + t);
      std::vector<std::pair<uintptr_t, uint64_t>> mine;
      auto check_and_free = [&](uintptr_t p, uint64_t tag) {
        EXPECT_EQ(*reinterpret_cast<uint64_t*>(p), tag);
        alloc.FreeAddr(tc, p);
      };
      for (int op = 0; op < kOpsPerThread; ++op) {
        uint64_t r = rng();
        if (mine.size() < 8 || r % 3 == 0) {
          size_t size = kMaxSmallSize + 1 + r % (size_t{1} << 20);
          uintptr_t p = alloc.Allocate(tc, size);
          ASSERT_NE(p, 0u);
          *reinterpret_cast<uint64_t*>(p) = r;
          std::memcpy(reinterpret_cast<void*>(p + size - 8), &r, 8);
          if (r % 4 == 0) {
            std::lock_guard<std::mutex> guard(piles_mu);
            piles[(t + 1) % kThreads].push_back({p, r});
          } else {
            mine.push_back({p, r});
          }
        } else if (r % 3 == 1) {
          auto [p, tag] = mine.back();
          mine.pop_back();
          check_and_free(p, tag);
        } else {
          auto [p, tag] = mine[r % mine.size()];
          alloc.ResizeLargeInPlace(
              tc, p, kMaxSmallSize + 1 + (r >> 20) % (size_t{2} << 20));
          EXPECT_EQ(*reinterpret_cast<uint64_t*>(p), tag);
        }
        if (op % 100 == 99) {
          alloc.ReleaseMemoryToSystem(size_t{4} << 20);
          std::vector<std::pair<uintptr_t, uint64_t>> handed;
          {
            std::lock_guard<std::mutex> guard(piles_mu);
            handed.swap(piles[t]);
          }
          for (auto [p, tag] : handed) check_and_free(p, tag);
        }
      }
      for (auto [p, tag] : mine) check_and_free(p, tag);
    });
  }
  for (auto& w : workers) w.join();
  RealThreadCache* main_tc = alloc.RegisterThread();
  for (auto& pile : piles) {
    for (auto [p, tag] : pile) alloc.FreeAddr(main_tc, p);
  }
  ExpectHeapConsistent(alloc, {});
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0.0);
}

// ---- The span-owning central free list.

// The first size class whose span has at least `min_pages` pages and
// `min_objects` objects.
int ClassWithSpan(size_t min_pages, int min_objects) {
  const SizeClasses& sc = SizeClasses::Default();
  for (int cls = 0; cls < sc.num_classes(); ++cls) {
    if (static_cast<size_t>(sc.pages_per_span(cls)) >= min_pages &&
        sc.objects_per_span(cls) >= min_objects) {
      return cls;
    }
  }
  return -1;
}

TEST(RealMemorySpanTest, EmptySpanGoesBackToThePageHeap) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  const SizeClasses& sc = SizeClasses::Default();
  const int cls = ClassWithSpan(2, 4);
  ASSERT_GE(cls, 0);
  const size_t size = sc.class_size(cls);
  const size_t span_bytes = LengthToBytes(sc.pages_per_span(cls));
  const uintptr_t base = alloc.backing()->base();

  // Every object of the first span, which the fresh reservation puts at
  // its base (refills drain the fuller span first); the last refill may
  // take a second span for the cache.
  std::vector<uintptr_t> objs;
  for (int i = 0; i < sc.objects_per_span(cls); ++i) {
    uintptr_t p = alloc.Allocate(tc, size);
    ASSERT_GE(p, base);
    ASSERT_LE(p + size, base + span_bytes);
    ASSERT_EQ((p - base) % size, 0u);
    std::memset(reinterpret_cast<void*>(p), 0x3C, size);
    objs.push_back(p);
  }
  std::sort(objs.begin(), objs.end());
  ASSERT_EQ(std::unique(objs.begin(), objs.end()), objs.end());
  // A live block behind the spans keeps them off the bump frontier.
  const uintptr_t guard = alloc.Allocate(tc, kLargeUnit);
  const size_t span_pages = (guard - base) >> kPageShift;
  ASSERT_GE(guard, base + span_bytes);

  for (uintptr_t p : objs) alloc.Free(tc, p, size);
  alloc.FlushThreadCache(tc);
  // A zero-byte release still drains the transfer shards.
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(0), 0u);
  std::vector<RealThreadsAllocator::LargeFreeRange> ranges =
      alloc.LargeFreeRanges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].addr, base);
  EXPECT_EQ(ranges[0].pages, span_pages);
  EXPECT_FALSE(ranges[0].released);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "sharded_cfl", "spans"), 0.0);
  EXPECT_EQ(Metric(snap, "sharded_cfl", "returned_spans"),
            static_cast<double>(span_pages * kPageSize / span_bytes));
  EXPECT_EQ(Metric(snap, "allocator", "carved_objects"), 0.0);
  EXPECT_EQ(Metric(snap, "allocator", "cached_objects"), 0.0);

  // Its bytes are released whole, and stale pointers into it, on its
  // first page or later ones, are no blocks: before and after release.
  for (int pass = 0; pass < 2; ++pass) {
    for (uintptr_t p : objs) {
      EXPECT_EQ(alloc.UsableSize(p), 0u);
      alloc.FreeAddr(tc, p);
    }
    if (pass == 0) {
      EXPECT_EQ(alloc.ReleaseMemoryToSystem(~size_t{0}),
                span_pages * kPageSize);
    }
  }
  ranges = alloc.LargeFreeRanges();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_TRUE(ranges[0].released);
  EXPECT_EQ(*reinterpret_cast<const uint64_t*>(objs.back()), 0u);
  alloc.FreeAddr(tc, guard);
  snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0.0);
}

TEST(RealMemorySpanTest, RefillTakesTheFullestSpanFirst) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  const SizeClasses& sc = SizeClasses::Default();
  const int cls = ClassWithSpan(1, 64);
  ASSERT_GE(cls, 0);
  const size_t size = sc.class_size(cls);
  const int per_span = sc.objects_per_span(cls);
  const size_t span_bytes = LengthToBytes(sc.pages_per_span(cls));
  const uintptr_t base = alloc.backing()->base();

  // Two spans' worth: span 0, then span 1, in address order.
  std::vector<uintptr_t> spans[2];
  for (int i = 0; i < 2 * per_span; ++i) {
    uintptr_t p = alloc.Allocate(tc, size);
    size_t span = (p - base) / span_bytes;
    ASSERT_LT(span, 2u);
    spans[span].push_back(p);
  }
  ASSERT_EQ(spans[0].size(), static_cast<size_t>(per_span));
  ASSERT_EQ(spans[1].size(), static_cast<size_t>(per_span));
  // Span 0 keeps all but one object out, span 1 only one.
  const uintptr_t from_full = spans[0][per_span / 2];
  alloc.Free(tc, from_full, size);
  for (int i = 1; i < per_span; ++i) alloc.Free(tc, spans[1][i], size);
  // Push the freed objects past the cache and the transfer shard onto
  // their spans.
  alloc.FlushThreadCache(tc);
  alloc.ReleaseMemoryToSystem(0);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "sharded_cfl", "spans"), 2.0);
  EXPECT_EQ(Metric(snap, "sharded_cfl", "free_objects"),
            static_cast<double>(per_span));

  // The next refill starts with the fuller span's one free object; a
  // front-of-list CFL would hand out span 1's.
  EXPECT_EQ(alloc.Allocate(tc, size), from_full);
  alloc.Free(tc, from_full, size);
  for (int i = 0; i < per_span; ++i) {
    if (spans[0][i] != from_full) alloc.Free(tc, spans[0][i], size);
  }
  alloc.Free(tc, spans[1][0], size);
  alloc.FlushThreadCache(tc);
  alloc.ReleaseMemoryToSystem(0);
  snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "sharded_cfl", "spans"), 0.0);
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
}

// Exhaustion with one class, then reuse by another: the spans the first
// class gave back serve the second, and exhaustion fails cleanly both
// times.
TEST(RealMemorySpanTest, AnotherClassReusesSpansAfterExhaustion) {
  AllocatorConfig config =
      AllocatorConfig::Builder()
          .WithVcpus(1)
          .WithRealMemory()
          .WithRealMemoryReserve(RealMemoryBacking::kMinReserveBytes)
          .Build();
  RealThreadsAllocator alloc(config, 1);
  RealThreadCache* tc = alloc.RegisterThread();
  // All but 8 MiB in one untouched block, so the small classes exhaust
  // the rest without faulting in the reservation.
  constexpr size_t kSmallRoom = size_t{8} << 20;
  const size_t reserved = alloc.backing()->reserved_bytes();
  const uintptr_t giant = alloc.Allocate(tc, reserved - kSmallRoom);
  ASSERT_NE(giant, 0u);

  std::vector<uintptr_t> first;
  for (;;) {
    uintptr_t p = alloc.Allocate(tc, 64);
    if (p == 0) break;
    first.push_back(p);
    ASSERT_LE(first.size(), kSmallRoom / 64);
  }
  EXPECT_GT(first.size() * 64, kSmallRoom / 2);
  EXPECT_EQ(alloc.Allocate(tc, 64), 0u);
  EXPECT_EQ(alloc.Allocate(tc, kLargeUnit), 0u);
  for (uintptr_t p : first) alloc.Free(tc, p, 64);
  alloc.FlushThreadCache(tc);

  std::vector<uintptr_t> second;
  for (;;) {
    uintptr_t p = alloc.Allocate(tc, 1000);
    if (p == 0) break;
    std::memset(reinterpret_cast<void*>(p), 0x5D, 1000);
    second.push_back(p);
    ASSERT_LE(second.size(), kSmallRoom / 1000);
  }
  // Nearly all of the room: only what the transfer shard keeps of the
  // first class is missing.
  EXPECT_GT(second.size() * 1024, kSmallRoom * 3 / 4);
  EXPECT_EQ(alloc.Allocate(tc, 1000), 0u);
  for (uintptr_t p : second) alloc.FreeAddr(tc, p);
  alloc.FreeAddr(tc, giant);
  alloc.FlushThreadCache(tc);
  alloc.ReleaseMemoryToSystem(~size_t{0});
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0.0);
  EXPECT_EQ(Metric(snap, "sharded_cfl", "spans"), 0.0);
  EXPECT_EQ(alloc.FootprintBytes(), 0u);
}

// Four threads allocating and freeing small objects, a quarter freed by
// another thread: once every cache is flushed and memory released, every
// span is back in the page heap and nothing is resident.
TEST(RealMemorySpanTest, FourThreadStormReturnsEverySpan) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  RealThreadsAllocator alloc(RealConfig(), kThreads);
  std::vector<std::pair<uintptr_t, uint64_t>> piles[kThreads];
  std::mutex piles_mu;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      RealThreadCache* tc = alloc.RegisterThread();
      std::mt19937_64 rng(11 + t);
      std::vector<std::pair<uintptr_t, uint64_t>> mine;
      auto check_and_free = [&](uintptr_t p, uint64_t tag) {
        EXPECT_EQ(*reinterpret_cast<uint64_t*>(p), tag);
        alloc.FreeAddr(tc, p);
      };
      for (int op = 0; op < kOpsPerThread; ++op) {
        uint64_t r = rng();
        if (mine.size() < 256 || r % 2 == 0) {
          uintptr_t p = alloc.Allocate(tc, 8 + r % 4096);
          ASSERT_NE(p, 0u);
          *reinterpret_cast<uint64_t*>(p) = r;
          if (r % 4 == 0) {
            std::lock_guard<std::mutex> guard(piles_mu);
            piles[(t + 1) % kThreads].push_back({p, r});
          } else {
            mine.push_back({p, r});
          }
        } else {
          size_t victim = r % mine.size();
          check_and_free(mine[victim].first, mine[victim].second);
          mine[victim] = mine.back();
          mine.pop_back();
        }
        if (op % 256 == 255) {
          std::vector<std::pair<uintptr_t, uint64_t>> handed;
          {
            std::lock_guard<std::mutex> guard(piles_mu);
            handed.swap(piles[t]);
          }
          for (auto [p, tag] : handed) check_and_free(p, tag);
        }
      }
      for (auto [p, tag] : mine) check_and_free(p, tag);
      alloc.FlushThreadCache(tc);
    });
  }
  for (auto& w : workers) w.join();
  RealThreadCache* main_tc = alloc.RegisterThread();
  for (auto& pile : piles) {
    for (auto [p, tag] : pile) alloc.FreeAddr(main_tc, p);
  }
  alloc.FlushThreadCache(main_tc);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "carved_objects"),
            Metric(snap, "allocator", "cached_objects"));

  const size_t footprint = alloc.FootprintBytes();
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(~size_t{0}), footprint);
  snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0.0);
  EXPECT_GT(Metric(snap, "sharded_cfl", "returned_spans"), 0.0);
  EXPECT_EQ(Metric(snap, "sharded_cfl", "spans"), 0.0);
  EXPECT_EQ(Metric(snap, "allocator", "carved_objects"), 0.0);
  EXPECT_EQ(Metric(snap, "allocator", "cached_objects"), 0.0);
  EXPECT_EQ(alloc.FootprintBytes(), 0u);
  for (const auto& r : alloc.LargeFreeRanges()) EXPECT_TRUE(r.released);
}

}  // namespace
}  // namespace wsc::tcmalloc
