// Real-threads execution mode (--exec=real-threads).
//
// The simulator's Allocator models concurrency with discrete-event virtual
// threads so every result is bit-identical; this file is the other half of
// the story: a real allocator front/middle end that OS threads hammer
// concurrently, so contention, cache-line traffic, and refill scalability
// are measured instead of modeled. It shares the size-class table and
// AllocatorConfig with the simulator but deliberately does NOT touch the
// simulated Allocator — the deterministic oracle stays byte-for-byte
// untouched (tools/check_determinism.sh enforces this).
//
// Design, shaped by two results from the literature (see DESIGN.md):
//
//  * The per-thread fast path is genuinely lock-free: each registered
//    thread owns a ThreadCache whose per-class freelists are plain
//    push/pop — no atomics, no fences on the hit path — and size-class
//    lookup is the branch-free flat LUT in SizeClasses::ClassFor.
//
//  * Replenishment is sharded end to end. SNIPPETS.md Snippet 1
//    (AllocatorBench) documents the trap where sharding only the
//    size-class freelist locks moves the bottleneck to a global refill
//    lock and scaling stays flat. Here BOTH the transfer cache and the
//    CFL-equivalent free store are sharded by (size class x shard), a
//    miss on the home shard work-steals from sibling shards before
//    carving fresh address space, and the final carve is a single
//    atomic fetch_add on the arena bump pointer — there is no global
//    lock anywhere on the refill path.
//
//  * Every hot per-thread / per-shard structure is alignas(64) so two
//    threads' hot state never share a cache line; static_asserts below
//    (duplicated in tools/check_alignment.cc, compiled by CI) pin the
//    layout.
//
// Memory: two backings behind one seam (tcmalloc/memory_backing.h).
//
//  * Virtual (default): addresses come from a private range and are never
//    dereferenced, so a 4 TiB heap costs nothing and ASan/TSan see only
//    the allocator's own bookkeeping — which is precisely what the tests
//    need to race-check. Freelists are side-table vectors.
//
//  * Real (AllocatorConfig::Builder::WithRealMemory()): one contiguous
//    MAP_NORESERVE reservation, hinted MADV_HUGEPAGE. Freelists thread
//    through the objects themselves (the link is the object's first
//    word), a per-page atomic directory recovers size classes for the
//    malloc shim's unsized free/usable_size, and freed large ranges go
//    to a coalescing page-run heap whose metadata lives entirely outside
//    the freed memory (boundary tags in the directory, list links in a
//    side array). ReleaseMemoryToSystem() madvises whole free ranges back
//    to the OS. Exhaustion returns 0 (the shim turns that into ENOMEM)
//    instead of the virtual mode's CHECK.
//
// Telemetry: TelemetrySnapshot() exports "allocator", "thread_cache", and
// "contention" components (per-shard lock acquisitions, contended
// acquisitions, refill stalls, work steals, arena carves). It requires
// quiescence — call it after worker threads joined; the join gives the
// happens-before edge that makes the plain counter reads race-free.

#ifndef WSC_TCMALLOC_REAL_THREADS_H_
#define WSC_TCMALLOC_REAL_THREADS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "profiler/self_profiler.h"
#include "tcmalloc/config.h"
#include "tcmalloc/memory_backing.h"
#include "tcmalloc/pages.h"
#include "tcmalloc/size_classes.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {

// Cache-line size the false-sharing audit pins. 64 bytes on every x86 and
// most AArch64 parts; hot structs are aligned to it so concurrent writers
// never invalidate each other's lines.
inline constexpr size_t kCacheLineSize = 64;

// Test-and-test-and-set spinlock that counts its own traffic. The counters
// are written only while the lock is held (single writer at a time), so
// they need no atomics; reading them requires quiescence. Spins are
// bounded before yielding so oversubscribed runs (more threads than
// cores — e.g. a 1-core CI box) degrade to scheduling instead of burning
// a full quantum per acquisition.
class ContendedLock {
 public:
  void Lock() {
    bool contended = false;
    while (locked_.exchange(true, std::memory_order_acquire)) {
      contended = true;
      int spins = 0;
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins >= kSpinsBeforeYield) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
    ++acquisitions_;
    if (contended) ++contended_;
  }

  // Single attempt; used by the work-stealing probe so a busy sibling
  // shard is skipped instead of waited on.
  bool TryLock() {
    if (locked_.exchange(true, std::memory_order_acquire)) return false;
    ++acquisitions_;
    return true;
  }

  void Unlock() { locked_.store(false, std::memory_order_release); }

  // Quiescent reads (no concurrent holders).
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t contended() const { return contended_; }

 private:
  static constexpr int kSpinsBeforeYield = 64;

  std::atomic<bool> locked_{false};
  uint64_t acquisitions_ = 0;  // written under the lock
  uint64_t contended_ = 0;     // acquisitions that found the lock held
};

// One (size class x shard) slice of the transfer cache: a bounded stack of
// free objects batches move through between thread caches and the CFL
// store. All fields behind `lock`.
struct alignas(kCacheLineSize) TransferShard {
  ContendedLock lock;
  uint32_t capacity = 0;  // max cached objects; set at construction
  std::vector<uintptr_t> objects;  // virtual mode
  // Real mode: intrusive freelist threaded through object storage (the
  // link is the object's first word). `objects` stays empty.
  uintptr_t head = 0;
  uint32_t count = 0;

  uint64_t inserts = 0;
  uint64_t inserted_objects = 0;
  uint64_t insert_overflows = 0;  // inserts that spilled to the CFL shard
  uint64_t removes = 0;
  uint64_t removed_objects = 0;
  uint64_t remove_misses = 0;  // removes that found the shard empty
};

// One (size class x shard) slice of the central free store (the
// CFL-equivalent): the free objects of spans carved for this shard, plus
// the refill/steal/carve counters the "contention" component reports.
// All fields behind `lock` (stolen objects move victim->thief while both
// locks are held).
struct alignas(kCacheLineSize) CflShard {
  ContendedLock lock;
  std::vector<uintptr_t> free_objects;  // virtual mode
  // Real mode: intrusive freelist (see TransferShard).
  uintptr_t head = 0;
  uint32_t count = 0;

  uint64_t refills = 0;         // batch requests served
  uint64_t refill_stalls = 0;   // home shard could not cover the batch
  uint64_t steals = 0;          // successful cross-shard grabs
  uint64_t stolen_objects = 0;
  uint64_t steal_probes = 0;    // sibling shards probed (incl. failures)
  uint64_t carves = 0;          // fresh spans carved from the arena
  uint64_t carved_objects = 0;
};

// Per-thread cache: the lock-free fast path. Owned and written by exactly
// one thread between RegisterThread() and the thread's join; only the
// owner touches `lists` and the counters, so the hit path has no atomics
// at all. alignas keeps neighbouring caches off each other's lines.
class alignas(kCacheLineSize) RealThreadCache {
 public:
  struct ClassList {
    std::vector<uintptr_t> slots;  // virtual mode
    // Real mode: intrusive freelist threaded through the cached objects.
    uintptr_t head = 0;
    uint32_t count = 0;
    uint32_t cap = 0;  // per-class object cap (size_classes max_per_cpu)
  };

  int shard = 0;  // home (transfer, CFL) shard, assigned round-robin

  // Single-writer counters; read at quiescence by TelemetrySnapshot().
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t fast_alloc_hits = 0;
  uint64_t fast_free_hits = 0;
  uint64_t underflows = 0;  // allocs that took the slow path
  uint64_t overflows = 0;   // frees that took the slow path
  uint64_t large_allocations = 0;
  uint64_t large_frees = 0;
  // Net bytes this thread allocated minus bytes it freed; negative for
  // threads that mostly free others' objects. The fleet-wide sum is the
  // live heap.
  int64_t live_bytes = 0;

  std::vector<ClassList> lists;

  size_t CachedObjects() const {
    size_t n = 0;
    // Exactly one of slots / count is populated per mode, so summing both
    // is correct in either.
    for (const ClassList& list : lists) n += list.slots.size() + list.count;
    return n;
  }
};

// The real-threads allocator: one shared instance, N OS threads.
//
// Usage:
//   RealThreadsAllocator alloc(config, /*expected_threads=*/8);
//   // per thread:
//   RealThreadCache* tc = alloc.RegisterThread();
//   uintptr_t p = alloc.Allocate(tc, 48);
//   alloc.Free(tc, p, 48);           // sized free; any thread may free
//   // after joining all threads:
//   telemetry::Snapshot snap = alloc.TelemetrySnapshot();
//
// Frees are sized (the caller passes the request size back, as with
// C++ sized-delete) so the free path needs no pagemap lookup; the
// simulator's pagemap already models that cost and re-modeling it here
// would add a global radix tree to an otherwise sharded design.
class RealThreadsAllocator {
 public:
  // `expected_threads` sizes the shard count (min(expected, kMaxShards),
  // overridable via `num_shards` for tests). More shards than threads
  // buys nothing; fewer concentrates contention — which the telemetry
  // then shows.
  explicit RealThreadsAllocator(
      const AllocatorConfig& config, int expected_threads,
      const SizeClasses* size_classes = &SizeClasses::Default(),
      int num_shards = 0);

  ~RealThreadsAllocator();

  RealThreadsAllocator(const RealThreadsAllocator&) = delete;
  RealThreadsAllocator& operator=(const RealThreadsAllocator&) = delete;

  // Registers the calling thread and returns its cache. Cold path (global
  // mutex); call once per thread. The returned pointer stays valid for
  // the allocator's lifetime and must only be used by one thread at a
  // time.
  RealThreadCache* RegisterThread();

  // Returns every object cached by `tc` to the middle end. Must be called
  // by the owning thread or after it joined.
  void FlushThreadCache(RealThreadCache* tc);

  // Lock-free on the fast path: per-thread list hit costs a LUT load and
  // a pop (pop_back in virtual mode, one pointer chase in real mode).
  // `size` must be > 0. Real mode returns 0 on arena exhaustion; the
  // virtual arena CHECKs instead, so virtual callers never see 0.
  uintptr_t Allocate(RealThreadCache* tc, size_t size) {
    WSC_PROF_SCOPE("rt/Allocate");
    WSC_DCHECK_GT(size, size_t{0});
    int cls = size_classes_->ClassFor(size);
    if (cls >= 0) return AllocateClass(tc, cls);
    return AllocateLarge(tc, size);
  }

  // Allocates one object of exactly size class `cls` (the Allocate fast
  // path with the class lookup already done). The aligned-allocation path
  // uses this to request a class whose size is a multiple of the
  // alignment.
  uintptr_t AllocateClass(RealThreadCache* tc, int cls) {
    ++tc->allocations;
    tc->live_bytes += static_cast<int64_t>(size_classes_->class_size(cls));
    RealThreadCache::ClassList& list = tc->lists[cls];
    if (real_) {
      if (list.head != 0) {
        ++tc->fast_alloc_hits;
        uintptr_t obj = list.head;
        list.head = *reinterpret_cast<uintptr_t*>(obj);
        --list.count;
        return obj;
      }
    } else if (!list.slots.empty()) {
      ++tc->fast_alloc_hits;
      uintptr_t obj = list.slots.back();
      list.slots.pop_back();
      return obj;
    }
    ++tc->underflows;
    uintptr_t obj = SlowAllocate(tc, cls);
    if (obj == 0) {
      // Real-memory exhaustion: undo the optimistic accounting so the
      // caller can fail the allocation cleanly (ENOMEM in the shim).
      --tc->allocations;
      --tc->underflows;
      tc->live_bytes -= static_cast<int64_t>(size_classes_->class_size(cls));
    }
    return obj;
  }

  // Sized free; `size` must match the Allocate request. Cross-thread
  // frees are the norm (the bench hands objects between threads): the
  // object lands in the FREEING thread's cache, exactly like production
  // TCMalloc.
  void Free(RealThreadCache* tc, uintptr_t addr, size_t size) {
    WSC_PROF_SCOPE("rt/Free");
    int cls = size_classes_->ClassFor(size);
    if (cls >= 0) {
      FreeClass(tc, cls, addr);
      return;
    }
    FreeLarge(tc, addr, size);
  }

  // The small-object free fast path with the class already known.
  void FreeClass(RealThreadCache* tc, int cls, uintptr_t addr) {
    ++tc->frees;
    tc->live_bytes -= static_cast<int64_t>(size_classes_->class_size(cls));
    RealThreadCache::ClassList& list = tc->lists[cls];
    if (real_) {
      if (list.count < list.cap) {
        ++tc->fast_free_hits;
        *reinterpret_cast<uintptr_t*>(addr) = list.head;
        list.head = addr;
        ++list.count;
        return;
      }
    } else if (list.slots.size() < list.cap) {
      ++tc->fast_free_hits;
      list.slots.push_back(addr);
      return;
    }
    ++tc->overflows;
    SlowFree(tc, cls, addr);
  }

  // ---- Real-memory mode API (the malloc shim's contract) ----

  // Unsized free: the page directory recovers the size class (or large
  // range length) from the address alone. Unknown addresses inside the
  // reservation, and addresses inside a free large range, are ignored
  // (defensive: a double free of a large range whose directory entry was
  // already cleared must not corrupt the allocator). Real mode only.
  void FreeAddr(RealThreadCache* tc, uintptr_t addr);

  // malloc_usable_size: the full capacity of the block `addr` points at,
  // or 0 when the address is not a live allocation of this allocator.
  size_t UsableSize(uintptr_t addr) const;

  // Whether `addr` falls inside this allocator's reservation (real mode;
  // always false in virtual mode). An Owns() address may still be unknown
  // to the directory — pair with UsableSize() for liveness.
  bool Owns(uintptr_t addr) const {
    return real_ && addr >= arena_base_ && addr < arena_end_;
  }

  // calloc support: Allocate, plus *known_zero set when the block is
  // known to read as zeros without a memset — a large range carved fresh
  // from the bump frontier or taken from a range released whole, with
  // nothing written since. Small classes and resident large ranges report
  // false; the caller must zero those. Real mode only.
  uintptr_t AllocateForCalloc(RealThreadCache* tc, size_t size,
                              bool* known_zero);

  // realloc support: resizes the live large range starting at `addr` to
  // `new_size` bytes without moving it. Grows into a free successor range
  // and/or the bump frontier; shrinks by splitting off a free tail.
  // Returns false — and changes nothing — when `addr` is not a live large
  // range, `new_size` belongs to a size class, or the pages behind the
  // range are not free. Real mode only.
  bool ResizeLargeInPlace(RealThreadCache* tc, uintptr_t addr,
                          size_t new_size);

  // Aligned allocation (posix_memalign / aligned_alloc). `align` must be
  // a power of two. Small requests are served from the smallest size
  // class whose size is a multiple of `align` (spans are page-aligned, so
  // every object of such a class is aligned for align <= page size);
  // everything else takes an aligned large carve. Returns 0 on
  // exhaustion. Real mode only.
  uintptr_t AllocateAligned(RealThreadCache* tc, size_t size, size_t align);

  // madvises pending (freed, not yet released) large ranges back to the
  // OS, whole ranges and largest first, until at least `bytes` are
  // confirmed or none is left; returns the bytes newly released as
  // confirmed by the backing. Virtual mode returns 0.
  size_t ReleaseMemoryToSystem(size_t bytes);

  BackendKind backend_kind() const {
    return real_ ? BackendKind::kRealMemory : BackendKind::kVirtualArena;
  }
  // The real backing (null in virtual mode); exposes reservation bounds
  // and release/commit stats.
  const MemoryBacking* backing() const { return backing_.get(); }

  // One free range of the real-memory large heap.
  struct LargeFreeRange {
    uintptr_t addr;
    size_t pages;
    bool released;  // madvised or never touched: reads as zeros
  };
  // The free large ranges in address order, read from the free lists
  // (tests and debugging; takes the large-path lock). Real mode only.
  std::vector<LargeFreeRange> LargeFreeRanges();

  // Pending large bytes above this watermark trigger an eager release on
  // the free path; 0 disables eager release. Set before worker threads
  // start (plain write).
  void SetLargeReleaseThreshold(size_t bytes) {
    large_release_threshold_bytes_ = bytes;
  }

  // fork() support for the malloc shim: ForkPrepare() (in
  // pthread_atfork's prepare hook) acquires every lock in a fixed order
  // so the child inherits them all in a known, consistent state;
  // ForkRelease() (parent and child hooks) drops them again. Without
  // this, a fork racing another thread's refill leaves a shard lock held
  // forever in the child.
  void ForkPrepare();
  void ForkRelease();

  int num_shards() const { return num_shards_; }
  int registered_threads() const;

  size_t ArenaUsedBytes() const {
    return arena_next_.load(std::memory_order_relaxed) - arena_base_;
  }

  // Bytes held from the "OS": small-object spans ever carved (spans are
  // never returned, like a cache-everything TCMalloc) plus live large
  // objects (freed large ranges are returned to the virtual OS
  // immediately). Quiescent.
  size_t FootprintBytes() const;

  // Quiescent: call only after all worker threads joined (the join is the
  // synchronization point for the plain per-thread/per-shard counters).
  telemetry::Snapshot TelemetrySnapshot() const;

 private:
  TransferShard& transfer_shard(int cls, int shard) {
    return transfer_[static_cast<size_t>(cls) * num_shards_ + shard];
  }
  CflShard& cfl_shard(int cls, int shard) {
    return cfl_[static_cast<size_t>(cls) * num_shards_ + shard];
  }

  uintptr_t SlowAllocate(RealThreadCache* tc, int cls);
  void SlowFree(RealThreadCache* tc, int cls, uintptr_t obj);
  uintptr_t AllocateLarge(RealThreadCache* tc, size_t size);
  void FreeLarge(RealThreadCache* tc, uintptr_t addr, size_t size);

  // Real-mode large path: best fit by bin over the resident free ranges,
  // then the released ones, else an aligned bump carve. `align` >=
  // kPageSize, power of two. Returns 0 on exhaustion. `known_zero`, when
  // given, reports whether the range is untouched (see
  // AllocateForCalloc).
  uintptr_t AllocateLargeReal(RealThreadCache* tc, size_t size,
                              size_t align, bool* known_zero = nullptr);
  void FreeLargeReal(RealThreadCache* tc, uintptr_t addr, size_t pages);
  // Releases whole resident free ranges, largest first, until
  // `want_bytes` are confirmed or none is left. Caller holds large_mu_.
  size_t ReleasePendingLocked(size_t want_bytes);

  // ---- The free-range heap (all *Locked: caller holds large_mu_) ----
  // Adds the free run [page, page+pages) in state `released`: merges it
  // with free neighbours in the same state, then either hands it back to
  // the bump frontier (released runs that end there) or files it.
  void AddFreeLocked(size_t page, size_t pages, bool released);
  // Files a run that is known to have no free neighbour in its state:
  // writes its boundary tags and links it into its bin.
  void InsertFreeLocked(size_t page, size_t pages, bool released);
  // Unlinks the free range starting at `page` and clears its tags;
  // returns its length in pages.
  size_t RemoveFreeLocked(size_t page);
  // The free range of state `released` that best holds `pages` pages at
  // `align`, or kNoPage.
  size_t FindFreeLocked(size_t pages, size_t align, bool released) const;
  // Takes `pages` pages at `align` out of a free range of state
  // `released`; the unused head and tail stay free. Returns 0 when none
  // fits.
  uintptr_t TakeFreeLocked(size_t pages, size_t align, bool released);
  // Bump-carves `pages` pages at `align`; the skipped alignment gap (never
  // touched) becomes a released free range. Returns 0 on exhaustion.
  uintptr_t CarveLargeLocked(size_t pages, size_t align);
  // First non-empty bin >= `from` of the given state, or -1.
  int NextBinLocked(bool released, int from) const;
  // Last non-empty bin of the given state, or -1.
  int LastBinLocked(bool released) const;

  size_t PageOf(uintptr_t addr) const {
    return (addr - arena_base_) >> kPageShift;
  }
  uintptr_t PageAddr(size_t page) const {
    return arena_base_ + (page << kPageShift);
  }

  // Fills out[0..want) from the CFL layer: home shard first, then
  // work-stealing probes of the siblings, then fresh carves. Returns the
  // number filled (always == want in virtual mode — the virtual arena
  // cannot run dry before the CHECK in CarveSpan fires; real mode can
  // return short, including 0, on exhaustion).
  int RefillFromCfl(int cls, int shard, uintptr_t* out, int want);

  // Returns objects to a CFL shard's free store (transfer overflow or
  // cache flush).
  void ReturnToCfl(int cls, int shard, const uintptr_t* objs, int count);

  // Carves one span of `cls` from the arena bump pointer and pushes its
  // objects onto `shard`'s free store. Caller holds shard.lock; the bump
  // itself is lock-free. Returns false when the real-memory reservation
  // is exhausted (the virtual arena CHECKs instead).
  bool CarveSpan(int cls, CflShard& shard);

  // Real mode: the per-page directory entry for `addr`'s page.
  std::atomic<uint32_t>& dir_entry(uintptr_t addr) const {
    WSC_DCHECK(addr >= arena_base_ && addr < arena_end_);
    return dir_[(addr - arena_base_) >> kPageShift];
  }

  const SizeClasses* size_classes_;
  int num_classes_;
  int num_shards_;

  // Per-class caps, derived once from SizeClassInfo / config.
  std::vector<uint32_t> thread_cap_;     // objects per thread cache
  std::vector<uint32_t> transfer_cap_;   // objects per transfer shard

  // Flat [cls * num_shards_ + shard] grids. Each element is 64-byte
  // aligned, so neighbouring shards never share a line. Plain arrays
  // (not vectors): the atomics inside ContendedLock make shards
  // immovable by design — a shard's address is its identity.
  size_t grid_size_ = 0;
  std::unique_ptr<TransferShard[]> transfer_;
  std::unique_ptr<CflShard[]> cfl_;

  // Address space. fetch_add / CAS on arena_next_ is the only cross-shard
  // hot-path synchronization in the whole refill chain. In virtual mode
  // the range is the config's arena; in real mode it is the backing's
  // mmap reservation.
  uintptr_t arena_base_ = 0;
  uintptr_t arena_end_ = 0;
  std::atomic<uintptr_t> arena_next_{0};
  std::atomic<uint64_t> small_carved_bytes_{0};
  std::atomic<int64_t> large_live_bytes_{0};
  std::atomic<uint64_t> large_carves_{0};

  // ---- Real-memory mode state ----
  // Page directory: one entry per 8 KiB page of the reservation.
  //   0                          unknown, or interior of a large range
  //   cls+1                      page of a small span of size class cls
  //   kDirLargeFlag|pages        first page of a live large range
  //   kDirFreeFlag|pages         first AND last page of a free large
  //     [|kDirReleasedFlag]      range (released: madvised or never
  //                              touched, so it reads as zeros)
  // Interior pages of live and free ranges stay 0, and every tag is
  // cleared when its range is allocated, merged away or handed back to
  // the bump frontier, so no stale tag survives. That is what makes
  // coalescing O(1): the entry just before a range's first page and the
  // one just past its last page say whether a free neighbour is there
  // and how long it is.
  static constexpr uint32_t kDirLargeFlag = 0x80000000u;
  static constexpr uint32_t kDirFreeFlag = 0x40000000u;
  static constexpr uint32_t kDirReleasedFlag = 0x20000000u;
  static constexpr uint32_t kDirPagesMask = kDirReleasedFlag - 1;

  // Free-list bins: one per page count up to kExactBins pages (2 MiB),
  // then four per power of two up to the 2^29-page directory limit.
  static constexpr int kExactBins = 256;
  static constexpr int kNumBins = kExactBins + 4 * (29 - 8);
  static constexpr int kBinWords = (kNumBins + 63) / 64;
  static constexpr uint32_t kNoPage = ~uint32_t{0};
  static int FreeBin(size_t pages);

  const bool real_;
  std::unique_ptr<RealMemoryBacking> backing_;  // null in virtual mode
  std::atomic<uint32_t>* dir_ = nullptr;  // one entry per reservation page
  size_t dir_entries_ = 0;

  // The free-range heap: doubly linked, size-binned free lists, one set
  // for resident ranges ([0]) and one for released ranges ([1]). The
  // links live in a NORESERVE side array indexed by page (only a range's
  // first page uses its slot), never in the freed memory, so a released
  // range stays untouched until it is allocated again. Guarded by
  // large_mu_; the counters are atomic only so FootprintBytes and
  // telemetry can read them without the mutex.
  struct FreeLink {
    uint32_t prev;
    uint32_t next;
  };
  std::mutex large_mu_;
  FreeLink* free_links_ = nullptr;
  uint32_t free_heads_[2][kNumBins];
  uint64_t free_nonempty_[2][kBinWords] = {};
  std::atomic<size_t> large_free_pages_{0};
  std::atomic<size_t> large_unreleased_pages_{0};
  std::atomic<size_t> large_free_ranges_{0};
  std::atomic<uint64_t> large_coalesces_{0};
  std::atomic<uint64_t> large_inplace_resizes_{0};
  // Pending large bytes above this watermark trigger an eager release on
  // the free path (0 disables). ReleaseMemoryToSystem works regardless.
  size_t large_release_threshold_bytes_ = size_t{256} << 20;

  // Thread registry (cold path only).
  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<RealThreadCache>> threads_;
  int next_shard_rr_ = 0;
};

// False-sharing audit: the layout contract the real-threads mode depends
// on. tools/check_alignment.cc compiles the same assertions standalone so
// CI fails loudly if a refactor drops an alignas.
static_assert(sizeof(ContendedLock) <= kCacheLineSize,
              "ContendedLock must fit in one cache line");
static_assert(alignof(TransferShard) == kCacheLineSize,
              "TransferShard lost its cache-line alignment");
static_assert(sizeof(TransferShard) % kCacheLineSize == 0,
              "adjacent TransferShards would share a cache line");
static_assert(alignof(CflShard) == kCacheLineSize,
              "CflShard lost its cache-line alignment");
static_assert(sizeof(CflShard) % kCacheLineSize == 0,
              "adjacent CflShards would share a cache line");
static_assert(alignof(RealThreadCache) == kCacheLineSize,
              "RealThreadCache lost its cache-line alignment");

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_REAL_THREADS_H_
