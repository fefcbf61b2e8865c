// The backend seam: where allocator bookkeeping meets address space.
//
// Every tier above SystemAllocator hands out page/hugepage *indices*; this
// interface decides what those indices mean. VirtualArenaBacking keeps the
// deterministic simulation contract — addresses are bump-allocated from a
// fixed base and never dereferenced, so results are bit-identical for any
// thread count. RealMemoryBacking reserves one contiguous anonymous mapping
// and the same indices become real, dereferenceable memory: freelists can
// thread through object storage, Release() becomes madvise(MADV_DONTNEED),
// and hugepage hints become MADV_HUGEPAGE.
//
// Both backings share the bump-allocation discipline and the released-range
// bookkeeping, so the tiers above cannot tell them apart except through
// kind() — that is what keeps the virtual mode bit-identical across the
// refactor.

#ifndef WSC_TCMALLOC_MEMORY_BACKING_H_
#define WSC_TCMALLOC_MEMORY_BACKING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>

#include "tcmalloc/pages.h"

namespace wsc::tcmalloc {

enum class BackendKind {
  kVirtualArena,  // deterministic metadata-only simulation (default)
  kRealMemory,    // mmap-backed, dereferenceable, madvise release
};

const char* BackendKindName(BackendKind kind);

struct MemoryBackingStats {
  uint64_t map_calls = 0;        // successful MapHugePages calls
  uint64_t mapped_bytes = 0;     // cumulative bytes handed out
  uint64_t release_calls = 0;
  uint64_t released_bytes = 0;   // cumulative bytes *newly* released
  uint64_t commit_calls = 0;
  uint64_t recommitted_bytes = 0;
};

// Tracks which byte ranges of the reservation are currently released to
// the OS, so Release() can report only *newly* returned bytes (releasing
// an already-released range is a no-op, not double credit) and Commit()
// can clear the marks when memory is reused. Interval-coalescing map,
// byte-granular; callers align to page boundaries.
class ReleasedRangeSet {
 public:
  // Marks [addr, addr+bytes) released; returns bytes not already released.
  size_t Add(uintptr_t addr, size_t bytes);
  // Clears released marks overlapping [addr, addr+bytes); returns bytes
  // that had been released (and are now considered committed again).
  size_t Remove(uintptr_t addr, size_t bytes);
  size_t total_bytes() const { return total_bytes_; }

 private:
  std::map<uintptr_t, uintptr_t> runs_;  // start -> end (exclusive)
  size_t total_bytes_ = 0;
};

class MemoryBacking {
 public:
  virtual ~MemoryBacking() = default;

  virtual BackendKind kind() const = 0;

  // Maps `n` contiguous hugepages (2 MiB-aligned by construction: the
  // reservation base is hugepage-aligned and growth is hugepage-granular).
  // Returns the address, or 0 when the reservation is exhausted.
  virtual uintptr_t MapHugePages(int n) = 0;

  // Returns [addr, addr+bytes) to the OS (madvise(MADV_DONTNEED) for real
  // memory; pure bookkeeping for the virtual arena). Returns the number of
  // bytes *newly* released — re-releasing an already-released range counts
  // zero, which is what makes ReleaseMemoryToSystem honest.
  virtual size_t Release(uintptr_t addr, size_t bytes) = 0;

  // Declares [addr, addr+bytes) in use again after a Release. Real memory
  // refaults on first touch, so this only clears the released marks.
  virtual void Commit(uintptr_t addr, size_t bytes) = 0;

  uintptr_t base() const { return base_; }
  size_t reserved_bytes() const { return reserved_bytes_; }
  uintptr_t end() const { return base_ + reserved_bytes_; }
  const MemoryBackingStats& stats() const { return stats_; }

 protected:
  uintptr_t base_ = 0;
  size_t reserved_bytes_ = 0;
  MemoryBackingStats stats_;
};

// The deterministic simulation arena: a bump pointer over [base,
// base+bytes) that is never dereferenced. Behavior (growth order, failure
// points, stats) is exactly the pre-refactor SystemAllocator arithmetic.
class VirtualArenaBacking final : public MemoryBacking {
 public:
  // `base` and `bytes` must be hugepage-aligned and nonzero.
  VirtualArenaBacking(uintptr_t base, size_t bytes);

  BackendKind kind() const override { return BackendKind::kVirtualArena; }
  uintptr_t MapHugePages(int n) override;
  size_t Release(uintptr_t addr, size_t bytes) override;
  void Commit(uintptr_t addr, size_t bytes) override;

 private:
  uintptr_t next_;
  ReleasedRangeSet released_;
};

// Real memory: one contiguous PROT_READ|PROT_WRITE anonymous
// MAP_NORESERVE reservation, hinted MADV_HUGEPAGE, bump-allocated with the
// same discipline as the virtual arena. Pages are committed by the kernel
// on first touch; Release() is madvise(MADV_DONTNEED). Thread-safe for
// Release/Commit (the real-threads allocator calls them concurrently);
// MapHugePages is serialized by the caller (SystemAllocator runs under the
// page-heap path, which is single-threaded per node in simulation).
class RealMemoryBacking final : public MemoryBacking {
 public:
  // Reserves `reserve_bytes` (rounded up to a hugepage), walking a
  // fallback ladder of halved sizes down to kMinReserveBytes if the mmap
  // is refused. ok() is false only if even the smallest rung failed.
  explicit RealMemoryBacking(size_t reserve_bytes);
  ~RealMemoryBacking() override;

  RealMemoryBacking(const RealMemoryBacking&) = delete;
  RealMemoryBacking& operator=(const RealMemoryBacking&) = delete;

  bool ok() const { return base_ != 0; }

  BackendKind kind() const override { return BackendKind::kRealMemory; }
  uintptr_t MapHugePages(int n) override;
  size_t Release(uintptr_t addr, size_t bytes) override;
  void Commit(uintptr_t addr, size_t bytes) override;

  // Drops the released marks on [addr, addr+bytes) without counting a
  // recommit: the range leaves its owner's books still released (the
  // real-threads allocator hands released ranges back to its bump
  // frontier), so whoever carves it next starts from clean bookkeeping.
  void Forget(uintptr_t addr, size_t bytes);

  // Plain anonymous RW mapping for allocator metadata (page directory,
  // bootstrap spill) that must not come from the object heap. Returns 0 on
  // failure. Unmap with UnmapMetadata.
  static uintptr_t MapMetadata(size_t bytes);
  static void UnmapMetadata(uintptr_t addr, size_t bytes);

  // fork() support: hold mu_ across the fork so the child's copy is not
  // left locked by a vanished thread (see RealThreadsAllocator::
  // ForkPrepare).
  void ForkLock() { mu_.lock(); }
  void ForkUnlock() { mu_.unlock(); }

  static constexpr size_t kMinReserveBytes = size_t{1} << 30;  // 1 GiB

 private:
  // Raw mapping before hugepage alignment trim (for munmap).
  uintptr_t raw_base_ = 0;
  size_t raw_bytes_ = 0;
  uintptr_t next_ = 0;
  // Guards released_ and stats_ against concurrent Release/Commit from
  // real threads. Uncontended in simulation.
  mutable std::mutex mu_;
  ReleasedRangeSet released_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_MEMORY_BACKING_H_
