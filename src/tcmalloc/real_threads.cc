#include "tcmalloc/real_threads.h"

#include <algorithm>

namespace wsc::tcmalloc {

namespace {

// Shards beyond the thread count add footprint without reducing
// contention; 16 covers every core count this repo's benches target.
constexpr int kMaxShards = 16;

// Stack-buffer bound for batch moves; size-class batch sizes top out at 32.
constexpr int kMaxBatch = 64;

// Pops up to `want` objects from the back of `from` into `out`.
int TakeBack(std::vector<uintptr_t>& from, uintptr_t* out, int want) {
  int take = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(want), from.size()));
  for (int i = 0; i < take; ++i) {
    out[i] = from.back();
    from.pop_back();
  }
  return take;
}

// Real-mode counterparts of TakeBack / insert over an intrusive freelist
// whose link is the object's first word.
int TakeIntrusive(uintptr_t& head, uint32_t& count, uintptr_t* out,
                  int want) {
  int take = std::min(want, static_cast<int>(count));
  for (int i = 0; i < take; ++i) {
    out[i] = head;
    head = *reinterpret_cast<uintptr_t*>(head);
  }
  count -= static_cast<uint32_t>(take);
  return take;
}

void PutIntrusive(uintptr_t& head, uint32_t& count, const uintptr_t* objs,
                  int n) {
  for (int i = 0; i < n; ++i) {
    *reinterpret_cast<uintptr_t*>(objs[i]) = head;
    head = objs[i];
  }
  count += static_cast<uint32_t>(n);
}

// The real-memory reservation is capped below the simulator's default
// 4 TiB arena: virtual address space is nearly free, but the page
// directory costs 4 bytes per 8 KiB page of reservation.
constexpr size_t kMaxRealReserveBytes = size_t{256} << 30;  // 256 GiB

}  // namespace

RealThreadsAllocator::RealThreadsAllocator(const AllocatorConfig& config,
                                           int expected_threads,
                                           const SizeClasses* size_classes,
                                           int num_shards)
    : size_classes_(size_classes),
      num_classes_(size_classes->num_classes()),
      real_(config.real_memory) {
  num_shards_ = num_shards > 0 ? std::min(num_shards, kMaxShards)
                               : std::clamp(expected_threads, 1, kMaxShards);

  thread_cap_.resize(num_classes_);
  transfer_cap_.resize(num_classes_);
  for (int cls = 0; cls < num_classes_; ++cls) {
    const SizeClassInfo& info = size_classes_->info(cls);
    WSC_CHECK_LE(info.batch_size, kMaxBatch);
    thread_cap_[cls] = static_cast<uint32_t>(info.max_per_cpu_objects);
    // The simulator's transfer cache budgets transfer_cache_batches
    // batches per class; split that budget across the shards, with a
    // two-batch floor so every shard can absorb an insert and still
    // serve a remove.
    int batches = std::max(2, config.transfer_cache_batches / num_shards_);
    transfer_cap_[cls] = static_cast<uint32_t>(batches * info.batch_size);
  }

  grid_size_ = static_cast<size_t>(num_classes_) * num_shards_;
  transfer_ = std::make_unique<TransferShard[]>(grid_size_);
  cfl_ = std::make_unique<CflShard[]>(grid_size_);
  for (int cls = 0; cls < num_classes_; ++cls) {
    for (int shard = 0; shard < num_shards_; ++shard) {
      transfer_shard(cls, shard).capacity = transfer_cap_[cls];
    }
  }

  if (real_) {
    size_t reserve = config.real_memory_reserve_bytes != 0
                         ? config.real_memory_reserve_bytes
                         : std::min(config.arena_bytes, kMaxRealReserveBytes);
    backing_ = std::make_unique<RealMemoryBacking>(reserve);
    WSC_CHECK(backing_->ok());
    arena_base_ = backing_->base();
    arena_end_ = backing_->end();
    dir_entries_ = backing_->reserved_bytes() >> kPageShift;
    // Range lengths must fit the directory's page field, and page indices
    // the free-list links.
    WSC_CHECK_LE(dir_entries_, size_t{kDirPagesMask});
    dir_ = reinterpret_cast<std::atomic<uint32_t>*>(
        RealMemoryBacking::MapMetadata(dir_entries_ * sizeof(uint32_t)));
    WSC_CHECK(dir_ != nullptr);
    free_links_ = reinterpret_cast<FreeLink*>(
        RealMemoryBacking::MapMetadata(dir_entries_ * sizeof(FreeLink)));
    WSC_CHECK(free_links_ != nullptr);
    for (auto& heads : free_heads_) {
      std::fill(std::begin(heads), std::end(heads), kNoPage);
    }
    // The object's first word doubles as the freelist link, so every
    // class must hold one.
    WSC_CHECK_GE(size_classes_->class_size(0), sizeof(uintptr_t));
  } else {
    arena_base_ = config.arena_base;
    arena_end_ = config.arena_base + config.arena_bytes;
  }
  arena_next_.store(arena_base_, std::memory_order_relaxed);
}

RealThreadsAllocator::~RealThreadsAllocator() {
  if (dir_ != nullptr) {
    RealMemoryBacking::UnmapMetadata(reinterpret_cast<uintptr_t>(dir_),
                                     dir_entries_ * sizeof(uint32_t));
    RealMemoryBacking::UnmapMetadata(
        reinterpret_cast<uintptr_t>(free_links_),
        dir_entries_ * sizeof(FreeLink));
  }
}

RealThreadCache* RealThreadsAllocator::RegisterThread() {
  std::lock_guard<std::mutex> guard(threads_mu_);
  auto tc = std::make_unique<RealThreadCache>();
  tc->shard = next_shard_rr_;
  next_shard_rr_ = (next_shard_rr_ + 1) % num_shards_;
  tc->lists.resize(num_classes_);
  for (int cls = 0; cls < num_classes_; ++cls) {
    tc->lists[cls].cap = thread_cap_[cls];
  }
  RealThreadCache* raw = tc.get();
  threads_.push_back(std::move(tc));
  return raw;
}

int RealThreadsAllocator::registered_threads() const {
  std::lock_guard<std::mutex> guard(threads_mu_);
  return static_cast<int>(threads_.size());
}

void RealThreadsAllocator::FlushThreadCache(RealThreadCache* tc) {
  uintptr_t buf[kMaxBatch];
  for (int cls = 0; cls < num_classes_; ++cls) {
    RealThreadCache::ClassList& list = tc->lists[cls];
    if (real_) {
      while (list.count > 0) {
        int moved = TakeIntrusive(list.head, list.count, buf, kMaxBatch);
        ReturnToCfl(cls, tc->shard, buf, moved);
      }
      continue;
    }
    std::vector<uintptr_t>& slots = list.slots;
    if (slots.empty()) continue;
    ReturnToCfl(cls, tc->shard, slots.data(),
                static_cast<int>(slots.size()));
    slots.clear();
  }
}

uintptr_t RealThreadsAllocator::SlowAllocate(RealThreadCache* tc, int cls) {
  WSC_PROF_SCOPE("rt/SlowAllocate");
  const int batch = size_classes_->batch_size(cls);
  uintptr_t buf[kMaxBatch];

  // One lock on the home transfer shard for the whole batch.
  TransferShard& ts = transfer_shard(cls, tc->shard);
  ts.lock.Lock();
  ++ts.removes;
  int got = real_ ? TakeIntrusive(ts.head, ts.count, buf, batch)
                  : TakeBack(ts.objects, buf, batch);
  ts.removed_objects += static_cast<uint64_t>(got);
  if (got == 0) ++ts.remove_misses;
  ts.lock.Unlock();

  if (got < batch) {
    got += RefillFromCfl(cls, tc->shard, buf + got, batch - got);
  }
  if (got == 0) {
    // Only the real backing can run dry; the virtual arena CHECKs in
    // CarveSpan long before.
    WSC_CHECK(real_);
    return 0;
  }

  // Keep one, cache the rest. The slow path only runs when the list is
  // empty and caps are >= two batches, so the remainder always fits.
  RealThreadCache::ClassList& list = tc->lists[cls];
  if (real_) {
    PutIntrusive(list.head, list.count, buf + 1, got - 1);
  } else {
    WSC_DCHECK_LE(static_cast<size_t>(got - 1),
                  list.cap - list.slots.size());
    list.slots.insert(list.slots.end(), buf + 1, buf + got);
  }
  return buf[0];
}

void RealThreadsAllocator::SlowFree(RealThreadCache* tc, int cls,
                                    uintptr_t obj) {
  WSC_PROF_SCOPE("rt/SlowFree");
  // The list is at cap: push one batch down to the middle end, then cache
  // the object being freed.
  const int batch = size_classes_->batch_size(cls);
  uintptr_t buf[kMaxBatch];
  RealThreadCache::ClassList& list = tc->lists[cls];
  int moved = real_ ? TakeIntrusive(list.head, list.count, buf, batch)
                    : TakeBack(list.slots, buf, batch);

  TransferShard& ts = transfer_shard(cls, tc->shard);
  ts.lock.Lock();
  ++ts.inserts;
  int room = static_cast<int>(ts.capacity) -
             static_cast<int>(real_ ? ts.count : ts.objects.size());
  int put = std::clamp(room, 0, moved);
  if (real_) {
    PutIntrusive(ts.head, ts.count, buf, put);
  } else {
    ts.objects.insert(ts.objects.end(), buf, buf + put);
  }
  ts.inserted_objects += static_cast<uint64_t>(put);
  if (put < moved) ++ts.insert_overflows;
  ts.lock.Unlock();

  if (put < moved) {
    ReturnToCfl(cls, tc->shard, buf + put, moved - put);
  }
  if (real_) {
    PutIntrusive(list.head, list.count, &obj, 1);
  } else {
    list.slots.push_back(obj);
  }
}

int RealThreadsAllocator::RefillFromCfl(int cls, int shard, uintptr_t* out,
                                        int want) {
  WSC_PROF_SCOPE("rt/RefillFromCfl");
  CflShard& home = cfl_shard(cls, shard);
  home.lock.Lock();
  ++home.refills;
  int got = real_ ? TakeIntrusive(home.head, home.count, out, want)
                  : TakeBack(home.free_objects, out, want);
  if (got < want) {
    ++home.refill_stalls;
    // Work-steal from sibling shards before carving fresh address space:
    // this is the piece Snippet 1's sharded allocator was missing — a
    // shard whose home store runs dry must not serialize on (or bloat)
    // the backing store while siblings sit on free objects. TryLock only:
    // a busy sibling is skipped, never waited on (also rules out
    // lock-order deadlock, since the only blocking acquisition held here
    // is the home shard's).
    for (int probe = 1; probe < num_shards_ && got < want; ++probe) {
      CflShard& victim = cfl_shard(cls, (shard + probe) % num_shards_);
      ++home.steal_probes;
      if (!victim.lock.TryLock()) continue;
      size_t avail = real_ ? victim.count : victim.free_objects.size();
      if (avail > 0) {
        // Take what the batch still needs plus half the surplus, so one
        // steal rebalances the pair instead of ping-ponging per object.
        size_t need = static_cast<size_t>(want - got);
        size_t take = std::min(avail, need + (avail - std::min(avail, need)) / 2);
        ++home.steals;
        home.stolen_objects += take;
        for (size_t i = 0; i < take; ++i) {
          uintptr_t obj = 0;
          if (real_) {
            TakeIntrusive(victim.head, victim.count, &obj, 1);
          } else {
            obj = victim.free_objects.back();
            victim.free_objects.pop_back();
          }
          if (got < want) {
            out[got++] = obj;
          } else if (real_) {
            PutIntrusive(home.head, home.count, &obj, 1);
          } else {
            home.free_objects.push_back(obj);
          }
        }
      }
      victim.lock.Unlock();
    }
    while (got < want) {
      if (!CarveSpan(cls, home)) break;  // real-memory reservation dry
      got += real_
                 ? TakeIntrusive(home.head, home.count, out + got, want - got)
                 : TakeBack(home.free_objects, out + got, want - got);
    }
  }
  home.lock.Unlock();
  return got;
}

void RealThreadsAllocator::ReturnToCfl(int cls, int shard,
                                       const uintptr_t* objs, int count) {
  WSC_PROF_SCOPE("rt/ReturnToCfl");
  CflShard& home = cfl_shard(cls, shard);
  home.lock.Lock();
  if (real_) {
    PutIntrusive(home.head, home.count, objs, count);
  } else {
    home.free_objects.insert(home.free_objects.end(), objs, objs + count);
  }
  home.lock.Unlock();
}

bool RealThreadsAllocator::CarveSpan(int cls, CflShard& shard) {
  WSC_PROF_SCOPE("rt/CarveSpan");
  const SizeClassInfo& info = size_classes_->info(cls);
  size_t span_bytes = LengthToBytes(info.pages_per_span);
  uintptr_t base;
  if (real_) {
    // CAS loop instead of fetch_add so a failed carve does not advance
    // the bump pointer past the reservation. Acquire pairs with the
    // release in AddFreeLocked: memory handed back to the frontier is
    // carved only after its old owner's last writes.
    base = arena_next_.load(std::memory_order_relaxed);
    do {
      if (base + span_bytes > arena_end_) return false;
    } while (!arena_next_.compare_exchange_weak(base, base + span_bytes,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed));
    // Publish the size class for every page of the span before the
    // objects escape via the shard lock, so FreeAddr/UsableSize on any
    // thread that legitimately receives an object sees the entry.
    for (size_t p = 0; p < static_cast<size_t>(info.pages_per_span); ++p) {
      dir_entry(base + (p << kPageShift))
          .store(static_cast<uint32_t>(cls) + 1, std::memory_order_relaxed);
    }
  } else {
    base = arena_next_.fetch_add(span_bytes, std::memory_order_relaxed);
    WSC_CHECK_LE(base + span_bytes, arena_end_);
  }
  small_carved_bytes_.fetch_add(span_bytes, std::memory_order_relaxed);
  ++shard.carves;
  shard.carved_objects += static_cast<uint64_t>(info.objects_per_span);
  if (real_) {
    // Push in reverse so pops hand out ascending addresses, matching the
    // virtual mode's TakeBack order.
    for (int i = info.objects_per_span - 1; i >= 0; --i) {
      uintptr_t obj = base + static_cast<size_t>(i) * info.size;
      PutIntrusive(shard.head, shard.count, &obj, 1);
    }
  } else {
    for (int i = 0; i < info.objects_per_span; ++i) {
      shard.free_objects.push_back(base + static_cast<size_t>(i) * info.size);
    }
  }
  return true;
}

uintptr_t RealThreadsAllocator::AllocateLarge(RealThreadCache* tc,
                                              size_t size) {
  if (real_) return AllocateLargeReal(tc, size, kPageSize);
  ++tc->allocations;
  ++tc->large_allocations;
  size_t bytes = LengthToBytes(BytesToLengthCeil(size));
  uintptr_t addr = arena_next_.fetch_add(bytes, std::memory_order_relaxed);
  WSC_CHECK_LE(addr + bytes, arena_end_);
  large_live_bytes_.fetch_add(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
  large_carves_.fetch_add(1, std::memory_order_relaxed);
  tc->live_bytes += static_cast<int64_t>(bytes);
  return addr;
}

void RealThreadsAllocator::FreeLarge(RealThreadCache* tc, uintptr_t addr,
                                     size_t size) {
  if (real_) {
    // Trust the directory over the sized hint: an aligned allocation may
    // have carved more pages than the request implies.
    uint32_t entry = dir_entry(addr).load(std::memory_order_relaxed);
    WSC_CHECK(entry & kDirLargeFlag);
    FreeLargeReal(tc, addr, entry & kDirPagesMask);
    return;
  }
  (void)addr;
  ++tc->frees;
  ++tc->large_frees;
  size_t bytes = LengthToBytes(BytesToLengthCeil(size));
  large_live_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
  tc->live_bytes -= static_cast<int64_t>(bytes);
}

uintptr_t RealThreadsAllocator::AllocateLargeReal(RealThreadCache* tc,
                                                  size_t size, size_t align,
                                                  bool* known_zero) {
  WSC_DCHECK((align & (align - 1)) == 0 && align >= kPageSize);
  // Bigger than the whole reservation: fail before the page arithmetic
  // can overflow.
  if (size > arena_end_ - arena_base_) return 0;
  size_t pages = static_cast<size_t>(BytesToLengthCeil(size));
  size_t bytes = pages << kPageShift;
  // Resident ranges first: reusing them adds nothing to the resident set
  // (and a calloc's memset of resident memory is cheaper than faulting
  // released pages back in).
  bool released = false;
  uintptr_t addr;
  {
    std::lock_guard<std::mutex> guard(large_mu_);
    addr = TakeFreeLocked(pages, align, /*released=*/false);
    if (addr == 0) {
      released = true;
      addr = TakeFreeLocked(pages, align, /*released=*/true);
    }
    if (addr == 0) {
      // The frontier holds only untouched memory: still "released".
      addr = CarveLargeLocked(pages, align);
      if (addr == 0) return 0;
    }
    dir_entry(addr).store(kDirLargeFlag | static_cast<uint32_t>(pages),
                          std::memory_order_relaxed);
  }
  if (known_zero != nullptr) *known_zero = released;
  ++tc->allocations;
  ++tc->large_allocations;
  large_live_bytes_.fetch_add(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
  large_carves_.fetch_add(1, std::memory_order_relaxed);
  tc->live_bytes += static_cast<int64_t>(bytes);
  return addr;
}

void RealThreadsAllocator::FreeLargeReal(RealThreadCache* tc, uintptr_t addr,
                                         size_t pages) {
  size_t bytes = pages << kPageShift;
  ++tc->frees;
  ++tc->large_frees;
  large_live_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
  tc->live_bytes -= static_cast<int64_t>(bytes);

  std::lock_guard<std::mutex> guard(large_mu_);
  dir_entry(addr).store(0, std::memory_order_relaxed);
  AddFreeLocked(PageOf(addr), pages, /*released=*/false);
  size_t unreleased =
      large_unreleased_pages_.load(std::memory_order_relaxed) << kPageShift;
  if (large_release_threshold_bytes_ > 0 &&
      unreleased > large_release_threshold_bytes_) {
    ReleasePendingLocked(unreleased - large_release_threshold_bytes_ / 2);
  }
}

int RealThreadsAllocator::FreeBin(size_t pages) {
  if (pages <= kExactBins) return static_cast<int>(pages) - 1;
  int lg = 63 - __builtin_clzll(pages);  // >= 8
  int sub = static_cast<int>(pages >> (lg - 2)) & 3;
  return kExactBins + (lg - 8) * 4 + sub;
}

int RealThreadsAllocator::NextBinLocked(bool released, int from) const {
  if (from >= kNumBins) return -1;
  int word = from / 64;
  uint64_t bits =
      free_nonempty_[released][word] & (~uint64_t{0} << (from % 64));
  while (bits == 0) {
    if (++word == kBinWords) return -1;
    bits = free_nonempty_[released][word];
  }
  return word * 64 + __builtin_ctzll(bits);
}

int RealThreadsAllocator::LastBinLocked(bool released) const {
  for (int word = kBinWords - 1; word >= 0; --word) {
    uint64_t bits = free_nonempty_[released][word];
    if (bits != 0) return word * 64 + 63 - __builtin_clzll(bits);
  }
  return -1;
}

void RealThreadsAllocator::InsertFreeLocked(size_t page, size_t pages,
                                            bool released) {
  uint32_t tag = kDirFreeFlag | (released ? kDirReleasedFlag : 0) |
                 static_cast<uint32_t>(pages);
  dir_[page].store(tag, std::memory_order_relaxed);
  dir_[page + pages - 1].store(tag, std::memory_order_relaxed);
  int bin = FreeBin(pages);
  uint32_t& head = free_heads_[released][bin];
  free_links_[page] = FreeLink{kNoPage, head};
  if (head != kNoPage) free_links_[head].prev = static_cast<uint32_t>(page);
  head = static_cast<uint32_t>(page);
  free_nonempty_[released][bin / 64] |= uint64_t{1} << (bin % 64);
  large_free_pages_.fetch_add(pages, std::memory_order_relaxed);
  if (!released) {
    large_unreleased_pages_.fetch_add(pages, std::memory_order_relaxed);
  }
  large_free_ranges_.fetch_add(1, std::memory_order_relaxed);
}

size_t RealThreadsAllocator::RemoveFreeLocked(size_t page) {
  uint32_t tag = dir_[page].load(std::memory_order_relaxed);
  WSC_DCHECK(tag & kDirFreeFlag);
  size_t pages = tag & kDirPagesMask;
  bool released = (tag & kDirReleasedFlag) != 0;
  dir_[page].store(0, std::memory_order_relaxed);
  dir_[page + pages - 1].store(0, std::memory_order_relaxed);
  int bin = FreeBin(pages);
  FreeLink link = free_links_[page];
  if (link.prev != kNoPage) {
    free_links_[link.prev].next = link.next;
  } else {
    free_heads_[released][bin] = link.next;
    if (link.next == kNoPage) {
      free_nonempty_[released][bin / 64] &= ~(uint64_t{1} << (bin % 64));
    }
  }
  if (link.next != kNoPage) free_links_[link.next].prev = link.prev;
  large_free_pages_.fetch_sub(pages, std::memory_order_relaxed);
  if (!released) {
    large_unreleased_pages_.fetch_sub(pages, std::memory_order_relaxed);
  }
  large_free_ranges_.fetch_sub(1, std::memory_order_relaxed);
  return pages;
}

void RealThreadsAllocator::AddFreeLocked(size_t page, size_t pages,
                                         bool released) {
  // A neighbour merges only in the same state, so every free range stays
  // wholly resident or wholly released. Live-range and small-span entries
  // never match: their flag bits differ.
  const uint32_t state = kDirFreeFlag | (released ? kDirReleasedFlag : 0);
  if (page > 0) {
    uint32_t left = dir_[page - 1].load(std::memory_order_relaxed);
    if ((left & ~kDirPagesMask) == state) {
      size_t left_pages = left & kDirPagesMask;
      page -= left_pages;
      pages += RemoveFreeLocked(page);
      large_coalesces_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (page + pages < dir_entries_) {
    uint32_t right = dir_[page + pages].load(std::memory_order_relaxed);
    if ((right & ~kDirPagesMask) == state) {
      pages += RemoveFreeLocked(page + pages);
      large_coalesces_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (released) {
    // A released run that ends at the bump frontier goes back to it. Only
    // released runs do, so the frontier never holds memory that was
    // written: fresh carves stay known-zero and uncounted in the resident
    // pages. Release pairs with the carves' acquire. If another thread
    // has moved the frontier, the run stays a free range.
    uintptr_t end = PageAddr(page + pages);
    if (arena_next_.compare_exchange_strong(end, PageAddr(page),
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
      backing_->Forget(PageAddr(page), pages << kPageShift);
      return;
    }
  }
  InsertFreeLocked(page, pages, released);
}

size_t RealThreadsAllocator::FindFreeLocked(size_t pages, size_t align,
                                            bool released) const {
  const size_t bytes = pages << kPageShift;
  const int own = FreeBin(pages);
  for (int bin = NextBinLocked(released, own); bin >= 0;
       bin = NextBinLocked(released, bin + 1)) {
    // Best fit by bin: an exact bin holds one length, and every range in
    // a higher bin is longer than any in the request's own bin, so there
    // the first fit will do. Only the request's own log bin is scanned
    // for the tightest fit.
    const bool first_fit = bin != own || bin < kExactBins;
    size_t best = kNoPage;
    size_t best_pages = 0;
    for (uint32_t p = free_heads_[released][bin]; p != kNoPage;
         p = free_links_[p].next) {
      size_t len = dir_[p].load(std::memory_order_relaxed) & kDirPagesMask;
      uintptr_t start = PageAddr(p);
      uintptr_t addr = (start + align - 1) & ~(align - 1);
      if (addr < start || addr + bytes > start + (len << kPageShift)) {
        continue;
      }
      if (first_fit) return p;
      if (best == kNoPage || len < best_pages) {
        best = p;
        best_pages = len;
      }
    }
    if (best != kNoPage) return best;
  }
  return kNoPage;
}

uintptr_t RealThreadsAllocator::TakeFreeLocked(size_t pages, size_t align,
                                               bool released) {
  size_t page = FindFreeLocked(pages, align, released);
  if (page == kNoPage) return 0;
  size_t len = RemoveFreeLocked(page);
  uintptr_t start = PageAddr(page);
  uintptr_t addr = (start + align - 1) & ~(align - 1);
  size_t head = (addr - start) >> kPageShift;
  // The range had no free neighbour in its state and the allocation now
  // sits between the leftovers, so they are filed without merging.
  if (head > 0) InsertFreeLocked(page, head, released);
  if (len > head + pages) {
    InsertFreeLocked(page + head + pages, len - head - pages, released);
  }
  if (released) backing_->Commit(addr, pages << kPageShift);
  return addr;
}

uintptr_t RealThreadsAllocator::CarveLargeLocked(size_t pages,
                                                 size_t align) {
  const size_t bytes = pages << kPageShift;
  uintptr_t base = arena_next_.load(std::memory_order_relaxed);
  uintptr_t addr;
  do {
    addr = (base + (align - 1)) & ~(align - 1);
    if (addr < base || addr > arena_end_ || arena_end_ - addr < bytes) {
      return 0;
    }
  } while (!arena_next_.compare_exchange_weak(base, addr + bytes,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed));
  if (addr > base) {
    // Marked released in the backing too, like every other released
    // range, so a later release that widens over it confirms nothing
    // for it.
    backing_->Release(base, addr - base);
    AddFreeLocked(PageOf(base), (addr - base) >> kPageShift,
                  /*released=*/true);
  }
  return addr;
}

size_t RealThreadsAllocator::ReleasePendingLocked(size_t want_bytes) {
  size_t confirmed = 0;
  while (confirmed < want_bytes) {
    // Largest first: the fewest madvise calls per byte.
    int bin = LastBinLocked(/*released=*/false);
    if (bin < 0) break;
    size_t page = free_heads_[0][bin];
    size_t pages = RemoveFreeLocked(page);
    // The whole range, first page included: no freed byte holds
    // metadata, so nothing refaults it until it is allocated again. The
    // madvise widens over released free neighbours to hugepage
    // boundaries: a zap that covers a whole 2 MiB extent also frees its
    // page table, so the next touch there faults one hugepage back in
    // instead of 512 small pages. The neighbours are released already,
    // so the backing confirms only this range's bytes.
    size_t lo = page;
    size_t hi = page + pages;
    const uint32_t released = kDirFreeFlag | kDirReleasedFlag;
    if (page > 0) {
      uint32_t left = dir_[page - 1].load(std::memory_order_relaxed);
      if ((left & ~kDirPagesMask) == released) {
        lo = std::max(page - (left & kDirPagesMask),
                      page & ~(kPagesPerHugePage - 1));
      }
    }
    if (hi < dir_entries_) {
      uint32_t right = dir_[hi].load(std::memory_order_relaxed);
      if ((right & ~kDirPagesMask) == released) {
        hi = std::min(hi + (right & kDirPagesMask),
                      (hi + kPagesPerHugePage - 1) & ~(kPagesPerHugePage - 1));
      }
    }
    size_t got = backing_->Release(PageAddr(lo), (hi - lo) << kPageShift);
    if (got == 0) {
      // madvise refused: the range stays resident, and the sweep ends
      // rather than pick it again.
      InsertFreeLocked(page, pages, /*released=*/false);
      break;
    }
    confirmed += got;
    AddFreeLocked(page, pages, /*released=*/true);
  }
  return confirmed;
}

size_t RealThreadsAllocator::ReleaseMemoryToSystem(size_t bytes) {
  if (!real_) return 0;
  std::lock_guard<std::mutex> guard(large_mu_);
  return ReleasePendingLocked(bytes);
}

std::vector<RealThreadsAllocator::LargeFreeRange>
RealThreadsAllocator::LargeFreeRanges() {
  WSC_CHECK(real_);
  std::vector<LargeFreeRange> ranges;
  std::lock_guard<std::mutex> guard(large_mu_);
  for (bool released : {false, true}) {
    for (int bin = NextBinLocked(released, 0); bin >= 0;
         bin = NextBinLocked(released, bin + 1)) {
      for (uint32_t p = free_heads_[released][bin]; p != kNoPage;
           p = free_links_[p].next) {
        ranges.push_back(LargeFreeRange{
            PageAddr(p),
            dir_[p].load(std::memory_order_relaxed) & kDirPagesMask,
            released});
      }
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const LargeFreeRange& a, const LargeFreeRange& b) {
              return a.addr < b.addr;
            });
  return ranges;
}

uintptr_t RealThreadsAllocator::AllocateForCalloc(RealThreadCache* tc,
                                                  size_t size,
                                                  bool* known_zero) {
  WSC_CHECK(real_);
  *known_zero = false;
  int cls = size_classes_->ClassFor(size);
  if (cls >= 0) return AllocateClass(tc, cls);
  return AllocateLargeReal(tc, size, kPageSize, known_zero);
}

bool RealThreadsAllocator::ResizeLargeInPlace(RealThreadCache* tc,
                                              uintptr_t addr,
                                              size_t new_size) {
  WSC_CHECK(real_);
  // Only an exact live range start qualifies; the unlocked peek keeps
  // small reallocs off large_mu_. The caller owns the block, so its entry
  // cannot change under us.
  if (!Owns(addr) || (addr & (kPageSize - 1)) != 0) return false;
  const uint32_t entry = dir_entry(addr).load(std::memory_order_relaxed);
  if ((entry & kDirLargeFlag) == 0) return false;
  // A size a class serves belongs in that class; the caller moves it.
  if (size_classes_->ClassFor(new_size) >= 0 ||
      new_size > arena_end_ - arena_base_) {
    return false;
  }
  const size_t page = PageOf(addr);
  const size_t old_pages = entry & kDirPagesMask;
  const size_t new_pages = static_cast<size_t>(BytesToLengthCeil(new_size));
  if (new_pages == old_pages) return true;

  std::lock_guard<std::mutex> guard(large_mu_);
  if (new_pages < old_pages) {
    AddFreeLocked(page + new_pages, old_pages - new_pages,
                  /*released=*/false);
  } else {
    const size_t next = page + old_pages;  // first page past the range
    const size_t need = new_pages - old_pages;
    if (next + need > dir_entries_) return false;
    uint32_t tag = dir_[next].load(std::memory_order_relaxed);
    size_t avail = 0;
    bool released = false;
    if (tag & kDirFreeFlag) {
      avail = tag & kDirPagesMask;
      released = (tag & kDirReleasedFlag) != 0;
    }
    if (avail < need) {
      // The rest comes from the bump frontier, which must start right
      // where the range (and its free successor, if any) ends.
      uintptr_t from = PageAddr(next + avail);
      if (!arena_next_.compare_exchange_strong(
              from, PageAddr(next + need), std::memory_order_acquire,
              std::memory_order_relaxed)) {
        return false;
      }
    }
    if (avail > 0) {
      size_t take = std::min(avail, need);
      RemoveFreeLocked(next);
      if (avail > take) InsertFreeLocked(next + take, avail - take, released);
      if (released) backing_->Commit(PageAddr(next), take << kPageShift);
    }
  }
  dir_[page].store(kDirLargeFlag | static_cast<uint32_t>(new_pages),
                   std::memory_order_relaxed);
  int64_t delta =
      (static_cast<int64_t>(new_pages) - static_cast<int64_t>(old_pages)) *
      static_cast<int64_t>(kPageSize);
  large_live_bytes_.fetch_add(delta, std::memory_order_relaxed);
  tc->live_bytes += delta;
  large_inplace_resizes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RealThreadsAllocator::ForkPrepare() {
  // Fixed order (the reverse of ForkRelease): registry, large pool,
  // every shard, then the backing. Holding them all across fork() means
  // no lock in the child's copy belongs to a thread that no longer
  // exists.
  threads_mu_.lock();
  large_mu_.lock();
  for (size_t i = 0; i < grid_size_; ++i) transfer_[i].lock.Lock();
  for (size_t i = 0; i < grid_size_; ++i) cfl_[i].lock.Lock();
  if (backing_ != nullptr) backing_->ForkLock();
}

void RealThreadsAllocator::ForkRelease() {
  if (backing_ != nullptr) backing_->ForkUnlock();
  for (size_t i = 0; i < grid_size_; ++i) cfl_[i].lock.Unlock();
  for (size_t i = 0; i < grid_size_; ++i) transfer_[i].lock.Unlock();
  large_mu_.unlock();
  threads_mu_.unlock();
}

void RealThreadsAllocator::FreeAddr(RealThreadCache* tc, uintptr_t addr) {
  WSC_CHECK(real_);
  uint32_t entry = dir_entry(addr).load(std::memory_order_relaxed);
  // Unknown page or a free range: stale/foreign pointer, ignore.
  if (entry == 0 || (entry & kDirFreeFlag)) return;
  if (entry & kDirLargeFlag) {
    // Only the exact range start is a valid large pointer.
    WSC_CHECK_EQ(addr & (kPageSize - 1), uintptr_t{0});
    FreeLargeReal(tc, addr, entry & kDirPagesMask);
    return;
  }
  FreeClass(tc, static_cast<int>(entry) - 1, addr);
}

size_t RealThreadsAllocator::UsableSize(uintptr_t addr) const {
  if (!Owns(addr)) return 0;
  uint32_t entry = dir_[(addr - arena_base_) >> kPageShift].load(
      std::memory_order_relaxed);
  if (entry == 0 || (entry & kDirFreeFlag)) return 0;
  if (entry & kDirLargeFlag) {
    return static_cast<size_t>(entry & kDirPagesMask) << kPageShift;
  }
  return size_classes_->class_size(static_cast<int>(entry) - 1);
}

uintptr_t RealThreadsAllocator::AllocateAligned(RealThreadCache* tc,
                                                size_t size, size_t align) {
  WSC_CHECK(real_);
  WSC_CHECK((align & (align - 1)) == 0 && align > 0);
  if (size == 0) size = 1;
  if (align <= sizeof(void*)) {
    // Size classes are at least pointer-aligned already.
    return Allocate(tc, size);
  }
  if (align <= kPageSize) {
    int cls = size_classes_->ClassFor(size);
    if (cls >= 0) {
      // Spans are page-aligned and objects are laid out back to back, so
      // every object of a class whose size is a multiple of `align` is
      // itself aligned (align divides the page size here).
      while (cls < num_classes_ &&
             size_classes_->class_size(cls) % align != 0) {
        ++cls;
      }
      if (cls < num_classes_) return AllocateClass(tc, cls);
    }
  }
  return AllocateLargeReal(tc, size, std::max(align, kPageSize));
}

size_t RealThreadsAllocator::FootprintBytes() const {
  int64_t large = large_live_bytes_.load(std::memory_order_relaxed);
  size_t fp = small_carved_bytes_.load(std::memory_order_relaxed) +
              static_cast<size_t>(std::max<int64_t>(0, large));
  if (real_) {
    // Pending large ranges are freed but still resident until released.
    fp += large_unreleased_pages_.load(std::memory_order_relaxed)
          << kPageShift;
  }
  return fp;
}

telemetry::Snapshot RealThreadsAllocator::TelemetrySnapshot() const {
  // Thread-cache aggregates. Quiescence contract: every worker has joined
  // (or only the caller is running), so plain reads are race-free.
  uint64_t allocations = 0, frees = 0;
  uint64_t fast_alloc_hits = 0, fast_free_hits = 0;
  uint64_t underflows = 0, overflows = 0;
  uint64_t large_allocations = 0, large_frees = 0;
  int64_t live_bytes = 0;
  uint64_t thread_cached_objects = 0;
  double thread_cached_bytes = 0;
  size_t nthreads = 0;
  {
    std::lock_guard<std::mutex> guard(threads_mu_);
    nthreads = threads_.size();
    for (const auto& tc : threads_) {
      allocations += tc->allocations;
      frees += tc->frees;
      fast_alloc_hits += tc->fast_alloc_hits;
      fast_free_hits += tc->fast_free_hits;
      underflows += tc->underflows;
      overflows += tc->overflows;
      large_allocations += tc->large_allocations;
      large_frees += tc->large_frees;
      live_bytes += tc->live_bytes;
      for (int cls = 0; cls < num_classes_; ++cls) {
        // One of slots/count is populated per mode; summing both covers
        // either.
        size_t n = tc->lists[cls].slots.size() + tc->lists[cls].count;
        thread_cached_objects += n;
        thread_cached_bytes +=
            static_cast<double>(n) *
            static_cast<double>(size_classes_->class_size(cls));
      }
    }
  }

  // Shard aggregates.
  uint64_t transfer_acq = 0, transfer_contended = 0;
  uint64_t transfer_inserts = 0, transfer_inserted = 0;
  uint64_t transfer_overflows = 0;
  uint64_t transfer_removes = 0, transfer_removed = 0, transfer_misses = 0;
  uint64_t transfer_cached = 0;
  for (size_t i = 0; i < grid_size_; ++i) {
    const TransferShard& ts = transfer_[i];
    transfer_acq += ts.lock.acquisitions();
    transfer_contended += ts.lock.contended();
    transfer_inserts += ts.inserts;
    transfer_inserted += ts.inserted_objects;
    transfer_overflows += ts.insert_overflows;
    transfer_removes += ts.removes;
    transfer_removed += ts.removed_objects;
    transfer_misses += ts.remove_misses;
    transfer_cached += ts.objects.size() + ts.count;
  }
  uint64_t cfl_acq = 0, cfl_contended = 0;
  uint64_t refills = 0, refill_stalls = 0;
  uint64_t steals = 0, stolen_objects = 0, steal_probes = 0;
  uint64_t carves = 0, carved_objects = 0;
  uint64_t cfl_free = 0;
  for (size_t i = 0; i < grid_size_; ++i) {
    const CflShard& cs = cfl_[i];
    cfl_acq += cs.lock.acquisitions();
    cfl_contended += cs.lock.contended();
    refills += cs.refills;
    refill_stalls += cs.refill_stalls;
    steals += cs.steals;
    stolen_objects += cs.stolen_objects;
    steal_probes += cs.steal_probes;
    carves += cs.carves;
    carved_objects += cs.carved_objects;
    cfl_free += cs.free_objects.size() + cs.count;
  }

  telemetry::MetricRegistry registry;
  registry.BeginExport();
  registry.ExportCounter("allocator", "allocations", allocations);
  registry.ExportCounter("allocator", "frees", frees);
  registry.ExportCounter("allocator", "large_allocations", large_allocations);
  registry.ExportCounter("allocator", "large_frees", large_frees);
  registry.ExportCounter("allocator", "carved_objects", carved_objects);
  registry.ExportGauge("allocator", "live_objects",
                       static_cast<double>(allocations - frees));
  registry.ExportGauge("allocator", "live_bytes",
                       static_cast<double>(live_bytes));
  registry.ExportGauge("allocator", "cached_objects",
                       static_cast<double>(thread_cached_objects +
                                           transfer_cached + cfl_free));
  registry.ExportGauge("allocator", "footprint_bytes",
                       static_cast<double>(FootprintBytes()));
  registry.ExportGauge("allocator", "arena_used_bytes",
                       static_cast<double>(ArenaUsedBytes()));

  registry.ExportCounter("thread_cache", "fast_alloc_hits", fast_alloc_hits);
  registry.ExportCounter("thread_cache", "fast_free_hits", fast_free_hits);
  registry.ExportCounter("thread_cache", "underflows", underflows);
  registry.ExportCounter("thread_cache", "overflows", overflows);
  registry.ExportGauge("thread_cache", "registered_threads",
                       static_cast<double>(nthreads));
  registry.ExportGauge("thread_cache", "cached_objects",
                       static_cast<double>(thread_cached_objects));
  registry.ExportGauge("thread_cache", "cached_bytes", thread_cached_bytes);

  registry.ExportCounter("sharded_transfer", "inserts", transfer_inserts);
  registry.ExportCounter("sharded_transfer", "inserted_objects",
                         transfer_inserted);
  registry.ExportCounter("sharded_transfer", "insert_overflows",
                         transfer_overflows);
  registry.ExportCounter("sharded_transfer", "removes", transfer_removes);
  registry.ExportCounter("sharded_transfer", "removed_objects",
                         transfer_removed);
  registry.ExportCounter("sharded_transfer", "remove_misses",
                         transfer_misses);
  registry.ExportGauge("sharded_transfer", "cached_objects",
                       static_cast<double>(transfer_cached));

  registry.ExportCounter("sharded_cfl", "refills", refills);
  registry.ExportCounter("sharded_cfl", "carves", carves);
  registry.ExportCounter("sharded_cfl", "carved_objects", carved_objects);
  registry.ExportGauge("sharded_cfl", "free_objects",
                       static_cast<double>(cfl_free));
  registry.ExportGauge("sharded_cfl", "num_shards",
                       static_cast<double>(num_shards_));

  // The contention component the fig_mt_scaling bench and
  // check_bench_json.py key on: lock traffic, refill stalls, and how the
  // stalls were resolved (steal vs carve).
  registry.ExportCounter("contention", "transfer_lock_acquisitions",
                         transfer_acq);
  registry.ExportCounter("contention", "transfer_lock_contended",
                         transfer_contended);
  registry.ExportCounter("contention", "cfl_lock_acquisitions", cfl_acq);
  registry.ExportCounter("contention", "cfl_lock_contended", cfl_contended);
  registry.ExportCounter("contention", "refill_stalls", refill_stalls);
  registry.ExportCounter("contention", "work_steals", steals);
  registry.ExportCounter("contention", "stolen_objects", stolen_objects);
  registry.ExportCounter("contention", "steal_probes", steal_probes);
  registry.ExportCounter("contention", "arena_carves",
                         carves + large_carves_.load(
                                      std::memory_order_relaxed));

  // Real-memory-only extras: backing release/commit traffic and the
  // pending large pool. Exported only in real mode so virtual-mode
  // snapshots stay byte-identical with the pre-backing builds.
  if (real_) {
    const MemoryBackingStats& bs = backing_->stats();
    registry.ExportCounter("system", "release_calls", bs.release_calls);
    registry.ExportCounter("system", "released_bytes", bs.released_bytes);
    registry.ExportCounter("system", "recommitted_bytes",
                           bs.recommitted_bytes);
    registry.ExportGauge("system", "reserved_bytes",
                         static_cast<double>(backing_->reserved_bytes()));
    registry.ExportGauge(
        "allocator", "large_pending_bytes",
        static_cast<double>(
            large_free_pages_.load(std::memory_order_relaxed) << kPageShift));
    registry.ExportGauge(
        "allocator", "large_free_ranges",
        static_cast<double>(
            large_free_ranges_.load(std::memory_order_relaxed)));
    registry.ExportCounter(
        "allocator", "large_coalesces",
        large_coalesces_.load(std::memory_order_relaxed));
    registry.ExportCounter(
        "allocator", "large_inplace_resizes",
        large_inplace_resizes_.load(std::memory_order_relaxed));
  }
  return registry.TakeSnapshot();
}

}  // namespace wsc::tcmalloc
